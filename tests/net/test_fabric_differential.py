"""Differential harness: the round kernel against the per-message oracle.

``reference_fabric.ReferenceGossipFabric`` is the parent commit's
per-message loop; ``repro.net.fabric.GossipFabric`` is the shipped
round kernel.  Both are driven over identically built small clouds by
the same drawn script (epoch boundaries, heartbeat and price rounds,
kills, joins, removals, a mid-run ``unregister``) under drawn faults
(loss, symmetric and asymmetric cuts, flaps), and after every
round the harness demands equal age matrices, versions, pending
bootstraps, message counters, verdicts — and equal ``bit_generator``
state of **both** the gossip and the net generator, which is draw-count
identity, not just equal outcomes.

Tier-1 runs a derandomized budget; the ``slow`` twin explores a larger,
freshly drawn one (``scripts/verify_slow.sh``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_fabric import ReferenceGossipFabric
from repro.cluster.location import Location
from repro.cluster.topology import CloudLayout, build_cloud
from repro.net.fabric import GossipFabric
from repro.net.model import (
    NEW_NODE,
    LinkFlap,
    NetConfig,
    NetPartition,
    NetworkModel,
)

MAX_NODES = 24


class World:
    """One fabric over its own cloud, network model and generators."""

    def __init__(self, fabric_cls, layout: CloudLayout, config: NetConfig,
                 seed: int) -> None:
        self.cloud = build_cloud(layout)
        self.gossip_rng = np.random.default_rng(seed)
        self.net_rng = np.random.default_rng(seed + 1)
        self.net = NetworkModel(config, self.cloud, self.net_rng)
        self.fabric = fabric_cls(
            config, self.net, self.cloud, self.gossip_rng
        )
        self.fabric.register_initial(self.cloud.server_ids)

    # Script actions.  Indices are taken modulo whatever population is
    # current, so every drawn script is applicable to every state.

    def _registered(self, alive: bool):
        cloud = self.cloud
        return [
            sid for sid in self.fabric._ids
            if (sid in cloud and cloud.server(sid).alive) == alive
        ]

    def kill(self, k: int) -> None:
        live = self._registered(alive=True)
        if len(live) > 1:
            self.cloud.server(live[k % len(live)]).fail()

    def join(self, k: int) -> None:
        """A new server lands in the rack of the ``k``-th current one."""
        cloud = self.cloud
        if len(self.fabric._ids) >= MAX_NODES:
            return
        ids = cloud.server_ids
        rack = cloud.server(ids[k % len(ids)]).location.prefix(5)
        taken = {s.location for s in cloud}
        index = 0
        while Location.from_parts(rack + (index,)) in taken:
            index += 1
        joiner = cloud.spawn_servers([Location.from_parts(rack + (index,))])[0]
        self.fabric.register_join(joiner.server_id)

    def remove(self, k: int) -> None:
        """The engine's completed detection: cloud drop, then forget."""
        dead = self._registered(alive=False)
        if dead:
            sid = dead[k % len(dead)]
            if sid in self.cloud:
                self.cloud.remove_server(sid)
            self.fabric.unregister(sid)

    def drop(self, k: int) -> None:
        """A dead server leaves the cloud while still registered."""
        dead = [s for s in self._registered(alive=False) if s in self.cloud]
        if dead:
            self.cloud.remove_server(dead[k % len(dead)])

    def unregister(self, k: int) -> None:
        """Forget a registered server mid-run, dead or alive."""
        ids = self.fabric._ids
        if len(ids) > 2:
            self.fabric.unregister(ids[k % len(ids)])

    def begin_epoch(self, epoch: int) -> None:
        self.net.begin_epoch(epoch)

    def heartbeat(self, _: int) -> None:
        self.fabric.membership_round()

    def price(self, version: int) -> None:
        self.fabric.publish_version(version)
        self.fabric.price_round()

    def state(self) -> dict:
        fabric = self.fabric
        return {
            "ids": list(fabric._ids),
            "age": fabric._age.tolist(),
            "ver": fabric._ver.tolist(),
            "pending": list(fabric._pending_bootstrap),
            "stats": self.net.stats.snapshot(),
            "board": fabric.board_observer(),
            "dead": fabric.believed_dead(),
            "staleness": fabric.staleness(),
            "gossip_rng": self.gossip_rng.bit_generator.state,
            "net_rng": self.net_rng.bit_generator.state,
        }


def assert_same_state(oracle: World, kernel: World, where: str) -> None:
    want, got = oracle.state(), kernel.state()
    for key in want:
        assert got[key] == want[key], f"{where}: {key} diverged"
    assert kernel.fabric._age.dtype == oracle.fabric._age.dtype == np.int32


def run_script(layout, config, seed, script, kernel_cls=GossipFabric):
    """Drive oracle and kernel through ``script``; compare every step.

    Returns the kernel world so callers can assert a case was reached.
    """
    oracle = World(ReferenceGossipFabric, layout, config, seed)
    kernel = World(kernel_cls, layout, config, seed)
    assert_same_state(oracle, kernel, "start")
    for step, (action, arg) in enumerate(script):
        getattr(oracle, action)(arg)
        getattr(kernel, action)(arg)
        assert_same_state(oracle, kernel, f"step {step} {action}({arg})")
    return kernel


# -- drawn scenarios ---------------------------------------------------------

layouts = st.builds(
    CloudLayout,
    countries=st.integers(2, 3),
    countries_per_continent=st.integers(1, 2),
    datacenters_per_country=st.integers(1, 2),
    rooms_per_datacenter=st.just(1),
    racks_per_room=st.integers(1, 2),
    servers_per_rack=st.integers(1, 4),
).filter(lambda layout: 3 <= layout.total_servers <= MAX_NODES - 4)

EPOCHS = 6


@st.composite
def windows(draw):
    start = draw(st.integers(0, EPOCHS - 2))
    return start, draw(st.integers(start + 1, EPOCHS + 1))


@st.composite
def net_configs(draw):
    cuts = tuple(
        NetPartition(
            start=start, heal=heal,
            depth=draw(st.integers(2, 5)),
            asymmetric=draw(st.booleans()),
        )
        for start, heal in draw(st.lists(windows(), max_size=2))
    )
    flaps = tuple(
        LinkFlap(start=start, heal=heal)
        for start, heal in draw(st.lists(windows(), max_size=2))
    )
    return NetConfig(
        loss=draw(st.sampled_from((0.0, 0.1, 0.5))),
        dead_rounds=draw(st.integers(2, 9)),
        partitions=cuts,
        flaps=flaps,
    )


actions = st.one_of(
    st.tuples(st.just("heartbeat"), st.just(0)),
    st.tuples(st.just("heartbeat"), st.just(0)),
    st.tuples(st.just("price"), st.integers(0, 50)),
    st.tuples(
        st.sampled_from(("kill", "join", "remove", "drop", "unregister")),
        st.integers(0, 1000),
    ),
)


@st.composite
def scripts(draw):
    script = []
    for epoch in range(EPOCHS):
        script.append(("begin_epoch", epoch))
        script.extend(draw(st.lists(actions, min_size=1, max_size=7)))
    return script


scenario = dict(
    layout=layouts, config=net_configs(),
    seed=st.integers(0, 2**16), script=scripts(),
)


@given(**scenario)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_kernel_matches_per_message_oracle(layout, config, seed, script):
    run_script(layout, config, seed, script)


@pytest.mark.slow
@given(**scenario)
@settings(max_examples=4000, deadline=None)
def test_kernel_matches_per_message_oracle_sweep(
        layout, config, seed, script):
    run_script(layout, config, seed, script)


# -- named cases the drawn space must not miss -------------------------------

TWO_COUNTRIES = CloudLayout(
    countries=2, countries_per_continent=1, datacenters_per_country=1,
    rooms_per_datacenter=1, racks_per_room=2, servers_per_rack=3,
)


@pytest.mark.parametrize("asymmetric", [False, True])
def test_join_pending_behind_a_cut(asymmetric):
    """The joiner sits across an active cut from the board observer, so
    its bootstrap is retried every round until the cut heals; the
    asymmetric cut lets it through one way only (the joiner's side)."""
    config = NetConfig(
        loss=0.1,
        partitions=(NetPartition(0, 2, depth=2, asymmetric=asymmetric),),
    )
    # Whichever country the drawn pivot puts on side A, one of the two
    # joiners (first rack / last rack) lands across the cut from the
    # board observer, server 0.
    reached = []
    for joiner_rack in (0, 11):
        script = [("begin_epoch", 0), ("join", joiner_rack)]
        script += [("heartbeat", 0)] * 3 + [("price", 0)]
        script += [("begin_epoch", 1), ("kill", 5)]
        script += [("heartbeat", 0)] * 3 + [("price", 1)]
        script += [("begin_epoch", 2)]
        script += [("heartbeat", 0)] * 4 + [("price", 2), ("remove", 0)]
        script += [("heartbeat", 0)] * 2
        world = run_script(TWO_COUNTRIES, config, 11, script[:5])
        reached.append(bool(world.fabric._pending_bootstrap))
        world = run_script(TWO_COUNTRIES, config, 11, script)
        assert not world.fabric._pending_bootstrap
        assert world.net.stats.snapshot()[NEW_NODE][1] > 2
    if not asymmetric:
        assert any(reached), "no joiner was ever cut off from the board"


def test_flapped_sender_and_target_drop_both_ways():
    config = NetConfig(
        loss=0.5,
        flaps=(LinkFlap(0, 2), LinkFlap(1, 3)),
        partitions=(NetPartition(1, 3, depth=3, asymmetric=True),),
    )
    script = []
    for epoch in range(4):
        script += [("begin_epoch", epoch)]
        script += [("heartbeat", 0)] * 3 + [("price", epoch)] * 2
    world = run_script(TWO_COUNTRIES, config, 3, script)
    sent, delivered, lost, cut = world.net.stats.snapshot()["HEARTBEAT"]
    assert lost and cut and delivered and sent == delivered + lost + cut


def test_bootstrap_retry_to_a_joiner_the_cloud_dropped():
    """A joiner still pending bootstrap is killed, then dropped from the
    cloud while registered; the next heartbeat round retries its
    bootstrap across an active cut.  Both fabrics must read the gone id
    as side B of the cut (as ``side_column`` always did) instead of
    asking the cloud for its location."""
    layout = CloudLayout(
        countries=2, countries_per_continent=1, datacenters_per_country=1,
        rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=2,
    )
    config = NetConfig(
        dead_rounds=2,
        partitions=(NetPartition(1, 6, depth=2),),
        flaps=(LinkFlap(0, 3),),
    )
    script = [
        ("begin_epoch", 0), ("heartbeat", 0),
        ("begin_epoch", 1), ("heartbeat", 0),
        ("begin_epoch", 2), ("kill", 0), ("join", 0),
        ("begin_epoch", 3), ("kill", 3),
        ("begin_epoch", 4), ("drop", 1),
        ("begin_epoch", 5),
    ]
    world = run_script(layout, config, 0, script)
    joiner = world.fabric._pending_bootstrap[0]
    assert joiner in world.fabric._ids and joiner not in world.cloud
    run_script(layout, config, 0, script + [("heartbeat", 0)])


def test_harness_detects_a_skipped_draw():
    """A kernel that rolls one loss die too few must fail the harness
    on generator state even when the outcome happens to match."""

    class SkipsADraw(ReferenceGossipFabric):
        def membership_round(self):
            super().membership_round()
            self._net.lost()

    script = [("begin_epoch", 0), ("heartbeat", 0)]
    with pytest.raises(AssertionError, match="net_rng diverged"):
        run_script(
            TWO_COUNTRIES, NetConfig(loss=0.1), 0, script,
            kernel_cls=SkipsADraw,
        )


def test_pinned_lossy_rounds_across_a_cut_and_a_flap():
    """Loss, an asymmetric cut and a flap at once, so every tier-1 run
    holds the per-round column memo (one unreachable column per
    flap-and-side key) to the oracle."""
    config = NetConfig(
        loss=0.2,
        partitions=(NetPartition(0, 4, depth=2, asymmetric=True),),
        flaps=(LinkFlap(1, 3),),
    )
    script = []
    for epoch in range(5):
        script += [("begin_epoch", epoch), ("heartbeat", 0)]
        script += [("heartbeat", 0), ("price", epoch)]
    script[6:6] = [("join", 7), ("kill", 2)]
    world = run_script(TWO_COUNTRIES, config, 5, script)
    sent, delivered, lost, cut = world.net.stats.snapshot()["HEARTBEAT"]
    assert lost and cut and delivered and sent == delivered + lost + cut
