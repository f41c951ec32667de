"""Differential harness: compile-once routes against the per-request oracle.

``reference_request_path.ReferenceFrontEnd`` is the parent commit's
front door — every request re-walks the catalog, re-probes every replica
and re-costs its quorum path; ``repro.serve.frontend.ServingFrontEnd``
compiles each ``(partition, client site)`` once per serving window and
executes only the key.  Both are driven over identically built small
clouds by the same drawn script — serving steps interleaved with joins,
server drops, transient ``fail()`` / ``restore()``, replica transfers,
splits, net cuts and flaps under gossip (ghosts, false suspects) and a
duck-typed stale view whose verdicts flip between epochs — and after
every epoch the harness demands the same ``ServingFrame``, data-plane
stats, store copies and version counters, parked hints, consistency
frontier, SLA view and ``serving`` generator state.

Tier-1 runs a derandomized budget; the ``slow`` twin explores a larger,
freshly drawn one (``scripts/verify_slow.sh``).
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_request_path import ReferenceFrontEnd
from repro.cluster.location import Location
from repro.cluster.topology import CloudLayout, build_cloud
from repro.net.membership import MembershipService, OracleMembership
from repro.net.model import LinkFlap, NetConfig, NetPartition
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.serve.frontend import ServingFrontEnd
from repro.sim.config import ServingConfig
from repro.sim.scenario import ScenarioSpec, compile_spec
from repro.sim.seeds import RngStreams
from repro.store.replica import ReplicaCatalog

MAX_SERVERS = 24


class StaleView:
    """Duck-typed view (no ``predicate`` / ``version``): ghosts are
    believed live but never answer, suspects answer but are believed
    dead, cuts are one-way ``(src, dst)`` links that drop."""

    def __init__(self, cloud) -> None:
        self._cloud = cloud
        self.ghosts = frozenset()
        self.suspects = frozenset()
        self.cuts = frozenset()

    def believed(self, server_id):
        return server_id in self._cloud and server_id not in self.suspects

    def believed_ids(self):
        return [s.server_id for s in self._cloud
                if s.server_id not in self.suspects]

    def responds(self, server_id):
        cloud = self._cloud
        return (server_id in cloud and cloud.server(server_id).alive
                and server_id not in self.ghosts)

    def reachable(self, src, dst):
        return (src, dst) not in self.cuts


class World:
    """One front door over its own cloud, rings, catalog and view."""

    def __init__(self, front_cls, layout, view, net_config, level,
                 read_fraction, seed) -> None:
        self.cloud = cloud = build_cloud(layout)
        self.rings = RingSet()
        self.catalog = ReplicaCatalog(cloud)
        placement = np.random.default_rng(seed + 1)
        ids = cloud.server_ids
        for ring_id, replicas in ((0, 3), (1, 2)):
            ring = self.rings.add_ring(
                0, ring_id, AvailabilityLevel(1.0, replicas), 3,
                initial_size=0,
            )
            for partition in ring:
                holders = placement.permutation(len(ids))[:replicas]
                for slot in holders.tolist():
                    self.catalog.place(partition, ids[slot])
        self.service = None
        if view == "oracle":
            membership = OracleMembership(cloud)
        elif view == "gossip":
            membership = self.service = MembershipService(
                net_config, cloud, RngStreams(seed)
            )
        else:
            membership = self.stale = StaleView(cloud)
        # Clients sit beside every third server, plus one on a far
        # continent that sees every replica at an exact diversity tie.
        sites = tuple(cloud.server(sid).location for sid in ids[::3])
        sites += (Location(9, 0, 0, 0, 0, 0),)
        config = ServingConfig(
            level=level, requests_per_epoch=40,
            read_fraction=read_fraction, keyspace=12, workers=4,
            hint_ttl=3, anti_entropy_partitions=1,
        )
        self.front = front_cls(
            config, cloud, self.rings, self.catalog, membership,
            rng=np.random.default_rng(seed), apps=[(0, 0), (0, 1)],
            sites=sites,
        )
        self.epoch = 0
        self.frame = None

    # Script actions.  Indices are taken modulo whatever population is
    # current, so every drawn script is applicable to every state.

    def _in_cloud(self, alive: bool):
        ghosts = self.service._ghosts if self.service else ()
        return [s.server_id for s in self.cloud
                if s.alive == alive and s.server_id not in ghosts]

    def _partitions(self):
        return [p for ring in self.rings for p in ring]

    def step(self, _: int) -> None:
        epoch, service = self.epoch, self.service
        if service is not None:
            service.begin_epoch(epoch)
            for sid in service.run_membership_phase():
                self.cloud.remove_server(sid)
                self.catalog.drop_server(sid)
                service.on_removed(sid)
        self.front.step(epoch)
        self.frame = self.front.collect_serving_frame()
        self.epoch += 1

    def join(self, k: int) -> None:
        """A new server lands in the rack of the ``k``-th current one."""
        cloud = self.cloud
        ids = cloud.server_ids
        if len(ids) >= MAX_SERVERS:
            return
        rack = cloud.server(ids[k % len(ids)]).location.prefix(5)
        taken = {s.location for s in cloud}
        index = 0
        while Location.from_parts(rack + (index,)) in taken:
            index += 1
        joiner = cloud.spawn_servers([Location.from_parts(rack + (index,))])[0]
        if self.service is not None:
            self.service.register_added([joiner.server_id])

    def drop(self, k: int) -> None:
        """A server dies for good: removed at once under an honest
        view, a ghost until detection under gossip."""
        live = self._in_cloud(alive=True)
        if len(live) < 3:
            return
        sid = live[k % len(live)]
        if self.service is not None:
            self.cloud.server(sid).fail()
            self.service.record_kills([sid])
        else:
            self.cloud.remove_server(sid)
            self.catalog.drop_server(sid)

    def fail(self, k: int) -> None:
        live = self._in_cloud(alive=True)
        if len(live) > 1:
            self.cloud.server(live[k % len(live)]).fail()

    def restore(self, k: int) -> None:
        down = self._in_cloud(alive=False)
        if down:
            self.cloud.server(down[k % len(down)]).restore()

    def add_replica(self, k: int) -> None:
        partitions = self._partitions()
        partition = partitions[k % len(partitions)]
        free = [sid for sid in self._in_cloud(alive=True)
                if not self.catalog.has_replica(partition.pid, sid)]
        if free:
            self.catalog.place(partition, free[(k // 7) % len(free)])

    def remove_replica(self, k: int) -> None:
        partitions = self._partitions()
        partition = partitions[k % len(partitions)]
        holders = self.catalog.servers_of(partition.pid)
        if len(holders) > 1:
            self.catalog.drop(partition, holders[(k // 7) % len(holders)])

    def split(self, k: int) -> None:
        partitions = [
            p for p in self._partitions()
            if p.key_range.span >= 2
            and self.catalog.replica_count(p.pid) > 0
        ]
        if len(partitions) >= 12:
            return
        parent = partitions[k % len(partitions)]
        ring = self.rings.ring(parent.pid.app_id, parent.pid.ring_id)
        low, high = ring.split_partition(parent.pid)
        self.catalog.split_partition(parent, low, high)

    def flip(self, k: int) -> None:
        """Redraw the stale view's verdicts (no-op under real views)."""
        if self.service is not None or not hasattr(self, "stale"):
            return
        ids = self.cloud.server_ids
        pick = np.random.default_rng(k)
        stale = self.stale
        stale.ghosts = frozenset(
            pick.choice(ids, size=k % 3, replace=False).tolist()
        )
        stale.suspects = frozenset(
            pick.choice(ids, size=(k // 3) % 3, replace=False).tolist()
        )
        stale.cuts = frozenset(
            tuple(pick.choice(ids, size=2, replace=False).tolist())
            for __ in range((k // 9) % 4)
        )

    def state(self) -> dict:
        front = self.front
        store = front.store
        return {
            "frame": self.frame,
            "stats": store.stats.as_dict(),
            "levels": store.stats.level_rows(),
            # The reference's reads leave empty buckets behind; the
            # shipped lookup does not create them.
            "copies": {k: v for k, v in store._copies.items() if v},
            "next_version": store._next_version,
            "hints": front.hints._hints,
            "frontier": vars(front.frontier),
            "sla": front.sla.tenant_view(),
            "totals": (front.frontier.tally.operations,
                       front.frontier.tally.failed_ops),
            "rng": front.loadgen._rng.bit_generator.state,
            "catalog": {pid: self.catalog.servers_of(pid)
                        for pid in self.catalog.partitions()},
        }


def assert_same_state(oracle: World, shipped: World, where: str) -> None:
    want, got = oracle.state(), shipped.state()
    for key in want:
        assert got[key] == want[key], f"{where}: {key} diverged"


def run_script(layout, view, net_config, level, read_fraction, seed,
               script, front_cls=ServingFrontEnd) -> World:
    """Drive oracle and shipped front door through ``script``; compare
    after every serving epoch.  Returns the shipped world."""
    build = (layout, view, net_config, level, read_fraction, seed)
    oracle = World(ReferenceFrontEnd, *build)
    shipped = World(front_cls, *build)
    for step, (action, arg) in enumerate(script):
        getattr(oracle, action)(arg)
        getattr(shipped, action)(arg)
        if action == "step":
            assert_same_state(
                oracle, shipped, f"step {step} epoch {shipped.epoch - 1}"
            )
    return shipped


# -- drawn scenarios ---------------------------------------------------------

layouts = st.builds(
    CloudLayout,
    countries=st.integers(2, 3),
    countries_per_continent=st.integers(1, 2),
    datacenters_per_country=st.integers(1, 2),
    rooms_per_datacenter=st.just(1),
    racks_per_room=st.integers(1, 2),
    servers_per_rack=st.integers(1, 3),
).filter(lambda layout: 4 <= layout.total_servers <= MAX_SERVERS - 4)

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
        loss=draw(st.sampled_from((0.0, 0.1, 0.4))),
        dead_rounds=draw(st.integers(2, 7)),
        partitions=cuts,
        flaps=flaps,
    )


actions = st.tuples(
    st.sampled_from((
        "join", "drop", "fail", "fail", "restore", "add_replica",
        "remove_replica", "split", "flip", "flip",
    )),
    st.integers(0, 1000),
)


@st.composite
def scripts(draw):
    script = []
    for __ in range(EPOCHS):
        script.extend(draw(st.lists(actions, max_size=3)))
        script.append(("step", 0))
    return script


scenario = dict(
    layout=layouts,
    view=st.sampled_from(("oracle", "oracle", "gossip", "stale")),
    net_config=net_configs(),
    level=st.sampled_from(("one", "quorum", "all")),
    read_fraction=st.sampled_from((0.5, 0.9)),
    seed=st.integers(0, 2**16),
    script=scripts(),
)


@given(**scenario)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_compiled_path_matches_per_request_oracle(
        layout, view, net_config, level, read_fraction, seed, script):
    run_script(layout, view, net_config, level, read_fraction, seed, script)


@pytest.mark.slow
@given(**scenario)
@settings(max_examples=2500, deadline=None)
def test_compiled_path_matches_per_request_oracle_sweep(
        layout, view, net_config, level, read_fraction, seed, script):
    run_script(layout, view, net_config, level, read_fraction, seed, script)


# -- named cases the drawn space must not miss -------------------------------

SMALL = CloudLayout(
    countries=2, countries_per_continent=1, datacenters_per_country=1,
    rooms_per_datacenter=1, racks_per_room=2, servers_per_rack=2,
)
EVERYTHING = [
    ("step", 0), ("fail", 1), ("step", 0), ("restore", 0), ("step", 0),
    ("add_replica", 5), ("remove_replica", 9), ("step", 0),
    ("split", 2), ("step", 0), ("drop", 3), ("join", 1), ("step", 0),
    ("flip", 14), ("step", 0), ("flip", 31), ("step", 0), ("step", 0),
]


@pytest.mark.parametrize("view", ["oracle", "gossip", "stale"])
@pytest.mark.parametrize("level", ["one", "quorum", "all"])
def test_every_event_kind_between_steps(view, level):
    net = NetConfig(
        loss=0.1, dead_rounds=3,
        partitions=(NetPartition(1, 4, depth=2, asymmetric=True),),
        flaps=(LinkFlap(2, 5),),
    )
    world = run_script(SMALL, view, net, level, 0.7, 5, EVERYTHING)
    router = world.front.router
    assert router.route_reuses > 0 and router.route_compiles > 0
    assert world.front.store.read_plan_compiles <= router.route_compiles


def test_harness_detects_a_memo_that_outlives_a_failure():
    """A router that keeps its routes across a ``fail()`` serves from a
    dead coordinator's plan; the harness must see it."""

    class NeverForgets(ServingFrontEnd):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            # One window for the whole run: opened here, never closed.
            self._window = self.router.serving_window()
            self._window.__enter__()
            self.router.serving_window = contextlib.nullcontext

    script = [("step", 0), ("fail", 0), ("fail", 1), ("step", 0)]
    with pytest.raises(AssertionError, match="diverged"):
        run_script(
            SMALL, "oracle", NetConfig(), "all", 0.7, 5, script,
            front_cls=NeverForgets,
        )


# -- the benchmark's serving workloads, end to end ---------------------------

BENCH_SPECS = Path(__file__).resolve().parents[2] / "benchmarks/e2e/workloads"


@pytest.mark.parametrize("workload, read_fraction", [
    # The write-heavy mix benchmarks/e2e/README.md says to show by hand:
    # 80 % puts, so hint parking and per-write contact loops dominate.
    ("serve-read", 0.2),
    pytest.param("serve-read", 0.95, marks=pytest.mark.slow),
    pytest.param("faults-churn", None, marks=pytest.mark.slow),
])
def test_bench_workload_serves_the_same_frames(
        monkeypatch, workload, read_fraction):
    """The whole engine around both front doors: same EpochFrame and
    ServingFrame streams, same store counters, same lost-write audit."""
    data = json.loads((BENCH_SPECS / f"{workload}.json").read_text())
    if read_fraction is not None:
        data["flows"]["serving"]["read_fraction"] = read_fraction
    spec = ScenarioSpec.from_dict(data).with_operations(epochs=30, seed=7)
    runs = []
    for front_cls in (ReferenceFrontEnd, ServingFrontEnd):
        monkeypatch.setattr("repro.sim.engine.ServingFrontEnd", front_cls)
        sim = compile_spec(spec).simulation()
        sim.run(spec.operations.epochs)
        front = sim.serving
        assert type(front) is front_cls
        runs.append({
            "frames": list(sim.metrics),
            "serving": list(sim.serving_log),
            "stats": front.store.stats.as_dict(),
            "levels": front.store.stats.level_rows(),
            "lost": front.lost_writes(),
            "rng": front.loadgen._rng.bit_generator.state,
        })
    oracle, shipped = runs
    for key in oracle:
        assert shipped[key] == oracle[key], f"{workload}: {key} diverged"
