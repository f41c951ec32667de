"""The gossip round's draw blocks against numpy's scalar calls.

``repro.net.fabric`` reads a round's ``gossip`` draws from prefetched
``random_raw`` words and its ``net`` loss rolls from one ``random``
block, then rewinds both generators.  These tests hold the blocks to
the calls they replace on values *and* on the full
``bit_generator.state``, buffered 32-bit half included, and fence the
number of generator calls a round makes.
"""

from collections import Counter

import numpy as np
import pytest

from reference_fabric import ReferenceGossipFabric
from repro.cluster.topology import CloudLayout, build_cloud
from repro.net.fabric import GossipFabric, _GossipDraws
from repro.net.model import (
    HEARTBEAT,
    LinkFlap,
    NetConfig,
    NetError,
    NetPartition,
    NetworkModel,
)


def twins(seed: int, pending: int):
    """Two generators in one state; ``pending`` leaves a buffered half."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    if pending:
        for rng in pair:
            rng.integers(5)
    assert pair[0].bit_generator.state["has_uint32"] == pending
    return pair


def assert_same_state(a: np.random.Generator, b: np.random.Generator):
    assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("pending", [0, 1])
def test_choice_matches_numpy_for_every_small_population(pending):
    """n = 1 … 64 at k = min(3, n): n = k and k < fanout included."""
    for n in range(1, 65):
        k = min(3, n)
        scalar, blocked = twins(n, pending)
        draws = _GossipDraws(blocked, 4)
        for _ in range(6):
            want = scalar.choice(n, size=k, replace=False).tolist()
            assert draws.choice(n, k) == want, n
        draws.rewind()
        assert_same_state(blocked, scalar)


REJECTING = (2**31 + 1, 3_000_000_000)


@pytest.mark.parametrize("pending", [0, 1])
@pytest.mark.parametrize("r", (0, 1, 2) + REJECTING)
def test_bounded_draws_match_integers(r, pending):
    scalar, blocked = twins(r % 1000, pending)
    draws = _GossipDraws(blocked, 2)
    got = [draws.bounded(r) for _ in range(200)]
    assert got == [int(scalar.integers(r + 1)) for _ in range(200)]
    draws.rewind()
    assert_same_state(blocked, scalar)
    if r in REJECTING:
        assert draws._pos - draws._head > 200, "Lemire never rejected"


def test_lemire_accepts_a_draw_exactly_at_its_threshold():
    """numpy redraws only *below* ``(2**32 - 1 - r) % (r + 1)``; a half
    landing on it (odds 2**-32, so no drawn case finds it) is kept."""
    r = 3_000_000_000
    threshold = (2**32 - 1 - r) % (r + 1)
    u = threshold * pow(r + 1, -1, 2**32) % 2**32
    assert u * (r + 1) % 2**32 == threshold
    draws = _GossipDraws(np.random.default_rng(0), 4)
    draws._halves[draws._pos] = u
    assert draws.bounded(r) == u * (r + 1) >> 32
    assert draws._pos == draws._head + 1


@pytest.mark.parametrize("pending", [0, 1])
def test_a_round_that_draws_nothing_still_rewinds(pending):
    scalar, blocked = twins(3, pending)
    draws = _GossipDraws(blocked, 16)
    assert blocked.bit_generator.state != scalar.bit_generator.state
    assert draws.choice(1, 1) == [0]
    assert draws.bounded(0) == 0
    draws.rewind()
    assert_same_state(blocked, scalar)


def test_a_round_that_reads_only_the_buffered_half():
    """numpy clears ``has_uint32`` and leaves ``uinteger`` stale."""
    scalar, blocked = twins(8, 1)
    draws = _GossipDraws(blocked, 16)
    assert draws.bounded(6) == int(scalar.integers(7))
    draws.rewind()
    assert_same_state(blocked, scalar)
    assert blocked.bit_generator.state["has_uint32"] == 0


def test_an_outrun_block_fetches_more():
    scalar, blocked = twins(5, 0)
    draws = _GossipDraws(blocked, 1)
    got = [draws.choice(50, 3) for _ in range(40)]
    assert got == [
        scalar.choice(50, size=3, replace=False).tolist() for _ in range(40)
    ]
    assert len(draws._halves) > 2
    draws.rewind()
    assert_same_state(blocked, scalar)


TWO_COUNTRIES = CloudLayout(
    countries=2, countries_per_continent=1, datacenters_per_country=1,
    rooms_per_datacenter=1, racks_per_room=2, servers_per_rack=3,
)


def test_loss_block_keeps_the_net_streams_buffered_half():
    """A cut pivot's ``integers`` leaves the ``net`` stream a buffered
    half; the rounds' loss blocks must neither read nor drop it."""
    config = NetConfig(
        loss=0.3,
        partitions=(NetPartition(0, 3, depth=2, asymmetric=True),),
    )
    seen = []
    for cls in (ReferenceGossipFabric, GossipFabric):
        cloud = build_cloud(TWO_COUNTRIES)
        gossip_rng, net_rng = twins(4, 0)[0], twins(5, 0)[0]
        net = NetworkModel(config, cloud, net_rng)
        fabric = cls(config, net, cloud, gossip_rng)
        fabric.register_initial(cloud.server_ids)
        net.begin_epoch(0)
        assert net_rng.bit_generator.state["has_uint32"] == 1
        for version in range(3):
            fabric.membership_round()
            fabric.publish_version(version)
            fabric.price_round()
        assert net_rng.bit_generator.state["has_uint32"] == 1
        seen.append((
            gossip_rng.bit_generator.state, net_rng.bit_generator.state,
            fabric._age.tolist(), fabric._ver.tolist(), net.stats.snapshot(),
        ))
    assert seen[1] == seen[0]
    assert seen[1][-1][HEARTBEAT][2] > 0, "no push was lost"


@pytest.mark.parametrize("stream", ["gossip", "net"])
def test_fabric_refuses_a_stream_that_is_not_pcg64(stream):
    rngs = {"gossip": np.random.default_rng(0),
            "net": np.random.default_rng(1),
            stream: np.random.Generator(np.random.MT19937(0))}
    cloud = build_cloud(TWO_COUNTRIES)
    net = NetworkModel(NetConfig(), cloud, rngs["net"])
    with pytest.raises(NetError, match=f"{stream} stream .* MT19937"):
        GossipFabric(NetConfig(), net, cloud, rngs["gossip"])


# -- the work-count fence ----------------------------------------------------


class Counted:
    """Forwards to a generator, counting every attribute read and write.

    Reading ``bit_generator`` hands out a counted bit generator, so one
    counter sees every call a stream receives.
    """

    def __init__(self, target, name: str, counts: Counter) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_counts", counts)

    def __getattr__(self, attr):
        self._counts[self._name] += 1
        value = getattr(self._target, attr)
        if attr == "bit_generator":
            return Counted(value, self._name, self._counts)
        return value

    def __setattr__(self, attr, value):
        self._counts[self._name] += 1
        setattr(self._target, attr, value)


def calls_per_round(servers_per_rack: int):
    """Generator calls per stream for each of six rounds, and pushes sent."""
    layout = CloudLayout(
        countries=2, countries_per_continent=1, datacenters_per_country=1,
        rooms_per_datacenter=1, racks_per_room=2,
        servers_per_rack=servers_per_rack,
    )
    config = NetConfig(
        loss=0.2,
        partitions=(NetPartition(0, 9, depth=2, asymmetric=True),),
        flaps=(LinkFlap(0, 9),),
    )
    cloud = build_cloud(layout)
    net = NetworkModel(config, cloud, np.random.default_rng(1))
    fabric = GossipFabric(config, net, cloud, np.random.default_rng(0))
    fabric.register_initial(cloud.server_ids)
    net.begin_epoch(0)
    counts: Counter = Counter()
    fabric._rng = Counted(fabric._rng, "gossip", counts)
    net._rng = Counted(net._rng, "net", counts)
    rounds = []
    for version in range(3):
        for run in (fabric.membership_round, fabric.price_round):
            fabric.publish_version(version)
            run()
            rounds.append(dict(counts))
            counts.clear()
    return rounds, net.stats.snapshot()[HEARTBEAT][0]


def test_a_round_makes_a_fixed_number_of_generator_calls():
    """One prefetch and one rewind per stream, whatever N and the push
    count: 7 ``gossip`` and 6 ``net`` attribute reads and writes."""
    small, small_sent = calls_per_round(2)
    large, large_sent = calls_per_round(12)
    assert large_sent > 4 * small_sent
    assert small == large == [{"gossip": 7, "net": 6}] * 6
