"""Unit tests for the serving front end: costing, scheduling, frames.

The costing tests pin the quorum-path RTT model on a 3-continent
micro-cloud where every leg has a known diversity: client and
coordinator share a location (rtt 0.1 ms) and all replica fan-out legs
are cross-continent (rtt 120 ms), so a healthy ALL-level op costs
exactly 120.1 ms — any drift in coordinator-hop or slowest-leg math
moves that number.
"""

import numpy as np
import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.net.membership import OracleMembership
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.serve.frontend import ServingFrontEnd
from repro.sim.config import ServingConfig
from repro.sim.metrics import ServingFrame
from repro.store.quorum import Level, QuorumError
from repro.store.replica import ReplicaCatalog
from tests.ring.test_router import routes_alive


class StaleMembership:
    """A stale view: ``ghosts`` are believed live but never answer,
    ``suspects`` answer but are believed dead, ``cuts`` are one-way
    ``(src, dst)`` links that drop."""

    def __init__(self, cloud, ghosts=(), suspects=(), cuts=()):
        self._cloud = cloud
        self._ghosts = frozenset(ghosts)
        self._suspects = frozenset(suspects)
        self._cuts = frozenset(cuts)

    def believed(self, server_id):
        return server_id in self._cloud and server_id not in self._suspects

    def believed_ids(self):
        return [
            s.server_id for s in self._cloud
            if s.server_id not in self._suspects
        ]

    def responds(self, server_id):
        return server_id in self._cloud and server_id not in self._ghosts

    def reachable(self, src, dst):
        return (src, dst) not in self._cuts


def build(*, replicas=3, config=None, ghosts=None, suspects=(), cuts=(),
          seed=0):
    cloud = Cloud()
    for i in range(3):
        cloud.add_servers([
            make_server(i, Location(i, 0, 0, 0, 0, 0),
                        storage_capacity=10**9)
        ])
    rings = RingSet()
    ring = rings.add_ring(0, 0, AvailabilityLevel(1.0, replicas), 4,
                          initial_size=0)
    catalog = ReplicaCatalog(cloud)
    for p in ring:
        for sid in range(replicas):
            catalog.place(p, sid)
    membership = (
        OracleMembership(cloud) if ghosts is None
        else StaleMembership(cloud, ghosts, suspects, cuts)
    )
    if config is None:
        config = ServingConfig(
            level="all", requests_per_epoch=32, read_fraction=0.5,
            keyspace=8, workers=64,
        )
    front = ServingFrontEnd(
        config, cloud, rings, catalog, membership,
        rng=np.random.default_rng(seed),
        apps=[(0, 0)],
        sites=(Location(0, 0, 0, 0, 0, 0),),
    )
    return cloud, front


def served(front, epoch):
    """Step ``front`` through ``epoch``; return that epoch's frame."""
    front.step(epoch)
    return front.collect_serving_frame()


class TestCosting:
    def test_healthy_all_level_costs_two_hops(self):
        """Coordinator hop (0.1) + slowest cross-continent leg (120)."""
        __, front = build()
        frame = served(front,0)
        assert frame.requests == 32
        assert frame.read_failures == 0 and frame.write_failures == 0
        for name in ("read_p50_ms", "read_p99_ms", "read_p999_ms",
                     "write_p50_ms", "write_p99_ms", "write_p999_ms"):
            assert getattr(frame, name) == pytest.approx(120.1)
        assert frame.mean_queue_ms == 0.0

    def test_ghost_replica_costs_timeout_penalty(self):
        """A believed-live dead replica is waited out on the write path
        (writes fan to every believed replica: the slowest leg becomes
        the 250 ms penalty), while QUORUM reads stop at the first two
        healthy replicas and never touch the ghost."""
        config = ServingConfig(
            level="quorum", requests_per_epoch=32, read_fraction=0.5,
            keyspace=8, workers=64,
        )
        __, front = build(config=config, ghosts=(2,))
        frame = served(front,0)
        assert frame.read_failures == 0 and frame.write_failures == 0
        assert frame.read_p50_ms == pytest.approx(120.1)
        assert frame.write_p50_ms == pytest.approx(250.1)

    def test_failed_quorum_counts_failure_and_violation(self):
        """Two ghosts out of three kill the ALL quorum: every op fails,
        pays coordinator hop + penalty, and violates its SLA."""
        __, front = build(ghosts=(1, 2))
        frame = served(front,0)
        assert frame.read_failures == frame.reads
        assert frame.write_failures == frame.writes
        assert frame.sla_read_violations == frame.reads
        assert frame.sla_write_violations == frame.writes

    def test_single_worker_queues(self):
        """One executor serializes the epoch: queueing shows in both
        the mean wait and the latency tails."""
        config = ServingConfig(
            level="all", requests_per_epoch=32, read_fraction=0.5,
            keyspace=8, workers=1,
        )
        __, front = build(config=config)
        frame = served(front,0)
        assert frame.mean_queue_ms > 0.0
        assert frame.read_p999_ms > 120.1


class TestStep:
    def test_frames_are_deterministic(self):
        __, a = build(seed=5)
        __, b = build(seed=5)
        for epoch in range(4):
            assert served(a, epoch) == served(b, epoch)

    def test_frame_type_and_epoch(self):
        __, front = build()
        frame = served(front,3)
        assert isinstance(frame, ServingFrame)
        assert frame.epoch == 3
        assert frame.reads + frame.writes == frame.requests
        assert frame.requests_per_sec == pytest.approx(32.0)

    def test_serving_disabled_emits_empty_frames(self):
        __, front = build()
        front.serving_enabled = False
        frame = served(front,0)
        assert frame.requests == 0
        assert frame.read_p999_ms == 0.0
        assert front.frontier.tally.operations == 0

    def test_zero_rate_builds_no_loadgen(self):
        config = ServingConfig(requests_per_epoch=0)
        __, front = build(config=config)
        assert front.loadgen is None
        assert served(front,0).requests == 0

    def test_acked_writes_survive(self):
        __, front = build()
        for epoch in range(3):
            front.step(epoch)
        assert front.frontier.tally.operations == 96
        assert front.lost_writes() == []


class TestResolveOnce:
    """ISSUE 14: the front door resolves a request once and hands the
    Route to the store; that must be the public path, minus the rework.
    """

    MEMBERSHIPS = {
        "healthy": dict(ghosts=()),
        "ghost": dict(ghosts=(2,)),
        "false-suspect": dict(ghosts=(), suspects=(1,)),
        "cut-link": dict(ghosts=(), cuts=((0, 1), (1, 2))),
    }

    @pytest.mark.parametrize("level", list(Level))
    @pytest.mark.parametrize("faults", sorted(MEMBERSHIPS))
    def test_routed_ops_equal_public_ops(self, faults, level):
        """Same result object (or error) and same stats deltas, op by op."""
        __, public = build(**self.MEMBERSHIPS[faults])
        __, routed = build(**self.MEMBERSHIPS[faults])
        clients = (
            None, Location(0, 0, 0, 0, 0, 0), Location(1, 0, 0, 0, 0, 7),
            Location(2, 0, 0, 0, 0, 0),
        )
        ops = 0
        for round_ in range(3):
            for i, key in enumerate(routed.loadgen.keys):
                client = clients[(i + round_) % len(clients)]
                value = None if (i + round_) % 3 else b"v%d-%d" % (round_, i)
                outcomes = []
                for front, pass_route in ((public, False), (routed, True)):
                    kwargs = dict(level=level, client=client)
                    if pass_route:
                        kwargs["route"] = front.router.route_partition(
                            front.router.partition_of(0, 0, key).pid,
                            client=client,
                        )
                    store = front.store
                    try:
                        if value is None:
                            outcomes.append(store.get(0, 0, key, **kwargs))
                        else:
                            outcomes.append(
                                store.put(0, 0, key, value, **kwargs)
                            )
                    except QuorumError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (faults, level, key)
                assert (public.store.stats.as_dict()
                        == routed.store.stats.as_dict())
                assert (public.store.stats.level_rows()
                        == routed.store.stats.level_rows())
                ops += 1
        assert ops == 24
        assert public.hints.depth == routed.hints.depth
        stats = routed.store.stats
        if faults == "ghost":
            assert stats.replica_timeouts > 0
        if faults == "false-suspect":
            assert stats.suspects_skipped > 0
        if faults == "cut-link":
            assert stats.replica_unreachable > 0

    def test_route_carries_the_walk_it_paid_for(self):
        __, front = build(ghosts=(), suspects=(1,))
        pid = front.router.partition_of(0, 0, b"k").pid
        route = front.router.route_partition(
            pid, client=Location(2, 0, 0, 0, 0, 0)
        )
        assert route.replicas == (0, 2) and route.distances == (63, 0)
        assert (route.server_id, route.distance) == (2, 0)
        assert front.router.route_partition(pid).distances is None


class TestCoordinatorTie:
    """The Router's coordinator and the store's first contact differ at
    an exact tie — and the front door costs fan-out legs from the
    Router's.  Resolve-once shares the walk, not the tie-break.
    """

    def build_tie(self, level):
        # Replicas on 1 then 0 (catalog order), in two continents; the
        # client sits in a third, so both are at diversity 63.
        cloud = Cloud()
        for i in range(2):
            cloud.add_servers([make_server(
                i, Location(i, 0, 0, 0, 0, 0), storage_capacity=10**9
            )])
        rings = RingSet()
        ring = rings.add_ring(0, 0, AvailabilityLevel(1.0, 2), 4,
                              initial_size=0)
        catalog = ReplicaCatalog(cloud)
        for p in ring:
            catalog.place(p, 1)
            catalog.place(p, 0)
        config = ServingConfig(
            level=level, requests_per_epoch=32, read_fraction=0.5,
            keyspace=8, workers=64,
        )
        return ServingFrontEnd(
            config, cloud, rings, catalog, OracleMembership(cloud),
            rng=np.random.default_rng(0), apps=[(0, 0)],
            sites=(Location(2, 0, 0, 0, 0, 0),),
        )

    def test_router_takes_lowest_id_store_keeps_catalog_order(self):
        front = self.build_tie("one")
        client = Location(2, 0, 0, 0, 0, 0)
        pid = front.router.partition_of(0, 0, b"k").pid
        route = front.router.route_partition(pid, client=client)
        assert route.replicas == (1, 0) and route.distances == (63, 63)
        assert route.server_id == 0
        for kwargs in (dict(), dict(route=route)):
            read = front.store.get(0, 0, b"k", level=Level.ONE,
                                   client=client, **kwargs)
            assert read.attempts == ((1, "ok"),)
            write = front.store.put(0, 0, b"k", b"v", level=Level.ONE,
                                    client=client, **kwargs)
            assert write.attempts == ((1, "ok"), (0, "ok"))

    def test_fan_out_is_costed_from_the_routers_coordinator(self):
        """A ONE-level read contacts only server 1; costed from the
        Router's coordinator (server 0) that leg is cross-continent
        (120 + 120 ms).  Costed from the store's own first contact it
        would be a local 0.1 ms leg."""
        frame = served(self.build_tie("one"), 0)
        assert frame.reads > 0 and frame.read_failures == 0
        assert frame.read_p50_ms == pytest.approx(240.0)
        assert frame.read_p999_ms == pytest.approx(240.0)


class TestServingWindow:
    """ISSUE 24: ``step`` opens a serving window around ``_serve``; what
    the Router remembered in one epoch must not leak into an epoch whose
    membership moved (contract on ``Router.serving_window``)."""

    def test_fail_and_restore_under_the_oracle_between_steps(self):
        cloud, front = build()  # level ALL, replicas on 0, 1, 2
        assert served(front,0).read_failures == 0
        compiled = front.router.route_compiles
        assert served(front,1).read_failures == 0
        assert front.router.route_compiles == compiled  # all reused
        cloud.server(2).fail()
        frame = served(front,2)
        assert frame.read_failures == frame.reads > 0
        cloud.server(2).restore()
        frame = served(front,3)
        assert frame.read_failures == frame.write_failures == 0

    def test_belief_flip_under_the_membership_service(self):
        from repro.net.membership import MembershipService
        from repro.net.model import NetConfig
        from repro.sim.seeds import RngStreams

        cloud, seeded = build()
        service = MembershipService(NetConfig(loss=0.01), cloud,
                                    RngStreams(0))
        front = ServingFrontEnd(
            seeded.config, cloud, seeded.store._rings, seeded.store._catalog,
            service, rng=np.random.default_rng(0), apps=[(0, 0)],
            sites=(Location(0, 0, 0, 0, 0, 0),),
        )
        assert served(front,0).read_failures == 0
        assert front.store.stats.suspects_skipped == 0
        service._suspected.add(1)  # a false suspect: alive, believed dead
        frame = served(front,1)
        assert frame.read_failures == frame.reads > 0
        assert front.store.stats.suspects_skipped >= frame.requests
        service._suspected.discard(1)
        assert served(front,2).read_failures == 0
        # One window each: nothing compiled in epoch 0 was handed out
        # again in epoch 2.
        assert routes_alive(front.router) <= 4

    def test_memo_is_bounded_by_partitions_times_sites(self):
        sites = tuple(Location(i, 0, 0, 0, 0, 3) for i in range(3))
        cloud, seeded = build()
        front = ServingFrontEnd(
            seeded.config, cloud, seeded.store._rings, seeded.store._catalog,
            OracleMembership(cloud), rng=np.random.default_rng(1),
            apps=[(0, 0)], sites=sites,
        )
        for epoch in range(40):
            front.step(epoch)
            if epoch % 9 == 4:
                cloud.server(epoch % 3).fail()
            elif epoch % 9 == 7:
                cloud.server((epoch - 3) % 3).restore()
        router = front.router
        assert 0 < routes_alive(router) <= 4 * len(sites)
        assert router.route_compiles + router.route_reuses == 40 * 32
        assert router.route_reuses > router.route_compiles

    def test_batched_percentiles_equal_the_three_scalar_calls(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 10, 101, 1000):
            arr = rng.exponential(100.0, size=n)
            batched = np.percentile(arr, [50, 99, 99.9]).tolist()
            assert batched == [
                float(np.percentile(arr, q)) for q in (50, 99, 99.9)
            ]
