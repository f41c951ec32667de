"""Unit tests for the request router."""

import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.ring.partition import PartitionId
from repro.ring.router import Router, RoutingError
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.store.replica import ReplicaCatalog

LEVEL = AvailabilityLevel(threshold=1.0, target_replicas=2)


def routes_alive(router):
    """Remembered routes — bounded by partitions × client sites."""
    return sum(len(routes) for routes in router._route_memo.values())


def setup():
    """Two servers in different continents plus one colocated pair."""
    cloud = Cloud()
    cloud.add_servers([make_server(0, Location(0, 0, 0, 0, 0, 0),
                                   storage_capacity=10**9)])
    cloud.add_servers([make_server(1, Location(1, 0, 0, 0, 0, 0),
                                   storage_capacity=10**9)])
    cloud.add_servers([make_server(2, Location(0, 0, 0, 0, 0, 1),
                                   storage_capacity=10**9)])
    rings = RingSet()
    ring = rings.add_ring(0, 0, LEVEL, 4, initial_size=100)
    catalog = ReplicaCatalog(cloud)
    for p in ring:
        catalog.place(p, 0)
        catalog.place(p, 1)
    return cloud, rings, catalog, ring


class TestRoute:
    def test_route_resolves_to_replica_holder(self):
        cloud, rings, catalog, ring = setup()
        router = Router(cloud, rings, catalog)
        route = router.route(0, 0, "some-key")
        assert route.server_id in (0, 1)
        assert route.pid == ring.lookup("some-key").pid

    def test_route_prefers_close_replica(self):
        cloud, rings, catalog, __ = setup()
        router = Router(cloud, rings, catalog)
        client_in_continent_1 = Location(1, 0, 0, 0, 0, 5)
        route = router.route(0, 0, "k", client=client_in_continent_1)
        assert route.server_id == 1
        assert route.distance < 63

    def test_route_skips_dead_replicas(self):
        cloud, rings, catalog, __ = setup()
        cloud.server(1).fail()
        router = Router(cloud, rings, catalog)
        client = Location(1, 0, 0, 0, 0, 5)
        route = router.route(0, 0, "k", client=client)
        assert route.server_id == 0

    def test_route_no_live_replica(self):
        cloud, rings, catalog, __ = setup()
        cloud.server(0).fail()
        cloud.server(1).fail()
        router = Router(cloud, rings, catalog)
        with pytest.raises(RoutingError):
            router.route(0, 0, "k")

    def test_route_partition_unknown(self):
        cloud, rings, catalog, __ = setup()
        router = Router(cloud, rings, catalog)
        with pytest.raises(RoutingError):
            router.route_partition(PartitionId(9, 9, 9))


class TestTieBreak:
    """ISSUE 10 pin: equal-diversity ties go to the lowest server id."""

    def tie_setup(self, *, reversed_placement):
        # Servers 0 and 1 sit in different continents; a client in a
        # third continent sees both at diversity 63 — an exact tie.
        cloud = Cloud()
        cloud.add_servers([make_server(0, Location(0, 0, 0, 0, 0, 0),
                                       storage_capacity=10**9)])
        cloud.add_servers([make_server(1, Location(1, 0, 0, 0, 0, 0),
                                       storage_capacity=10**9)])
        rings = RingSet()
        ring = rings.add_ring(0, 0, LEVEL, 4, initial_size=100)
        catalog = ReplicaCatalog(cloud)
        order = (1, 0) if reversed_placement else (0, 1)
        for p in ring:
            for sid in order:
                catalog.place(p, sid)
        return cloud, rings, catalog, ring

    def test_exact_tie_routes_to_lowest_id(self):
        cloud, rings, catalog, ring = self.tie_setup(reversed_placement=False)
        router = Router(cloud, rings, catalog)
        client = Location(2, 0, 0, 0, 0, 0)
        route = router.route_partition(ring.partitions()[0].pid,
                                       client=client)
        assert route.distance == 63
        assert route.server_id == 0

    def test_tie_break_is_independent_of_catalog_order(self):
        # Same tie with the catalog built in reverse placement order:
        # the winner must not change.
        cloud, rings, catalog, ring = self.tie_setup(reversed_placement=True)
        router = Router(cloud, rings, catalog)
        pid = ring.partitions()[0].pid
        assert catalog.servers_of(pid) == [1, 0]
        route = router.route_partition(pid, client=Location(2, 0, 0, 0, 0, 0))
        assert route.server_id == 0

    def test_clientless_route_picks_lowest_id(self):
        cloud, rings, catalog, ring = self.tie_setup(reversed_placement=True)
        router = Router(cloud, rings, catalog)
        route = router.route_partition(ring.partitions()[0].pid)
        assert route.server_id == 0


class TestServingWindow:
    """ISSUE 24: inside a serving window ``route_partition`` remembers
    one Route per (partition, client); the three-part invalidation
    contract is on ``Router.serving_window``."""

    CLIENT = Location(1, 0, 0, 0, 0, 5)

    def windowed(self):
        cloud, rings, catalog, ring = setup()
        router = Router(cloud, rings, catalog)
        pid = ring.partitions()[0].pid
        with router.serving_window():
            first = router.route_partition(pid, client=self.CLIENT)
            assert router.route_partition(pid, client=self.CLIENT) is first
        assert (router.route_compiles, router.route_reuses) == (1, 1)
        return cloud, rings, catalog, ring, router, pid, first

    def reopened(self, router, pid):
        with router.serving_window():
            return router.route_partition(pid, client=self.CLIENT)

    def test_unchanged_oracle_state_keeps_routes_across_windows(self):
        *__, router, pid, first = self.windowed()
        assert self.reopened(router, pid) is first
        assert (router.route_compiles, router.route_reuses) == (1, 2)

    def test_replica_added_drops_the_partitions_routes(self):
        cloud, __, catalog, ring, router, pid, first = self.windowed()
        other = ring.partitions()[1].pid
        kept = self.reopened(router, other)
        catalog.place(ring.partition(pid), 2)
        route = self.reopened(router, pid)
        assert route is not first and route.replicas == (0, 1, 2)
        assert self.reopened(router, other) is kept

    def test_replica_removed_drops_the_partitions_routes(self):
        __, __, catalog, ring, router, pid, first = self.windowed()
        assert first.server_id == 1
        catalog.drop(ring.partition(pid), 1)
        route = self.reopened(router, pid)
        assert (route.server_id, route.replicas) == (0, (0,))

    def test_server_dropped_drops_every_lost_partitions_routes(self):
        cloud, __, catalog, ring, router, pid, first = self.windowed()
        cloud.remove_server(1)
        catalog.drop_server(1)
        assert routes_alive(router) == 0
        assert self.reopened(router, pid).replicas == (0,)

    def test_partition_split_drops_the_parents_routes(self):
        __, __, catalog, ring, router, pid, first = self.windowed()
        parent = ring.partition(pid)
        low, high = ring.split_partition(pid)
        catalog.split_partition(parent, low, high)
        assert routes_alive(router) == 0
        assert self.reopened(router, low.pid).replicas == (0, 1)

    def test_direct_call_outside_a_window_sees_a_kill_at_once(self):
        cloud, *__, router, pid, first = self.windowed()
        cloud.server(1).fail()
        route = router.route_partition(pid, client=self.CLIENT)
        assert route is not first and route.server_id == 0

    def test_fail_and_restore_move_the_oracle_stamp(self):
        cloud, *__, router, pid, first = self.windowed()
        cloud.server(1).fail()
        failed = self.reopened(router, pid)
        assert failed.server_id == 0
        cloud.server(1).restore()
        restored = self.reopened(router, pid)
        assert restored is not first and restored.server_id == 1

    def test_remembered_routing_error_clears_when_a_replica_returns(self):
        cloud, *__, router, pid, __ = self.windowed()
        cloud.server(0).fail()
        cloud.server(1).fail()
        with router.serving_window():
            for __ in range(2):
                with pytest.raises(RoutingError,
                                   match=f"no live replica for {pid}"):
                    router.route_partition(pid, client=self.CLIENT)
        assert (router.route_compiles, router.route_reuses) == (2, 2)
        cloud.server(0).restore()
        assert self.reopened(router, pid).server_id == 0

    def test_other_views_keep_routes_for_one_window_only(self):
        """A duck-typed view has no stamp to compare: whatever it
        believed last epoch, the next window asks again."""

        class Flipping:
            down = frozenset()

            def believed(self, sid):
                return sid not in self.down

        cloud, rings, catalog, ring = setup()
        view = Flipping()
        router = Router(cloud, rings, catalog, membership=view)
        pid = ring.partitions()[0].pid
        assert self.reopened(router, pid).server_id == 1
        view.down = frozenset({1})
        assert self.reopened(router, pid).server_id == 0
        assert router.route_compiles == 2 and router.route_reuses == 0

    def test_routes_of_one_order_share_it(self):
        """Two clients that contact the same replicas in the same order
        share one ContactOrder (and so one compiled read plan)."""
        *__, router, pid, first = self.windowed()
        with router.serving_window():
            twin = router.route_partition(
                pid, client=Location(1, 0, 0, 0, 1, 0)
            )
            far = router.route_partition(
                pid, client=Location(0, 0, 0, 0, 0, 5)
            )
        assert twin is not first and twin.order is first.order
        assert twin.replicas is first.replicas
        assert far.order is not first.order
        assert far.order.believed == (0, 1)
