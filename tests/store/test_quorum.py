"""Tests for the quorum store: levels, staleness, read repair."""

import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.ring.hashing import key_bytes
from repro.ring.router import Router
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.store.quorum import (
    Level,
    QuorumError,
    QuorumKVStore,
    Versioned,
)
from repro.store.replica import ReplicaCatalog


def replica_version(store, app_id, ring_id, key, server_id):
    """The version one replica holds (-1 when it has no copy)."""
    pid = store._route(app_id, ring_id, key)
    copy = store._copy(server_id, pid).get(key_bytes(key))
    return copy.version if copy is not None else -1


def setup(replicas=3):
    cloud, __, __, store = setup_with_catalog(replicas)
    return cloud, store


def setup_with_catalog(replicas=3, **store_kw):
    cloud = Cloud()
    for i in range(4):
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
    store = QuorumKVStore(cloud, rings, catalog, **store_kw)
    return cloud, rings, catalog, store


class TestLevels:
    def test_required_counts(self):
        assert Level.ONE.required(3) == 1
        assert Level.QUORUM.required(3) == 2
        assert Level.QUORUM.required(4) == 3
        assert Level.ALL.required(3) == 3
        assert Level.QUORUM.required(0) == 1


class TestHappyPath:
    def test_write_then_read(self):
        __, store = setup()
        result = store.put(0, 0, "k", b"v1")
        assert len(result.acked) == 3
        assert result.missed == ()
        read = store.get(0, 0, "k")
        assert read.value == b"v1"
        assert read.version == result.version

    def test_versions_increase(self):
        __, store = setup()
        v1 = store.put(0, 0, "k", b"a").version
        v2 = store.put(0, 0, "k", b"b").version
        assert v2 > v1
        assert store.get(0, 0, "k").value == b"b"

    def test_missing_key(self):
        __, store = setup()
        read = store.get(0, 0, "nope")
        assert not read.found
        assert read.value is None

    def test_non_bytes_rejected(self):
        __, store = setup()
        with pytest.raises(TypeError):
            store.put(0, 0, "k", "str")


    def test_int_and_bytes_keys(self):
        __, store = setup()
        store.put(0, 0, 42, b"int-key")
        store.put(0, 0, b"raw", b"bytes-key")
        assert store.get(0, 0, 42).value == b"int-key"
        assert store.get(0, 0, b"raw").value == b"bytes-key"

    def test_str_key_is_its_utf8_bytes(self):
        __, store = setup()
        store.put(0, 0, "k\u00e9", b"v")
        assert store.get(0, 0, "k\u00e9".encode("utf-8")).value == b"v"


class TestRouting:
    def test_one_read_contacts_the_closest_replica(self):
        __, store = setup()
        store.put(0, 0, "k", b"v", level=Level.ALL)
        client = Location(1, 0, 9, 9, 9, 9)  # continent 1 -> server 1
        read = store.get(0, 0, "k", level=Level.ONE, client=client)
        assert read.contacted == (1,)
        assert read.value == b"v"

    def test_handed_route_reads_like_a_routeless_call(self):
        cloud, rings, catalog, __ = setup_with_catalog()
        router = Router(cloud, rings, catalog)
        store = QuorumKVStore(cloud, rings, catalog, router=router)
        store.put(0, 0, "k", b"v")
        client = Location(2, 0, 0, 0, 0, 1)
        pid = rings.ring(0, 0).lookup("k").pid
        route = router.route_partition(pid, client=client)
        assert route.server_id == 2
        routed = store.get(0, 0, "k", level=Level.ONE, route=route)
        plain = store.get(0, 0, "k", level=Level.ONE, client=client)
        assert routed == plain
        assert routed.contacted == (route.server_id,)


class TestStalenessAndRepair:
    def test_dead_replica_misses_write(self):
        cloud, store = setup()
        store.put(0, 0, "k", b"v1", level=Level.ALL)
        cloud.server(2).fail()
        result = store.put(0, 0, "k", b"v2", level=Level.QUORUM)
        assert 2 not in result.acked
        cloud.server(2).restore()
        assert store.divergence(0, 0, "k") > 0

    def test_quorum_read_sees_fresh_after_partial_write(self):
        """R + W > N: a QUORUM read must overlap the QUORUM write."""
        cloud, store = setup()
        store.put(0, 0, "k", b"old", level=Level.ALL)
        cloud.server(2).fail()
        store.put(0, 0, "k", b"new", level=Level.QUORUM)
        cloud.server(2).restore()
        read = store.get(0, 0, "k", level=Level.QUORUM)
        assert read.value == b"new"

    def test_one_read_may_be_stale(self):
        cloud, store = setup()
        store.put(0, 0, "k", b"old", level=Level.ALL)
        cloud.server(0).fail()
        cloud.server(1).fail()
        store.put(0, 0, "k", b"new", level=Level.ONE)  # only server 2
        cloud.server(0).restore()
        cloud.server(1).restore()
        # A ONE read routed to a stale replica returns the old value.
        client_near_0 = Location(0, 0, 0, 0, 0, 5)
        read = store.get(0, 0, "k", level=Level.ONE, client=client_near_0)
        assert read.value == b"old"

    def test_read_repair_fixes_stale_copies(self):
        cloud, store = setup()
        store.put(0, 0, "k", b"old", level=Level.ALL)
        cloud.server(2).fail()
        store.put(0, 0, "k", b"new")
        cloud.server(2).restore()
        read = store.get(0, 0, "k", level=Level.ALL)
        assert read.value == b"new"
        assert 2 in read.stale_replicas
        assert store.divergence(0, 0, "k") == 0  # repaired


class TestQuorumFailures:
    def test_write_quorum_unreachable(self):
        cloud, store = setup()
        cloud.server(0).fail()
        cloud.server(1).fail()
        with pytest.raises(QuorumError):
            store.put(0, 0, "k", b"v", level=Level.QUORUM)

    def test_one_still_works_with_single_survivor(self):
        cloud, store = setup()
        cloud.server(0).fail()
        cloud.server(1).fail()
        result = store.put(0, 0, "k", b"v", level=Level.ONE)
        assert result.acked == (2,)

    def test_all_fails_with_any_dead_replica(self):
        cloud, store = setup()
        cloud.server(1).fail()
        with pytest.raises(QuorumError):
            store.put(0, 0, "k", b"v", level=Level.ALL)


    def test_read_with_every_replica_dead(self):
        cloud, store = setup()
        store.put(0, 0, "k", b"v")
        for sid in (0, 1, 2):
            cloud.server(sid).fail()
        with pytest.raises(QuorumError):
            store.get(0, 0, "k", level=Level.ONE)
        assert store.stats.read_failures == 1
        assert store.stats.reads == 0

    def test_partition_without_replicas_cannot_be_read(self):
        __, rings, catalog, store = setup_with_catalog()
        store.put(0, 0, "k", b"v")
        partition = rings.ring(0, 0).lookup("k")
        for sid in catalog.servers_of(partition.pid):
            catalog.drop(partition, sid)
        with pytest.raises(QuorumError):
            store.get(0, 0, "k", level=Level.ONE)


class TestCatalogSplit:
    """With ``track_catalog`` the copies follow a partition split."""

    def split_all(self, rings, catalog):
        ring = rings.ring(0, 0)
        for parent in ring.partitions():
            low, high = ring.split_partition(parent.pid)
            catalog.split_partition(parent, low, high)
        ring.check_invariants()

    def test_every_key_readable_after_split(self):
        __, rings, catalog, store = setup_with_catalog(track_catalog=True)
        keys = [f"key-{i}" for i in range(40)]
        for k in keys:
            store.put(0, 0, k, k.encode())
        self.split_all(rings, catalog)
        assert len(rings.ring(0, 0)) == 8
        for k in keys:
            read = store.get(0, 0, k, level=Level.ALL)
            assert read.value == k.encode()
            assert read.stale_replicas == ()

    def test_copies_land_in_the_owning_child(self):
        __, rings, catalog, store = setup_with_catalog(track_catalog=True)
        store.put(0, 0, "k", b"v")
        self.split_all(rings, catalog)
        for sid in (0, 1, 2):
            assert replica_version(store, 0, 0, "k", sid) == 1
        assert store.divergence(0, 0, "k") == 0

    def test_versions_continue_across_a_split(self):
        __, rings, catalog, store = setup_with_catalog(track_catalog=True)
        first = store.put(0, 0, "k", b"a").version
        self.split_all(rings, catalog)
        second = store.put(0, 0, "k", b"b").version
        assert second == first + 1
        assert store.get(0, 0, "k").value == b"b"


class TestDelete:
    def test_tombstone_hides_value(self):
        __, store = setup()
        store.put(0, 0, "k", b"v")
        store.delete(0, 0, "k")
        read = store.get(0, 0, "k")
        assert not read.found
        assert read.version > 0  # the tombstone is versioned

    def test_delete_reaches_every_replica(self):
        __, store = setup()
        store.put(0, 0, "k", b"v")
        tombstone = store.delete(0, 0, "k", level=Level.ALL)
        for sid in (0, 1, 2):
            assert replica_version(store, 0, 0, "k", sid) == tombstone.version
        assert not store.get(0, 0, "k", level=Level.ONE).found

    def test_write_after_delete_resurrects(self):
        __, store = setup()
        store.put(0, 0, "k", b"v1")
        store.delete(0, 0, "k")
        store.put(0, 0, "k", b"v2")
        assert store.get(0, 0, "k").value == b"v2"


class TestIntrospection:
    def test_put_lands_only_on_replicas(self):
        cloud, store = setup()
        store.put(0, 0, "k", b"v")
        assert replica_version(store, 0, 0, "k", 0) == 1
        assert replica_version(store, 0, 0, "k", 3) == -1  # not a replica

    def test_versioned_tombstone_flag(self):
        assert Versioned(value=None, version=1).is_tombstone
        assert not Versioned(value=b"x", version=1).is_tombstone
