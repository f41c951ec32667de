"""Unit tests for the replica catalog and its accounting invariants."""

import pytest

from repro.cluster.location import Location
from repro.cluster.server import CapacityError, make_server
from repro.cluster.topology import Cloud
from repro.ring.keyspace import KeyRange
from repro.ring.partition import Partition, PartitionId
from repro.store.replica import ReplicaCatalog, ReplicaError


def cloud_of(n=4, storage=1000):
    cloud = Cloud()
    for i in range(n):
        cloud.add_server(
            make_server(i, Location(i, 0, 0, 0, 0, 0),
                        storage_capacity=storage)
        )
    return cloud


def part(seq=0, size=100, capacity=10_000):
    return Partition(
        pid=PartitionId(0, 0, seq),
        key_range=KeyRange(seq * 1000, seq * 1000 + 500),
        size=size,
        capacity=capacity,
    )


class TestPlaceDrop:
    def test_place_accounts_storage(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        p = part(size=100)
        catalog.place(p, 0)
        assert cloud.server(0).storage_used == 100
        assert catalog.servers_of(p.pid) == [0]
        assert catalog.vnode_count(0) == 1

    def test_duplicate_replica_rejected(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        p = part()
        catalog.place(p, 0)
        with pytest.raises(ReplicaError):
            catalog.place(p, 0)

    def test_place_on_full_server(self):
        cloud = cloud_of(storage=50)
        catalog = ReplicaCatalog(cloud)
        with pytest.raises(CapacityError):
            catalog.place(part(size=100), 0)

    def test_drop_frees_storage(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        p = part(size=100)
        catalog.place(p, 0)
        catalog.drop(p, 0)
        assert cloud.server(0).storage_used == 0
        assert catalog.replica_count(p.pid) == 0

    def test_drop_missing(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        with pytest.raises(ReplicaError):
            catalog.drop(part(), 0)

    def test_move(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        p = part(size=100)
        catalog.place(p, 0)
        catalog.move(p, 0, 1)
        assert catalog.servers_of(p.pid) == [1]
        assert cloud.server(0).storage_used == 0
        assert cloud.server(1).storage_used == 100

    def test_total_replicas(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        a, b = part(0), part(1)
        catalog.place(a, 0)
        catalog.place(a, 1)
        catalog.place(b, 2)
        assert catalog.total_replicas == 3
        assert sorted(catalog.partitions()) == [a.pid, b.pid]


class TestGrow:
    def test_grow_replicas_touches_every_server(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        p = part(size=100)
        catalog.place(p, 0)
        catalog.place(p, 1)
        catalog.grow_replicas(p.pid, 50)
        assert cloud.server(0).storage_used == 150
        assert cloud.server(1).storage_used == 150

    def test_can_grow_replicas(self):
        cloud = cloud_of(storage=200)
        catalog = ReplicaCatalog(cloud)
        p = part(size=100)
        catalog.place(p, 0)
        catalog.place(p, 1)
        assert catalog.can_grow_replicas(p.pid, 100)
        assert not catalog.can_grow_replicas(p.pid, 101)

    def test_can_grow_without_replicas_is_false(self):
        catalog = ReplicaCatalog(cloud_of())
        assert not catalog.can_grow_replicas(PartitionId(0, 0, 0), 1)


class TestDropServer:
    def test_drop_server_loses_its_replicas(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        a, b = part(0), part(1)
        catalog.place(a, 0)
        catalog.place(a, 1)
        catalog.place(b, 0)
        lost = catalog.drop_server(0)
        assert sorted(lost) == [a.pid, b.pid]
        assert catalog.servers_of(a.pid) == [1]
        assert catalog.replica_count(b.pid) == 0

    def test_drop_server_without_replicas(self):
        catalog = ReplicaCatalog(cloud_of())
        assert catalog.drop_server(3) == []


class TestSplit:
    def test_split_rehomes_every_replica(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        parent = part(0, size=100)
        catalog.place(parent, 0)
        catalog.place(parent, 1)
        low, high = parent.split(10, 11, low_share=0.4)
        catalog.split_partition(parent, low, high)
        assert catalog.servers_of(low.pid) == [0, 1]
        assert catalog.servers_of(high.pid) == [0, 1]
        assert catalog.replica_count(parent.pid) == 0
        # Byte conservation on each server.
        assert cloud.server(0).storage_used == 100
        assert cloud.server(1).storage_used == 100

    def test_split_with_a_replica_on_a_ghost(self):
        # A killed-but-undetected host still holds catalog replicas.
        # Its bytes died with it: the split re-homes its index entries
        # and touches no storage on it (allocate_storage used to raise
        # CapacityError "server 1 is down" out of Simulation.step).
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        parent = part(0, size=100)
        catalog.place(parent, 0)
        catalog.place(parent, 1)
        cloud.server(1).fail()
        parent.grow(40)
        catalog.grow_replicas(parent.pid, 40)  # the ghost misses the write
        low, high = parent.split(10, 11, low_share=0.4)
        catalog.split_partition(parent, low, high)
        assert catalog.servers_of(low.pid) == [0, 1]
        assert catalog.servers_of(high.pid) == [0, 1]
        assert cloud.server(0).storage_used == 140
        assert cloud.server(1).storage_used == 100
        catalog.check_consistency({low.pid: low, high.pid: high})
        assert catalog.drop_server(1) == [low.pid, high.pid]

    def test_split_without_replicas_rejected(self):
        catalog = ReplicaCatalog(cloud_of())
        parent = part(0, size=100)
        low, high = parent.split(1, 2)
        with pytest.raises(ReplicaError):
            catalog.split_partition(parent, low, high)


class TestConsistency:
    def test_check_consistency_passes(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        a, b = part(0, size=10), part(1, size=20)
        catalog.place(a, 0)
        catalog.place(a, 1)
        catalog.place(b, 1)
        catalog.check_consistency({a.pid: a, b.pid: b})

    def test_check_consistency_detects_byte_drift(self):
        cloud = cloud_of()
        catalog = ReplicaCatalog(cloud)
        a = part(0, size=10)
        catalog.place(a, 0)
        cloud.server(0).allocate_storage(5)  # out-of-band mutation
        with pytest.raises(ReplicaError):
            catalog.check_consistency({a.pid: a})
