"""Property tests for the incremental eq. 2 availability index.

The index must track the scalar :func:`availability` bit-for-bit
through arbitrary catalog mutation sequences — replication, suicide,
migration, splits and server deaths — because the decision engine's
threshold comparisons branch on the exact float.
"""

import numpy as np
import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.availability import (
    AvailabilityIndex,
    availability,
    availability_without,
)
from repro.ring.keyspace import KeyRange
from repro.ring.partition import Partition, PartitionId
from repro.ring.hashing import RING_SIZE


def build_cloud(n=12):
    cloud = Cloud()
    for i in range(n):
        cloud.add_server(
            make_server(
                i,
                Location(i % 4, i % 2, 0, 0, i % 3, i),
                storage_capacity=10_000_000,
            )
        )
    return cloud


def make_partition(seq, size=100):
    step = RING_SIZE // 64
    return Partition(
        pid=PartitionId(0, 0, seq),
        key_range=KeyRange(start=(seq * step) % RING_SIZE,
                           end=((seq + 1) * step) % RING_SIZE),
        size=size,
        capacity=10_000,
    )


class TestIncrementalMatchesScalar:
    def test_random_mutation_sequence(self):
        from repro.store.replica import ReplicaCatalog

        rng = np.random.default_rng(7)
        cloud = build_cloud()
        catalog = ReplicaCatalog(cloud)
        index = AvailabilityIndex(cloud, catalog)
        partitions = {p.pid: p for p in (make_partition(s) for s in range(6))}
        for pid, part in partitions.items():
            catalog.place(part, int(rng.integers(len(cloud))) if False else 0)
        # Spread initial replicas deterministically off server 0 too.
        for step in range(300):
            pid = list(partitions)[int(rng.integers(len(partitions)))]
            part = partitions[pid]
            held = catalog.servers_of(pid)
            free = [s.server_id for s in cloud
                    if s.server_id not in held]
            action = rng.integers(4)
            if action == 0 and free:
                catalog.place(part, free[int(rng.integers(len(free)))])
            elif action == 1 and len(held) > 1:
                catalog.drop(part, held[int(rng.integers(len(held)))])
            elif action == 2 and held and free:
                catalog.move(
                    part,
                    held[int(rng.integers(len(held)))],
                    free[int(rng.integers(len(free)))],
                )
            for check_pid in partitions:
                scalar = availability(
                    cloud, catalog.servers_of(check_pid)
                )
                assert index.availability_of(check_pid) == scalar

    def test_server_death_recomputes_survivors(self):
        from repro.store.replica import ReplicaCatalog

        cloud = build_cloud(6)
        catalog = ReplicaCatalog(cloud)
        index = AvailabilityIndex(cloud, catalog)
        part = make_partition(0)
        for sid in (0, 2, 4, 5):
            catalog.place(part, sid)
        cloud.remove_server(2)
        catalog.drop_server(2)
        scalar = availability(cloud, catalog.servers_of(part.pid))
        assert index.availability_of(part.pid) == scalar
        assert scalar > 0.0

    def test_split_transfers_value_to_children(self):
        from repro.store.replica import ReplicaCatalog

        cloud = build_cloud(6)
        catalog = ReplicaCatalog(cloud)
        index = AvailabilityIndex(cloud, catalog)
        parent = make_partition(0, size=1000)
        for sid in (0, 3, 5):
            catalog.place(parent, sid)
        before = index.availability_of(parent.pid)
        low, high = parent.split(1, 2)
        catalog.split_partition(parent, low, high)
        assert index.availability_of(parent.pid) == 0.0
        assert index.availability_of(low.pid) == before
        assert index.availability_of(high.pid) == before

    def test_contribution_equals_suicide_delta(self):
        from repro.store.replica import ReplicaCatalog

        cloud = build_cloud(8)
        catalog = ReplicaCatalog(cloud)
        index = AvailabilityIndex(cloud, catalog)
        part = make_partition(0)
        servers = [0, 1, 4, 6, 7]
        for sid in servers:
            catalog.place(part, sid)
        for sid in servers:
            remaining = (
                index.availability_of(part.pid)
                - index.contribution(part.pid, sid, servers)
            )
            assert remaining == availability_without(cloud, servers, sid)

    def test_contribution_memo_invalidated_by_mutation(self):
        from repro.store.replica import ReplicaCatalog

        cloud = build_cloud(8)
        catalog = ReplicaCatalog(cloud)
        index = AvailabilityIndex(cloud, catalog)
        part = make_partition(0)
        for sid in (0, 1, 4):
            catalog.place(part, sid)
        first = index.contribution(part.pid, 0, catalog.servers_of(part.pid))
        catalog.place(part, 6)
        servers = catalog.servers_of(part.pid)
        second = index.contribution(part.pid, 0, servers)
        assert second == availability(cloud, servers) - availability_without(
            cloud, servers, 0
        )
        assert second != first

    def test_late_bind_bootstraps_existing_state(self):
        from repro.store.replica import ReplicaCatalog

        cloud = build_cloud(6)
        catalog = ReplicaCatalog(cloud)
        part = make_partition(0)
        for sid in (1, 3, 5):
            catalog.place(part, sid)
        index = AvailabilityIndex(cloud, catalog)
        assert index.availability_of(part.pid) == availability(
            cloud, (1, 3, 5)
        )


class TestFlatView:
    def test_flat_view_mirrors_catalog_and_caches(self):
        from repro.store.replica import ReplicaCatalog

        cloud = build_cloud(6)
        catalog = ReplicaCatalog(cloud)
        parts = [make_partition(s) for s in range(3)]
        for i, part in enumerate(parts):
            for sid in range(i + 1):
                catalog.place(part, sid)
        view = catalog.flat_view()
        assert view is catalog.flat_view()  # cached until mutation
        assert list(view.pids) == catalog.partitions()
        for i, pid in enumerate(view.pids):
            lo, hi = view.offsets[i], view.offsets[i + 1]
            assert list(view.server_ids[lo:hi]) == catalog.servers_of(pid)
        catalog.place(parts[0], 5)
        assert catalog.flat_view() is not view
