"""Unit tests for virtual rings: tiling, lookup, splits, the ring set."""

import pytest

from repro.ring.hashing import RING_SIZE, hash_key
from repro.ring.keyspace import covers_ring
from repro.ring.partition import PartitionId
from repro.ring.virtualring import (
    AvailabilityLevel,
    RingError,
    RingSet,
    VirtualRing,
    build_ring,
)

LEVEL = AvailabilityLevel(threshold=20.0, target_replicas=2)


class TestAvailabilityLevel:
    def test_validation(self):
        with pytest.raises(RingError):
            AvailabilityLevel(threshold=-1, target_replicas=2)
        with pytest.raises(RingError):
            AvailabilityLevel(threshold=0, target_replicas=0)


class TestBuildRing:
    def test_partition_count_and_tiling(self):
        ring = build_ring(0, 0, LEVEL, 16)
        assert len(ring) == 16
        ring.check_invariants()
        assert covers_ring([p.key_range for p in ring])

    def test_single_partition_ring(self):
        ring = build_ring(0, 0, LEVEL, 1)
        assert len(ring) == 1
        assert ring.partitions()[0].key_range.span == RING_SIZE

    def test_initial_size(self):
        ring = build_ring(0, 0, LEVEL, 4, initial_size=100,
                          partition_capacity=200)
        assert all(p.size == 100 for p in ring)
        assert ring.total_size == 400

    def test_initial_size_above_capacity_rejected(self):
        with pytest.raises(Exception):
            build_ring(0, 0, LEVEL, 4, initial_size=300,
                       partition_capacity=200)

    def test_invalid_partition_count(self):
        with pytest.raises(RingError):
            build_ring(0, 0, LEVEL, 0)


class TestLookup:
    def test_every_key_has_exactly_one_owner(self):
        ring = build_ring(0, 0, LEVEL, 8)
        for i in range(200):
            key = f"key-{i}"
            owner = ring.lookup(key)
            hits = [
                p for p in ring if p.key_range.contains_key(key)
            ]
            assert hits == [owner]

    def test_lookup_matches_brute_force(self):
        ring = build_ring(0, 0, LEVEL, 5)
        for i in range(100):
            position = hash_key(f"pos-{i}")
            owner = ring.lookup_position(position)
            assert owner.key_range.contains_position(position)

    def test_lookup_position_bounds(self):
        ring = build_ring(0, 0, LEVEL, 2)
        with pytest.raises(RingError):
            ring.lookup_position(RING_SIZE)

    def test_lookup_boundary_positions(self):
        ring = build_ring(0, 0, LEVEL, 4)
        for p in ring:
            # The end of an arc belongs to that arc.
            assert ring.lookup_position(p.key_range.end) is p


class TestSplits:
    def test_split_keeps_tiling(self):
        ring = build_ring(0, 0, LEVEL, 4, initial_size=90,
                          partition_capacity=100)
        victim = ring.partitions()[0]
        victim.grow(60)
        low, high = ring.split_partition(victim.pid)
        ring.check_invariants()
        assert len(ring) == 5
        assert victim.pid not in ring
        assert low.pid in ring and high.pid in ring

    def test_split_conserves_total_size(self):
        ring = build_ring(0, 0, LEVEL, 4, initial_size=90,
                          partition_capacity=100)
        for p in ring.partitions():
            p.grow(60)
        before = ring.total_size
        for p in ring.partitions():
            ring.split_partition(p.pid)
        assert ring.total_size == before
        assert all(not p.overfull for p in ring)

    def test_split_cascade_keeps_tiling_and_bytes(self):
        # Splitting a child again (an insert burst overfilling both
        # halves) keeps the ring tiled and every byte accounted.
        ring = build_ring(0, 0, LEVEL, 2, initial_size=90,
                          partition_capacity=100)
        victim = ring.partitions()[0]
        victim.grow(400)
        before = ring.total_size
        pending = [victim.pid]
        while pending:
            pid = pending.pop()
            if ring.partition(pid).overfull:
                pending.extend(p.pid for p in ring.split_partition(pid))
        ring.check_invariants()
        assert ring.total_size == before
        assert all(not p.overfull for p in ring)
        assert len(ring) == 1 + 8

    def test_split_conserves_popularity(self):
        ring = build_ring(0, 0, LEVEL, 2)
        victim = ring.partitions()[0]
        victim.popularity = 0.75
        low, high = ring.split_partition(victim.pid)
        assert low.popularity + high.popularity == 0.75

    def test_lookup_after_split_respects_children(self):
        ring = build_ring(0, 0, LEVEL, 4, initial_size=90,
                          partition_capacity=100)
        victim = ring.partitions()[0]
        low, high = ring.split_partition(victim.pid)
        mid_pos = low.key_range.end
        assert ring.lookup_position(mid_pos) is low

    def test_split_unknown_partition(self):
        ring = build_ring(0, 0, LEVEL, 2)
        with pytest.raises(RingError):
            ring.split_partition(PartitionId(9, 9, 9))

    def test_split_seqs_never_reused(self):
        ring = build_ring(0, 0, LEVEL, 3, initial_size=90,
                          partition_capacity=100)
        seen = {p.pid.seq for p in ring}
        for victim in ring.partitions():
            low, high = ring.split_partition(victim.pid)
            assert low.pid.seq not in seen
            assert high.pid.seq not in seen
            seen.update((low.pid.seq, high.pid.seq))


class TestRingSet:
    def test_add_and_lookup(self):
        rings = RingSet()
        rings.add_ring(0, 0, LEVEL, 4)
        rings.add_ring(0, 1, LEVEL, 2)
        rings.add_ring(1, 0, LEVEL, 3)
        assert len(rings) == 3
        assert len(rings.all_partitions()) == 9

    def test_duplicate_ring_rejected(self):
        rings = RingSet()
        rings.add_ring(0, 0, LEVEL, 4)
        with pytest.raises(RingError):
            rings.add_ring(0, 0, LEVEL, 4)

    def test_unknown_ring(self):
        with pytest.raises(RingError):
            RingSet().ring(5, 5)

    def test_partition_resolution(self):
        rings = RingSet()
        ring = rings.add_ring(2, 1, LEVEL, 4)
        pid = ring.partitions()[0].pid
        assert rings.partition(pid) is ring.partition(pid)
        assert rings.ring_of(pid) is ring

    def test_shared_allocator_keeps_ids_unique(self):
        rings = RingSet()
        a = rings.add_ring(0, 0, LEVEL, 4)
        b = rings.add_ring(0, 1, LEVEL, 4)
        pids = [p.pid for p in rings.all_partitions()]
        assert len(set(pids)) == len(pids)

    def test_total_size(self):
        rings = RingSet()
        rings.add_ring(0, 0, LEVEL, 4, initial_size=10)
        rings.add_ring(1, 0, LEVEL, 6, initial_size=5)
        assert rings.total_size == 70
