"""Unit tests for virtual rings: tiling, lookup, splits, the ring set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ring.hashing import RING_SIZE, hash_key
from repro.ring.keyspace import covers_ring
from repro.ring.partition import PartitionId, PartitionIndex
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
                p for p in ring if p.key_range.contains_position(hash_key(key))
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
        assert len(rings.layout().partitions) == 9

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
        pids = [p.pid for p in rings.layout().partitions]
        assert len(set(pids)) == len(pids)

    def test_total_size(self):
        rings = RingSet()
        rings.add_ring(0, 0, LEVEL, 4, initial_size=10)
        rings.add_ring(1, 0, LEVEL, 6, initial_size=5)
        assert rings.total_size == 70


def fresh_walk(rings, index):
    """Every layout field, recomputed by walking the rings directly."""
    walk = [(ring, p) for ring in rings for p in ring]
    app_pids, app_slots = {}, {}
    for ring in rings:
        pids = [p.pid for p in ring]
        app_pids.setdefault(ring.app_id, []).extend(pids)
        app_slots.setdefault(ring.app_id, []).extend(
            index.get(pid) for pid in pids
        )
    thr = np.full(len(index), np.inf)
    for ring, p in walk:
        thr[index.get(p.pid)] = ring.level.threshold
    return {
        "partitions": [p for __, p in walk],
        "pids": [p.pid for __, p in walk],
        "slots": [index.get(p.pid) for __, p in walk],
        "rings": [
            ((r.app_id, r.ring_id), [p.pid for p in r],
             [index.get(p.pid) for p in r])
            for r in rings
        ],
        "apps": app_pids,
        "app_slots": app_slots,
        "work": [(p, ring.level.threshold) for ring, p in walk],
        "threshold_by_slot": thr.tolist(),
    }


def layout_fields(layout):
    return {
        "partitions": list(layout.partitions),
        "pids": layout.pids,
        "slots": layout.slots.tolist(),
        "rings": [
            (key, pids, slots.tolist()) for key, pids, slots in layout.rings
        ],
        "apps": layout.apps,
        "app_slots": {a: s.tolist() for a, s in layout.app_slots.items()},
        "work": layout.work,
        "threshold_by_slot": layout.threshold_by_slot.tolist(),
    }


def indexed_ring_set():
    """Three rings over two apps, every partition already slotted (the
    engine's seeding does this before any layout read)."""
    rings = RingSet()
    rings.add_ring(0, 0, AvailabilityLevel(20.0, 2), 3)
    rings.add_ring(1, 0, AvailabilityLevel(60.0, 3), 2)
    rings.add_ring(0, 1, AvailabilityLevel(90.0, 4), 2)
    index = PartitionIndex()
    index.slots_of(p.pid for p in rings.layout().partitions)
    rings.use_partition_index(index)
    return rings, index


class TestRingLayout:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 20)),
                 max_size=10),
        st.integers(0, 10),
    )
    def test_layout_is_a_fresh_walk_after_every_change(self, splits,
                                                       swap_at):
        rings, index = indexed_ring_set()
        ring_list = list(rings)
        for step in range(len(splits) + 1):
            if step == swap_at:
                ring_list[1].level = AvailabilityLevel(45.0, 3)
            elif step < len(splits):
                which, pick = splits[step]
                ring = ring_list[which]
                victim = ring.partitions()[pick % len(ring)]
                # The catalog's split event slots the children first.
                index.slots_of(p.pid for p in ring.split_partition(
                    victim.pid
                ))
            before = len(index)
            layout = rings.layout()
            assert layout_fields(layout) == fresh_walk(ring_list, index)
            assert rings.layout() is layout
            assert len(index) == before

    def test_level_swap_rebuilds_thresholds(self):
        rings, index = indexed_ring_set()
        old = rings.layout()
        ring = rings.ring(1, 0)
        ring.level = AvailabilityLevel(45.0, 3)
        new = rings.layout()
        assert new is not old and new.partitions == old.partitions
        slots = [index.get(p.pid) for p in ring]
        assert new.threshold_by_slot[slots].tolist() == [45.0, 45.0]
        assert old.threshold_by_slot[slots].tolist() == [60.0, 60.0]

    def test_construction_reads_build_no_slot_table(self):
        rings = RingSet()
        rings.add_ring(0, 0, LEVEL, 4)
        index = PartitionIndex()
        rings.use_partition_index(index)
        assert len(rings.layout().partitions) == 4
        assert "slots" not in vars(rings.layout())
        assert len(index) == 0

    def test_without_an_index_slot_tables_are_none(self):
        rings = RingSet()
        rings.add_ring(0, 0, LEVEL, 2)
        layout = rings.layout()
        assert layout.slots is None and layout.app_slots is None
        assert layout.threshold_by_slot is None
        assert [s for __, __, s in layout.rings] == [None]
        assert layout.work == [(p, 20.0) for p in layout.partitions]

    def test_a_second_partition_index_is_refused(self):
        rings, index = indexed_ring_set()
        rings.use_partition_index(index)
        with pytest.raises(RingError):
            rings.use_partition_index(PartitionIndex())
