"""Unit tests for partitions, splits and id allocation."""

import numpy as np
import pytest

from repro.ring.keyspace import KeyRange
from repro.ring.partition import (
    DEFAULT_PARTITION_CAPACITY,
    Partition,
    PartitionError,
    PartitionId,
    PartitionIdAllocator,
    PartitionIndex,
    gather_float,
    gather_int,
)


def part(size=0, capacity=100, pop=0.0):
    return Partition(
        pid=PartitionId(0, 0, 0),
        key_range=KeyRange(0, 1 << 32),
        size=size,
        popularity=pop,
        capacity=capacity,
    )


class TestPartitionBasics:
    def test_default_capacity_is_256mb(self):
        assert DEFAULT_PARTITION_CAPACITY == 256 * (1 << 20)

    def test_grow(self):
        p = part()
        p.grow(60)
        assert p.size == 60

    def test_grow_negative(self):
        with pytest.raises(PartitionError):
            part().grow(-1)

    def test_overfull(self):
        p = part(size=100, capacity=100)
        assert not p.overfull
        p.grow(1)
        assert p.overfull

    def test_invalid_construction(self):
        with pytest.raises(PartitionError):
            part(size=-1)
        with pytest.raises(PartitionError):
            Partition(
                pid=PartitionId(0, 0, 0),
                key_range=KeyRange(0, 1),
                capacity=0,
            )


class TestSplit:
    def test_split_conserves_bytes_and_popularity(self):
        p = part(size=101, capacity=100, pop=2.0)
        low, high = p.split(1, 2)
        assert low.size + high.size == 101
        assert low.popularity + high.popularity == pytest.approx(2.0)

    def test_split_halves_key_range(self):
        p = part(size=10)
        low, high = p.split(1, 2)
        assert low.key_range.span + high.key_range.span == p.key_range.span
        assert low.key_range.end == high.key_range.start

    def test_split_children_reference_parent(self):
        p = part(size=10)
        low, high = p.split(1, 2)
        assert low.parent == p.pid
        assert high.parent == p.pid

    def test_split_share(self):
        # The low child takes the floor of half; the high child the rest.
        p = part(size=101, pop=1.0)
        low, high = p.split(1, 2)
        assert low.size == 50
        assert high.size == 51
        assert low.popularity == high.popularity == 0.5

    def test_split_ids_use_given_seqs(self):
        p = part(size=10)
        low, high = p.split(7, 8)
        assert low.pid == PartitionId(0, 0, 7)
        assert high.pid == PartitionId(0, 0, 8)

    @pytest.mark.parametrize("size", [0, 1, 2, 101, 2**40 + 1, 2**53 - 1])
    def test_half_split_is_floor_of_half(self, size):
        # The float share must not round: the low child gets exactly
        # size // 2 for every size a float mantissa holds.
        low, high = part(size=size).split(1, 2)
        assert low.size == size // 2
        assert low.size + high.size == size

    def test_split_children_keep_capacity(self):
        low, high = part(size=150, capacity=100).split(1, 2)
        assert low.capacity == high.capacity == 100
        assert not low.overfull and not high.overfull

    def test_split_of_a_child_tiles_the_child(self):
        p = part(size=400, pop=4.0)
        low, high = p.split(1, 2)
        a, b = low.split(3, 4)
        assert a.parent == low.pid
        assert (a.key_range.start, b.key_range.end) == (
            low.key_range.start, low.key_range.end
        )
        assert a.size + b.size + high.size == 400
        assert a.popularity + b.popularity + high.popularity == 4.0


class TestAllocator:
    def test_sequences_are_per_ring(self):
        alloc = PartitionIdAllocator()
        assert alloc.next_seq(0, 0) == 0
        assert alloc.next_seq(0, 0) == 1
        assert alloc.next_seq(1, 0) == 0

    def test_new_id(self):
        alloc = PartitionIdAllocator()
        pid = alloc.new_id(2, 3)
        assert pid == PartitionId(2, 3, 0)
        assert alloc.new_id(2, 3).seq == 1

    def test_ids_are_ordered_and_hashable(self):
        a = PartitionId(0, 0, 1)
        b = PartitionId(0, 1, 0)
        assert a < b
        assert len({a, b, PartitionId(0, 0, 1)}) == 2


class TestPartitionIndex:
    def test_slots_are_dense_in_first_sight_order(self):
        index = PartitionIndex()
        a, b = PartitionId(0, 0, 5), PartitionId(1, 0, 0)
        assert index.slot_of(a) == 0
        assert index.slot_of(b) == 1
        assert index.slot_of(a) == 0
        assert len(index) == 2

    def test_get_does_not_assign(self):
        index = PartitionIndex()
        pid = PartitionId(0, 0, 0)
        assert index.get(pid) is None
        assert pid not in index
        index.slot_of(pid)
        assert pid in index
        assert index.get(pid) == 0

    def test_slots_of_assigns_fresh_slots_in_order(self):
        index = PartitionIndex()
        seen = PartitionId(0, 0, 9)
        index.slot_of(seen)
        pids = [PartitionId(0, 0, 1), seen, PartitionId(0, 0, 2)]
        slots = index.slots_of(pids)
        assert slots.dtype == np.intp
        assert slots.tolist() == [1, 0, 2]

    def test_items_follow_assignment_order(self):
        index = PartitionIndex()
        pids = [PartitionId(0, 0, s) for s in (3, 1, 2)]
        index.slots_of(pids)
        assert list(index.items()) == [(p, i) for i, p in enumerate(pids)]

    def test_slots_of_empty(self):
        assert PartitionIndex().slots_of([]).tolist() == []


class TestGather:
    def test_in_range_slots_read_values(self):
        values = np.array([10, 20, 30], dtype=np.int64)
        out = gather_int(values, np.array([2, 0, 1]))
        assert out.tolist() == [30, 10, 20]
        assert out.dtype == np.int64

    def test_slots_past_the_end_read_fill(self):
        # A split child indexed after the vector was built.
        values = np.array([10, 20], dtype=np.int64)
        out = gather_int(values, np.array([1, 2, 7]), fill=-1)
        assert out.tolist() == [20, -1, -1]

    def test_negative_slots_read_fill(self):
        values = np.array([1.5, 2.5])
        out = gather_float(values, np.array([-1, 0]))
        assert out.tolist() == [0.0, 1.5]

    def test_empty_vector_reads_fill_only(self):
        out = gather_float(np.zeros(0), np.array([0, 3]), fill=0.25)
        assert out.tolist() == [0.25, 0.25]
        assert out.dtype == np.float64
        ints = gather_int(np.zeros(0, dtype=np.int32), np.array([0]))
        assert ints.dtype == np.int32

    def test_gather_leaves_source_untouched(self):
        values = np.array([4, 5], dtype=np.int64)
        gather_int(values, np.array([5, 0]), fill=9)
        assert values.tolist() == [4, 5]
