"""Unit tests for key ranges and ring tiling."""

import pytest

from repro.ring.hashing import RING_SIZE, hash_key
from repro.ring.keyspace import (
    KeyRange,
    KeyRangeError,
    covers_ring,
    ranges_from_tokens,
)


class TestKeyRange:
    def test_span_and_fraction(self):
        r = KeyRange(0, RING_SIZE // 4)
        assert r.span == RING_SIZE // 4
        assert r.fraction == pytest.approx(0.25)

    def test_full_ring_span(self):
        assert KeyRange(0, 0).span == RING_SIZE
        assert KeyRange(0, 0).fraction == 1.0

    def test_out_of_range_bounds(self):
        with pytest.raises(KeyRangeError):
            KeyRange(RING_SIZE, 0)

    def test_contains_position_half_open(self):
        r = KeyRange(100, 200)
        assert not r.contains_position(100)
        assert r.contains_position(200)
        assert r.contains_position(150)

    def test_hashed_key_lands_in_its_half(self):
        r = KeyRange(0, RING_SIZE // 2)
        position = hash_key("some-key")
        assert r.contains_position(position) == (
            0 < position <= RING_SIZE // 2
        )

    def test_wrap_contains(self):
        r = KeyRange(RING_SIZE - 100, 100)
        assert r.contains_position(RING_SIZE - 50)
        assert r.contains_position(50)
        assert not r.contains_position(RING_SIZE // 2)


class TestSplitMerge:
    def test_split_halves(self):
        r = KeyRange(0, 1000)
        low, high = r.split()
        assert low == KeyRange(0, 500)
        assert high == KeyRange(500, 1000)
        assert low.span + high.span == r.span

    def test_split_wrapping(self):
        r = KeyRange(RING_SIZE - 100, 100)
        low, high = r.split()
        assert low.span + high.span == r.span
        assert low.end == high.start

    def test_split_full_ring(self):
        low, high = KeyRange(0, 0).split()
        assert low.span + high.span == RING_SIZE

    def test_split_too_small(self):
        with pytest.raises(KeyRangeError):
            KeyRange(5, 6).split()

    def test_split_children_span_exactly_the_parent(self):
        r = KeyRange(7, 10_000)
        low, high = r.split()
        assert (low.start, high.end) == (r.start, r.end)
        assert low.end == high.start

    def test_split_full_ring_children_close_the_circle(self):
        low, high = KeyRange(0, 0).split()
        assert high.end == low.start
        assert covers_ring([low, high])

    def test_every_position_lands_in_exactly_one_half(self):
        r = KeyRange(10, 30)
        low, high = r.split()
        for p in range(0, 40):
            inside = r.contains_position(p)
            assert (
                low.contains_position(p) + high.contains_position(p)
            ) == (1 if inside else 0)


class TestTiling:
    def test_ranges_from_tokens(self):
        ranges = ranges_from_tokens([100, 200, 300])
        assert covers_ring(ranges)
        assert KeyRange(100, 200) in ranges
        assert KeyRange(300, 100) in ranges  # the wrapping arc

    def test_single_token_full_ring(self):
        ranges = ranges_from_tokens([42])
        assert len(ranges) == 1
        assert ranges[0].span == RING_SIZE

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(KeyRangeError):
            ranges_from_tokens([1, 1])

    def test_empty_tokens_rejected(self):
        with pytest.raises(KeyRangeError):
            ranges_from_tokens([])

    def test_covers_ring_detects_gap(self):
        assert not covers_ring([KeyRange(0, 10), KeyRange(20, 0)])

    def test_covers_ring_detects_overlap(self):
        assert not covers_ring(
            [KeyRange(0, 15), KeyRange(10, 0)]
        )

    def test_covers_ring_empty(self):
        assert not covers_ring([])

    def test_covers_after_repeated_splits(self):
        ranges = [KeyRange(0, 0)]
        for __ in range(6):
            ranges = [half for r in ranges for half in r.split()]
        assert covers_ring(ranges)
        assert len(ranges) == 64
