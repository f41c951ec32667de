"""Unit tests for the stable 64-bit ring hashing."""

import pytest

from repro.ring.hashing import (
    RING_SIZE,
    HashError,
    hash_key,
    in_range,
    midpoint,
    ring_distance,
)


class TestHashKey:
    def test_stability(self):
        """Hashes must be identical across calls (and across processes)."""
        assert hash_key("alpha") == hash_key("alpha")
        # Regression pin: a changed hash function would silently remap
        # every stored key.
        assert hash_key("alpha") == hash_key(b"alpha")

    def test_str_bytes_equivalence(self):
        assert hash_key("key1") == hash_key("key1".encode("utf-8"))

    def test_int_keys(self):
        assert hash_key(42) == hash_key(42)
        assert hash_key(42) != hash_key(43)
        assert hash_key(-1) != hash_key(1)

    def test_range(self):
        for key in ("a", "b", 0, b"xyz"):
            assert 0 <= hash_key(key) < RING_SIZE

    def test_unsupported_type(self):
        with pytest.raises(HashError):
            hash_key(3.14)

    def test_bool_rejected(self):
        with pytest.raises(HashError):
            hash_key(True)

    def test_spread(self):
        """Hashes of sequential keys should scatter over the ring."""
        positions = [hash_key(f"user:{i}") for i in range(1000)]
        lows = sum(1 for p in positions if p < RING_SIZE // 2)
        assert 400 < lows < 600


class TestRingGeometry:
    def test_distance_simple(self):
        assert ring_distance(10, 30) == 20

    def test_distance_wraps(self):
        assert ring_distance(RING_SIZE - 5, 5) == 10

    def test_distance_zero(self):
        assert ring_distance(7, 7) == 0

    def test_in_range_half_open(self):
        assert not in_range(10, 10, 20)  # start excluded
        assert in_range(20, 10, 20)      # end included
        assert in_range(15, 10, 20)
        assert not in_range(21, 10, 20)

    def test_in_range_wrapping(self):
        start, end = RING_SIZE - 10, 10
        assert in_range(RING_SIZE - 5, start, end)
        assert in_range(5, start, end)
        assert not in_range(RING_SIZE // 2, start, end)

    def test_full_ring_when_start_equals_end(self):
        assert in_range(123, 50, 50)
        assert in_range(50, 50, 50)

    def test_midpoint_simple(self):
        assert midpoint(0, 100) == 50

    def test_midpoint_wrapping(self):
        assert midpoint(RING_SIZE - 10, 10) == 0

    def test_midpoint_full_ring(self):
        assert midpoint(0, 0) == RING_SIZE // 2

