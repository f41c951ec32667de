"""Unit tests for the location hierarchy and the 6-bit diversity metric."""

import pytest

from repro.cluster.location import (
    CROSS_COUNTRY_DIVERSITY,
    FULL_MASK,
    MAX_DIVERSITY,
    NUM_LEVELS,
    Location,
    LocationError,
    diversity,
    diversity_from_depth,
    shared_depth,
    similarity,
)


def loc(*parts):
    return Location(*parts)


class TestLocationValidation:
    def test_valid_location(self):
        location = loc(1, 2, 3, 4, 5, 6)
        assert location.parts() == (1, 2, 3, 4, 5, 6)

    def test_negative_part_rejected(self):
        with pytest.raises(LocationError):
            loc(0, 0, 0, 0, 0, -1)

    def test_non_int_part_rejected(self):
        with pytest.raises(LocationError):
            loc(0, 0, 0.5, 0, 0, 0)

    def test_bool_part_rejected(self):
        with pytest.raises(LocationError):
            loc(True, 0, 0, 0, 0, 0)

    def test_from_parts_roundtrip(self):
        location = loc(3, 1, 0, 0, 1, 4)
        assert Location.from_parts(location.parts()) == location

    def test_from_parts_wrong_length(self):
        with pytest.raises(LocationError):
            Location.from_parts((1, 2, 3))

    def test_str_is_readable(self):
        assert "co1" in str(loc(1, 0, 0, 0, 0, 0))


class TestPrefix:
    def test_prefix_depths(self):
        location = loc(1, 2, 3, 4, 5, 6)
        assert location.prefix(0) == ()
        assert location.prefix(3) == (1, 2, 3)
        assert location.prefix(6) == (1, 2, 3, 4, 5, 6)

    def test_prefix_out_of_range(self):
        with pytest.raises(LocationError):
            loc(0, 0, 0, 0, 0, 0).prefix(7)

    def test_same_prefix(self):
        a = loc(1, 2, 3, 0, 0, 0)
        b = loc(1, 2, 9, 0, 0, 0)
        assert a.same_prefix(b, 2)
        assert not a.same_prefix(b, 3)

    def test_ancestors_count(self):
        assert len(list(loc(0, 0, 0, 0, 0, 0).ancestors())) == NUM_LEVELS


class TestSimilarityDiversity:
    def test_identical_servers(self):
        a = loc(1, 1, 1, 1, 1, 1)
        assert similarity(a, a) == FULL_MASK
        assert diversity(a, a) == 0

    def test_paper_example_same_through_datacenter(self):
        """The paper's worked example: similarity 111000 -> diversity 7."""
        a = loc(1, 2, 3, 0, 0, 0)
        b = loc(1, 2, 3, 1, 0, 0)
        assert similarity(a, b) == 0b111000
        assert diversity(a, b) == 7

    def test_different_continent_is_max(self):
        a = loc(0, 0, 0, 0, 0, 0)
        b = loc(1, 0, 0, 0, 0, 0)
        assert diversity(a, b) == MAX_DIVERSITY == 63

    def test_same_continent_different_country(self):
        a = loc(2, 0, 0, 0, 0, 0)
        b = loc(2, 1, 0, 0, 0, 0)
        assert diversity(a, b) == CROSS_COUNTRY_DIVERSITY == 31

    def test_same_rack_different_server(self):
        a = loc(1, 1, 1, 1, 1, 0)
        b = loc(1, 1, 1, 1, 1, 1)
        assert diversity(a, b) == 1

    def test_prefix_semantics_lower_levels_ignored_after_mismatch(self):
        """Equal room numbers in different datacenters are different rooms."""
        a = loc(1, 1, 0, 7, 7, 7)
        b = loc(1, 1, 1, 7, 7, 7)
        # Datacenter differs, so room/rack/server equality must not count.
        assert similarity(a, b) == 0b110000
        assert diversity(a, b) == 0b001111 == 15

    def test_symmetry(self):
        a = loc(1, 2, 0, 0, 1, 3)
        b = loc(1, 0, 1, 0, 0, 2)
        assert diversity(a, b) == diversity(b, a)

    def test_all_shared_depths(self):
        base = (1, 1, 1, 1, 1, 1)
        for depth in range(NUM_LEVELS + 1):
            parts = list(base)
            if depth < NUM_LEVELS:
                parts[depth] = 9  # first mismatch at this level
            a = loc(*base)
            b = loc(*parts)
            assert shared_depth(a, b) == depth
            assert diversity(a, b) == diversity_from_depth(depth)

    def test_diversity_from_depth_bounds(self):
        assert diversity_from_depth(0) == 63
        assert diversity_from_depth(6) == 0
        with pytest.raises(LocationError):
            diversity_from_depth(7)

    def test_diversity_values_are_2k_minus_1(self):
        """Diversity is always of the form 2^k - 1 (trailing ones)."""
        seen = {
            diversity_from_depth(depth) for depth in range(NUM_LEVELS + 1)
        }
        assert seen == {0, 1, 3, 7, 15, 31, 63}


class TestOrdering:
    def test_locations_are_sortable(self):
        a = loc(0, 0, 0, 0, 0, 1)
        b = loc(0, 0, 0, 0, 1, 0)
        assert sorted([b, a]) == [a, b]

    def test_locations_are_hashable(self):
        assert len({loc(0, 0, 0, 0, 0, 0), loc(0, 0, 0, 0, 0, 0)}) == 1


class TestExhaustiveAgainstPartsZip:
    """ISSUE 14 made ``shared_depth`` compare fields with early exit and
    map depth to diversity through a table; the ``parts()``-zip form it
    replaced stays here as the reference, over every pair of a 2^6 grid.
    """

    @staticmethod
    def reference_depth(a, b):
        depth = 0
        for pa, pb in zip(a.parts(), b.parts()):
            if pa != pb:
                break
            depth += 1
        return depth

    def test_all_pairs_of_the_binary_grid(self):
        import itertools

        grid = [loc(*bits) for bits in itertools.product((0, 1), repeat=6)]
        assert len(grid) == 64
        for a in grid:
            for b in grid:
                depth = self.reference_depth(a, b)
                assert shared_depth(a, b) == depth
                ones = ((1 << depth) - 1) << (NUM_LEVELS - depth)
                assert similarity(a, b) == ones
                assert diversity(a, b) == FULL_MASK ^ ones
                assert diversity(a, b) == diversity_from_depth(depth)
