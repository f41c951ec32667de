"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.location import (
    FULL_MASK,
    Location,
    diversity,
    shared_depth,
)
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.availability import availability, pair_gain
from repro.ring.hashing import RING_SIZE, hash_key, in_range, ring_distance
from repro.ring.keyspace import KeyRange, covers_ring
from repro.ring.partition import Partition, PartitionId
from repro.ring.virtualring import AvailabilityLevel, build_ring
from repro.workload.popularity import PopularityMap

locations = st.builds(
    Location,
    continent=st.integers(0, 4),
    country=st.integers(0, 2),
    datacenter=st.integers(0, 2),
    room=st.integers(0, 1),
    rack=st.integers(0, 2),
    server=st.integers(0, 4),
)

positions = st.integers(0, RING_SIZE - 1)


class TestDiversityProperties:
    @given(locations, locations)
    def test_symmetry(self, a, b):
        assert diversity(a, b) == diversity(b, a)

    @given(locations)
    def test_identity(self, a):
        assert diversity(a, a) == 0

    @given(locations, locations)
    def test_bounds(self, a, b):
        assert 0 <= diversity(a, b) <= FULL_MASK

    @given(locations, locations)
    def test_diversity_is_all_trailing_ones(self, a, b):
        d = diversity(a, b)
        # d + 1 must be a power of two: values 0,1,3,7,15,31,63.
        assert (d + 1) & d == 0

    @given(locations, locations, locations)
    def test_ultrametric_on_shared_depth(self, a, b, c):
        """Prefix depth satisfies the ultrametric triangle inequality:
        depth(a, c) >= min(depth(a, b), depth(b, c))."""
        assert shared_depth(a, c) >= min(
            shared_depth(a, b), shared_depth(b, c)
        )


class TestRingProperties:
    @given(positions, positions, positions)
    def test_in_range_partition_of_ring(self, p, start, end):
        """Any position is in exactly one of (start, end], (end, start]
        unless the arcs are degenerate (start == end)."""
        if start == end:
            assert in_range(p, start, end)
        else:
            assert in_range(p, start, end) != in_range(p, end, start)

    @given(positions, positions)
    def test_ring_distance_antisymmetry(self, a, b):
        if a != b:
            assert ring_distance(a, b) + ring_distance(b, a) == RING_SIZE

    @given(positions, positions)
    def test_split_preserves_membership(self, start, end):
        r = KeyRange(start, end)
        if r.span < 2:
            return
        low, high = r.split()
        rng = np.random.default_rng(start % 1000)
        for p in rng.integers(0, RING_SIZE, 32, dtype=np.uint64):
            p = int(p)
            assert r.contains_position(p) == (
                low.contains_position(p) or high.contains_position(p)
            )
            assert not (
                low.contains_position(p) and high.contains_position(p)
            )

    @given(st.integers(1, 64))
    def test_built_ring_tiles(self, num_partitions):
        ring = build_ring(
            0, 0, AvailabilityLevel(1.0, 1), num_partitions
        )
        assert covers_ring([p.key_range for p in ring])

    @given(st.lists(st.text(min_size=1, max_size=20), min_size=1,
                    max_size=50))
    @settings(max_examples=30)
    def test_lookup_total_function(self, keys):
        ring = build_ring(0, 0, AvailabilityLevel(1.0, 1), 7)
        for key in keys:
            owner = ring.lookup(key)
            assert owner.key_range.contains_position(hash_key(key))

    @given(st.integers(0, 5), st.data())
    @settings(max_examples=25)
    def test_random_split_sequences_keep_tiling(self, seed, data):
        ring = build_ring(
            0, 0, AvailabilityLevel(1.0, 1), 4,
            partition_capacity=1000, initial_size=500,
        )
        rng = np.random.default_rng(seed)
        for __ in range(5):
            pids = [p.pid for p in ring]
            victim = pids[int(rng.integers(len(pids)))]
            ring.split_partition(victim)
        ring.check_invariants()
        assert len(ring) == 9


class TestAvailabilityProperties:
    @given(st.lists(locations, min_size=1, max_size=6, unique=True),
           locations)
    @settings(max_examples=60)
    def test_adding_replica_monotone(self, locs, extra):
        cloud = Cloud()
        for i, loc in enumerate(locs):
            cloud.add_servers([make_server(i, loc)])
        cloud.add_servers([make_server(len(locs), extra)])
        base = list(range(len(locs)))
        before = availability(cloud, base)
        after = availability(cloud, base + [len(locs)])
        assert after >= before
        assert after - before == pair_gain(cloud, base, len(locs))

    @given(st.lists(locations, min_size=2, max_size=6, unique=True))
    @settings(max_examples=60)
    def test_availability_invariant_to_order(self, locs):
        cloud = Cloud()
        for i, loc in enumerate(locs):
            cloud.add_servers([make_server(i, loc)])
        ids = list(range(len(locs)))
        forward = availability(cloud, ids)
        backward = availability(cloud, list(reversed(ids)))
        assert forward == backward


class TestPopularityProperties:
    @given(st.lists(st.floats(0.001, 1000.0), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_split_conserves_total(self, weights):
        pids = [PartitionId(0, 0, i) for i in range(len(weights))]
        pm = PopularityMap(dict(zip(pids, weights)))
        total = pm.total
        low = PartitionId(0, 0, 100)
        high = PartitionId(0, 0, 101)
        pm.split(pids[0], low, high)
        assert abs(pm.total - total) < 1e-9 * max(total, 1.0)

    @given(st.lists(st.floats(0.001, 1000.0), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_shares_form_distribution(self, weights):
        pids = [PartitionId(0, 0, i) for i in range(len(weights))]
        pm = PopularityMap(dict(zip(pids, weights)))
        shares = pm.shares(pids)
        assert abs(shares.sum() - 1.0) < 1e-9
        assert (shares >= 0).all()
