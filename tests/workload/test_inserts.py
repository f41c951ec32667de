"""Unit tests for the Fig. 5 insert workload."""

import numpy as np
import pytest

from repro.ring.partition import PartitionId
from repro.ring.virtualring import AvailabilityLevel, build_ring
from repro.workload.inserts import (
    DEFAULT_INSERT_RATE,
    DEFAULT_OBJECT_SIZE,
    InsertBatch,
    InsertError,
    InsertWorkload,
    keyspace_shares,
)
from repro.workload.popularity import PopularityMap


def parts(n):
    """n equal-arc partitions of one ring."""
    ring = build_ring(0, 0, AvailabilityLevel(1.0, 1), n)
    return ring.partitions()


class TestDefaults:
    def test_paper_parameters(self):
        assert DEFAULT_INSERT_RATE == 2000
        assert DEFAULT_OBJECT_SIZE == 500 * 1024


class TestBatch:
    def test_counts_sum_to_rate(self):
        ps = parts(20)
        pm = PopularityMap.pareto([p.pid for p in ps],
                                  rng=np.random.default_rng(0))
        workload = InsertWorkload(rate=500, object_size=100,
                                  rng=np.random.default_rng(1))
        batch = workload.batch(0, ps, pm)
        assert batch.total_inserts == 500
        assert batch.total_bytes == 500 * 100

    def test_keyspace_routing_is_arc_proportional(self):
        ps = parts(4)
        # Popularity fully concentrated — keyspace routing must ignore it.
        pm = PopularityMap({ps[0].pid: 100.0} | {
            p.pid: 0.0 for p in ps[1:]
        })
        workload = InsertWorkload(rate=4000, object_size=10,
                                  routing="keyspace",
                                  rng=np.random.default_rng(2))
        batch = workload.batch(0, ps, pm)
        for p in ps:
            assert batch.counts[p.pid] == pytest.approx(1000, abs=150)

    def test_popularity_routing_follows_skew(self):
        ps = parts(4)
        pm = PopularityMap({ps[0].pid: 97.0} | {
            p.pid: 1.0 for p in ps[1:]
        })
        workload = InsertWorkload(rate=1000, object_size=10,
                                  routing="popularity",
                                  rng=np.random.default_rng(2))
        batch = workload.batch(0, ps, pm)
        assert batch.counts[ps[0].pid] > 800

    def test_keyspace_shares_halve_after_split(self):
        ps = parts(2)
        shares = keyspace_shares(ps)
        assert list(shares) == pytest.approx([0.5, 0.5])

    def test_total_bytes(self):
        ps = parts(2)
        pm = PopularityMap({p.pid: 1.0 for p in ps})
        workload = InsertWorkload(rate=10, object_size=7,
                                  rng=np.random.default_rng(0))
        batch = workload.batch(0, ps, pm)
        assert batch.total_inserts > 0
        assert batch.total_bytes == batch.total_inserts * 7

    def test_zero_rate(self):
        ps = parts(2)
        pm = PopularityMap({p.pid: 1.0 for p in ps})
        workload = InsertWorkload(rate=0, rng=np.random.default_rng(0))
        batch = workload.batch(0, ps, pm)
        assert batch.total_inserts == 0

    def test_no_partitions_rejected(self):
        workload = InsertWorkload(rate=5, rng=np.random.default_rng(0))
        with pytest.raises(InsertError):
            workload.batch(0, [], PopularityMap())

    def test_invalid_params(self):
        with pytest.raises(InsertError):
            InsertWorkload(rate=-1, rng=np.random.default_rng(0))
        with pytest.raises(InsertError):
            InsertWorkload(object_size=0, rng=np.random.default_rng(0))
        with pytest.raises(InsertError):
            InsertWorkload(routing="sideways", rng=np.random.default_rng(0))

