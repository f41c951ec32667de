"""Unit tests for Pareto popularity weights and the popularity map."""

import numpy as np
import pytest

from repro.ring.partition import PartitionId
from repro.workload.popularity import (
    PopularityError,
    PopularityMap,
    pareto_weights,
)

RNG = np.random.default_rng(42)


def pids(n):
    return [PartitionId(0, 0, i) for i in range(n)]


class TestParetoWeights:
    def test_minimum_is_scale(self):
        w = pareto_weights(1000, rng=RNG)
        assert w.min() >= 50.0

    def test_heavy_tail(self):
        w = pareto_weights(2000, rng=np.random.default_rng(1))
        # Shape-1 Pareto: the max dwarfs the median by orders of magnitude.
        assert w.max() > 20 * np.median(w)

    def test_draws_the_evaluations_pareto(self):
        # §III-A's Pareto(1, 50): 50 · (1 + Lomax(1)), draw for draw.
        w = pareto_weights(100, rng=np.random.default_rng(3))
        lomax = np.random.default_rng(3).pareto(1.0, size=100)
        assert w.tolist() == (50.0 * (1.0 + lomax)).tolist()

    def test_invalid_params(self):
        with pytest.raises(PopularityError):
            pareto_weights(0, rng=RNG)


class TestPopularityMap:
    def test_pareto_factory(self):
        ids = pids(50)
        pm = PopularityMap.pareto(ids, rng=np.random.default_rng(0))
        assert len(pm) == 50
        assert all(pm.get(pid) >= 50.0 for pid in ids)

    def test_set_get_remove(self):
        pm = PopularityMap()
        pid = PartitionId(0, 0, 0)
        pm.set(pid, 3.0)
        assert pm.get(pid) == 3.0
        assert pm.remove(pid) == 3.0
        with pytest.raises(PopularityError):
            pm.get(pid)

    def test_negative_weight_rejected(self):
        with pytest.raises(PopularityError):
            PopularityMap().set(PartitionId(0, 0, 0), -1.0)

    def test_split_conserves_total(self):
        ids = pids(3)
        pm = PopularityMap(dict(zip(ids, [1.0, 2.0, 4.0])))
        total = pm.total
        low, high = PartitionId(0, 0, 10), PartitionId(0, 0, 11)
        pm.split(ids[2], low, high)
        assert pm.total == pytest.approx(total)
        assert pm.get(low) == 2.0
        assert pm.get(high) == 2.0

    def test_shares_normalised_over_subset(self):
        ids = pids(4)
        pm = PopularityMap(dict(zip(ids, [1.0, 1.0, 2.0, 4.0])))
        shares = pm.shares(ids[:3])
        assert shares.sum() == pytest.approx(1.0)
        assert shares[2] == pytest.approx(0.5)

    def test_shares_all_zero_is_uniform(self):
        ids = pids(4)
        pm = PopularityMap({pid: 0.0 for pid in ids})
        assert np.allclose(pm.shares(ids), 0.25)

    def test_shares_empty_rejected(self):
        with pytest.raises(PopularityError):
            PopularityMap().shares([])
