"""Unit tests for distribution statistics."""

import numpy as np
import pytest

from repro.analysis.stats import (
    StatsError,
    describe,
    gini,
    jain_index,
)


class TestGini:
    def test_even_distribution(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_concentrated(self):
        assert gini([0, 0, 0, 100]) == pytest.approx(0.75)

    def test_all_zero(self):
        assert gini([0, 0, 0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(StatsError):
            gini([-1, 2])

    def test_scale_invariant(self):
        assert gini([1, 2, 3]) == pytest.approx(gini([10, 20, 30]))

    def test_more_skew_more_gini(self):
        assert gini([1, 1, 1, 10]) > gini([1, 1, 1, 2])


class TestJain:
    def test_even(self):
        assert jain_index([3, 3, 3]) == pytest.approx(1.0)

    def test_concentrated(self):
        assert jain_index([9, 0, 0]) == pytest.approx(1 / 3)

    def test_zero_total(self):
        assert jain_index([0, 0]) == 1.0

    def test_fig4_per_server_loads(self):
        """The Fig. 4 balance reading: one hot server of four is 1/4."""
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_index([8, 5, 4, 3]) < jain_index([5, 5, 5, 5])

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            jain_index([])


class TestDescribe:
    def test_keys_and_values(self):
        summary = describe([1, 2, 3, 4])
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["median"] == pytest.approx(2.5)
        assert summary["min"] == 1 and summary["max"] == 4
        assert 0 < summary["gini"] < 1
        assert 0 < summary["jain"] <= 1

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            describe([])
