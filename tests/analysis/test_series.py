"""Unit tests for series-shape detectors."""

import numpy as np
import pytest

from repro.analysis.series import (
    SeriesError,
    convergence_epoch,
    first_nonzero_epoch,
    peak_epoch,
    relative_spread,
    step_change,
)


class TestRelativeSpread:
    def test_empty_rejected(self):
        with pytest.raises(SeriesError):
            relative_spread([])

    def test_flat_is_zero(self):
        assert relative_spread([5, 5, 5]) == 0.0

    def test_spread(self):
        assert relative_spread([5, 10, 15]) == pytest.approx(1.0)

    def test_zero_mean(self):
        assert relative_spread([0, 0]) == 0.0
        assert relative_spread([-1, 1]) == float("inf")


class TestConvergence:
    def test_converges_after_transient(self):
        series = [0, 50, 90, 100, 100, 100, 100, 100, 100, 100, 100, 100]
        epoch = convergence_epoch(series, tolerance=0.01, window=5)
        assert epoch == 3

    def test_never_converges(self):
        series = list(range(100))
        assert convergence_epoch(series, tolerance=0.001, window=10) is None

    def test_flat_converges_at_zero(self):
        assert convergence_epoch([7.0] * 20) == 0

    def test_whole_series_within_tolerance(self):
        assert convergence_epoch([100, 101, 99, 100], tolerance=0.05,
                                 window=1) == 0
        assert convergence_epoch([100, 200, 100], tolerance=0.05,
                                 window=1) != 0

    def test_invalid_params(self):
        with pytest.raises(SeriesError):
            convergence_epoch([1.0], window=0)
        with pytest.raises(SeriesError):
            convergence_epoch([1.0], tolerance=-0.1)


class TestStepChange:
    def test_step_up(self):
        series = [10.0] * 20 + [15.0] * 20
        assert step_change(series, 20) == pytest.approx(0.5)

    def test_no_change(self):
        series = [10.0] * 40
        assert step_change(series, 20) == pytest.approx(0.0)

    def test_step_down(self):
        series = [10.0] * 20 + [5.0] * 20
        assert step_change(series, 20) == pytest.approx(-0.5)

    def test_at_bounds(self):
        with pytest.raises(SeriesError):
            step_change([1.0, 2.0], 0)


class TestPeaks:
    def test_peak_epoch(self):
        idx, value = peak_epoch([1, 5, 3])
        assert (idx, value) == (1, 5.0)

    def test_first_nonzero(self):
        assert first_nonzero_epoch([0, 0, 2, 0]) == 2
        assert first_nonzero_epoch([0, 0]) is None
