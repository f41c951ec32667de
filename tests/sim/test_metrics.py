"""Unit tests for metric frames and series extraction."""

import numpy as np
import pytest

from repro.sim.metrics import (
    EpochFrame,
    MetricsError,
    MetricsLog,
    RobustnessLog,
    ServingLog,
)


def frame(epoch, **overrides):
    base = dict(
        epoch=epoch,
        total_queries=100,
        live_servers=4,
        vnodes_total=10,
        vnodes_per_ring={(0, 0): 6, (1, 1): 4},
        vnodes_per_server={0: 3, 1: 3, 2: 2, 3: 2},
        queries_per_ring={(0, 0): 80.0, (1, 1): 20.0},
        mean_availability_per_ring={(0, 0): 63.0, (1, 1): 127.0},
        unsatisfied_partitions=0,
        lost_partitions=0,
        storage_used=500,
        storage_capacity=1000,
        insert_attempts=0,
        insert_failures=0,
        repairs=1,
        economic_replications=0,
        migrations=2,
        suicides=0,
        deferred=0,
        min_price=0.1,
        mean_price=0.2,
        max_price=0.3,
        unavailable_queries=0,
        vnodes_on_expensive=2,
        vnodes_on_cheap=8,
    )
    base.update(overrides)
    return EpochFrame(**base)


class TestEpochFrame:
    def test_storage_fraction(self):
        assert frame(0).storage_fraction == pytest.approx(0.5)

    def test_storage_fraction_zero_capacity(self):
        f = frame(0, storage_used=0, storage_capacity=0)
        assert f.storage_fraction == 0.0

class TestMetricsLog:
    def test_append_and_series(self):
        log = MetricsLog()
        for e in range(5):
            log.append(frame(e, vnodes_total=10 + e))
        assert len(log) == 5
        assert list(log.series("vnodes_total")) == [10, 11, 12, 13, 14]
        assert log.last.epoch == 4
        assert log.epochs() == [0, 1, 2, 3, 4]

    def test_non_monotonic_epoch_rejected(self):
        log = MetricsLog()
        log.append(frame(3))
        with pytest.raises(MetricsError):
            log.append(frame(3))

    def test_unknown_series(self):
        log = MetricsLog()
        log.append(frame(0))
        with pytest.raises(MetricsError):
            log.series("bogus")

    def test_empty_log_errors(self):
        with pytest.raises(MetricsError):
            MetricsLog().last
        with pytest.raises(MetricsError):
            MetricsLog().series("bogus")
        assert MetricsLog().series("vnodes_total").tolist() == []

    def test_ring_series(self):
        log = MetricsLog()
        log.append(frame(0))
        log.append(frame(1, vnodes_per_ring={(0, 0): 7, (1, 1): 4}))
        assert list(log.ring_series("vnodes_per_ring", (0, 0))) == [6, 7]

    def test_rings_discovery(self):
        log = MetricsLog()
        log.append(frame(0))
        assert log.rings() == [(0, 0), (1, 1)]

    def test_query_load_series(self):
        log = MetricsLog()
        log.append(frame(0))
        assert list(log.query_load_series((0, 0))) == [20.0]

    def test_vnode_histogram(self):
        log = MetricsLog()
        log.append(frame(0))
        assert log.vnode_histogram() == {0: 3, 1: 3, 2: 2, 3: 2}

    def test_cumulative_insert_failures(self):
        log = MetricsLog()
        log.append(frame(0, insert_failures=2))
        log.append(frame(1, insert_failures=3))
        assert list(log.cumulative_insert_failures()) == [2, 5]

    def test_action_totals(self):
        log = MetricsLog()
        log.append(frame(0))
        log.append(frame(1))
        totals = log.action_totals()
        assert totals["migrations"] == 4
        assert totals["repairs"] == 2

@pytest.mark.parametrize("series, scalar, derived", [
    (lambda: MetricsLog().series, "vnodes_total", "bytes_moved"),
    (lambda: RobustnessLog().series, "detections", "messages_sent"),
    (lambda: RobustnessLog().data_plane_series, "reads", "failure_rate"),
    (lambda: ServingLog().series, "requests", "sla_violations"),
], ids=["epoch", "control", "data-plane", "serving"])
def test_empty_and_unknown_series_contract(series, scalar, derived):
    """One contract for all four streams: a known name on an empty
    stream is an empty float64 array, an unknown name (or a non-scalar
    field) raises."""
    series = series()
    for name in (scalar, derived, "epoch"):
        out = series(name)
        assert out.dtype == np.float64 and out.shape == (0,)
    for name in ("bogus", "messages", "levels", "vnodes_per_ring"):
        with pytest.raises(MetricsError):
            series(name)

