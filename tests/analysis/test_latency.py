"""Unit tests for the latency / communication-overhead models."""

import numpy as np
import pytest

from repro.analysis.latency import (
    DEFAULT_RTT_MS,
    LatencyError,
    LatencyModel,
    OverheadLedger,
    app_response_times,
    expected_response_time,
    weighted_percentile,
)
from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud, CloudLayout
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.store.replica import ReplicaCatalog
from repro.workload.clients import hotspot, uniform_geography

LAYOUT = CloudLayout(
    countries=2, countries_per_continent=1, datacenters_per_country=1,
    rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=2,
)


def setup():
    cloud = Cloud()
    cloud.add_servers([make_server(0, Location(0, 0, 0, 0, 0, 0),
                                   storage_capacity=10**9)])
    cloud.add_servers([make_server(1, Location(1, 0, 0, 0, 0, 0),
                                   storage_capacity=10**9)])
    rings = RingSet()
    ring = rings.add_ring(0, 0, AvailabilityLevel(1.0, 2), 2,
                          initial_size=10)
    catalog = ReplicaCatalog(cloud)
    for p in ring:
        catalog.place(p, 0)
        catalog.place(p, 1)
    return cloud, ring, catalog


class TestLatencyModel:
    def test_defaults_are_monotone(self):
        model = LatencyModel()
        values = [model.rtt(d) for d in sorted(DEFAULT_RTT_MS)]
        assert values == sorted(values)

    def test_invalid_diversity(self):
        with pytest.raises(LatencyError):
            LatencyModel().rtt(5)

    def test_non_monotone_rejected(self):
        table = dict(DEFAULT_RTT_MS)
        table[63] = 0.01
        with pytest.raises(LatencyError):
            LatencyModel(rtt_ms=table)

    def test_missing_key_rejected(self):
        table = dict(DEFAULT_RTT_MS)
        del table[31]
        with pytest.raises(LatencyError):
            LatencyModel(rtt_ms=table)

    def test_best_replica_prefers_close(self):
        cloud, ring, catalog = setup()
        model = LatencyModel()
        client = Location(1, 0, 0, 0, 0, 5)  # continent 1
        pid = ring.partitions()[0].pid
        rtt = model.best_replica_rtt(client, cloud,
                                     catalog.servers_of(pid))
        # Closest replica is server 1, same continent/country but
        # different server: diversity 1 -> 0.3ms.
        assert rtt == pytest.approx(DEFAULT_RTT_MS[1])

    def test_best_replica_skips_dead(self):
        cloud, ring, catalog = setup()
        cloud.server(1).fail()
        model = LatencyModel()
        client = Location(1, 0, 0, 0, 0, 5)
        pid = ring.partitions()[0].pid
        rtt = model.best_replica_rtt(client, cloud,
                                     catalog.servers_of(pid))
        assert rtt == pytest.approx(DEFAULT_RTT_MS[63])

    def test_no_live_replica(self):
        cloud, ring, catalog = setup()
        model = LatencyModel()
        with pytest.raises(LatencyError):
            model.best_replica_rtt(Location(0, 0, 0, 0, 0, 0), cloud, [])


class TestExpectedResponseTime:
    def test_hotspot_geography(self):
        cloud, ring, catalog = setup()
        model = LatencyModel()
        pid = ring.partitions()[0].pid
        # All clients in country 0 -> replica on server 0 is local.
        geo = hotspot(LAYOUT, 0, concentration=1.0)
        rtt = expected_response_time(model, cloud, catalog, pid, geo)
        assert rtt <= DEFAULT_RTT_MS[1]

    def test_uniform_uses_server_population(self):
        cloud, ring, catalog = setup()
        model = LatencyModel()
        pid = ring.partitions()[0].pid
        rtt = expected_response_time(
            model, cloud, catalog, pid, uniform_geography()
        )
        # Each of the two server-locations has a same-continent replica.
        assert rtt <= DEFAULT_RTT_MS[1]

    def test_app_summary(self):
        cloud, ring, catalog = setup()
        model = LatencyModel()
        pids = [p.pid for p in ring]
        stats = app_response_times(
            model, cloud, catalog, pids, uniform_geography()
        )
        assert set(stats) == {"mean_ms", "p50_ms", "p95_ms", "max_ms"}
        assert stats["mean_ms"] <= stats["max_ms"]

    def test_app_summary_empty(self):
        cloud, __, catalog = setup()
        with pytest.raises(LatencyError):
            app_response_times(
                LatencyModel(), cloud, catalog, [], uniform_geography()
            )


def split_setup():
    """Half the partitions near the hotspot, half across the ocean."""
    cloud = Cloud()
    cloud.add_servers([make_server(0, Location(0, 0, 0, 0, 0, 0),
                                   storage_capacity=10**9)])
    cloud.add_servers([make_server(1, Location(1, 0, 0, 0, 0, 0),
                                   storage_capacity=10**9)])
    rings = RingSet()
    ring = rings.add_ring(0, 0, AvailabilityLevel(1.0, 2), 2,
                          initial_size=10)
    catalog = ReplicaCatalog(cloud)
    parts = ring.partitions()
    for p in parts[: len(parts) // 2]:
        catalog.place(p, 0)
    for p in parts[len(parts) // 2:]:
        catalog.place(p, 1)
    return cloud, ring, catalog


class TestWeightedPercentile:
    def test_equal_weights_match_nearest_rank(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.ones(4)
        assert weighted_percentile(values, w, 50) == 2.0
        assert weighted_percentile(values, w, 100) == 4.0

    def test_skewed_weights_shift_the_median(self):
        values = np.array([1.0, 100.0])
        assert weighted_percentile(values, np.array([1.0, 9.0]), 50) == 100.0
        assert weighted_percentile(values, np.array([9.0, 1.0]), 50) == 1.0

    def test_zero_total_rejected(self):
        with pytest.raises(LatencyError):
            weighted_percentile(np.array([1.0]), np.array([0.0]), 50)


class TestAppResponseTimeWeights:
    """Regression pins for the ISSUE 10 weight-handling fixes."""

    def test_all_zero_weights_raise_not_fall_back(self):
        # Previously an all-zero weight vector silently degraded to the
        # unweighted mean; it must be an error.
        cloud, ring, catalog = split_setup()
        pids = [p.pid for p in ring]
        with pytest.raises(LatencyError):
            app_response_times(
                LatencyModel(), cloud, catalog, pids,
                hotspot(LAYOUT, 0, concentration=1.0),
                weights={pid: 0.0 for pid in pids},
            )

    def test_negative_weight_rejected(self):
        cloud, ring, catalog = split_setup()
        pids = [p.pid for p in ring]
        weights = {pid: 1.0 for pid in pids}
        weights[pids[0]] = -1.0
        with pytest.raises(LatencyError):
            app_response_times(
                LatencyModel(), cloud, catalog, pids,
                hotspot(LAYOUT, 0, concentration=1.0), weights=weights,
            )

    def test_percentiles_honor_weights(self):
        # All popularity on the far partitions: the weighted tail must
        # report the far RTT, the unweighted tail the near one.
        cloud, ring, catalog = split_setup()
        geo = hotspot(LAYOUT, 0, concentration=1.0)
        pids = [p.pid for p in ring]
        far = {pid: 1.0 for pid in pids[len(pids) // 2:]}
        weighted = app_response_times(
            LatencyModel(), cloud, catalog, pids, geo, weights=far
        )
        unweighted = app_response_times(
            LatencyModel(), cloud, catalog, pids, geo
        )
        assert weighted["p50_ms"] == pytest.approx(DEFAULT_RTT_MS[63])
        assert weighted["p95_ms"] == pytest.approx(DEFAULT_RTT_MS[63])
        assert weighted["mean_ms"] == pytest.approx(DEFAULT_RTT_MS[63])
        assert unweighted["p50_ms"] < weighted["p50_ms"]

    def test_no_weights_stays_unweighted(self):
        cloud, ring, catalog = split_setup()
        geo = hotspot(LAYOUT, 0, concentration=1.0)
        pids = [p.pid for p in ring]
        stats = app_response_times(
            LatencyModel(), cloud, catalog, pids, geo
        )
        # None and {} are the same documented unweighted path.
        empty_stats = app_response_times(
            LatencyModel(), cloud, catalog, pids, geo, weights={}
        )
        assert empty_stats == stats


class TestOverheadLedger:
    def test_accumulates(self):
        ledger = OverheadLedger()
        ledger.record(100, 50)
        ledger.record(10, 0)
        assert ledger.replication_bytes == 110
        assert ledger.migration_bytes == 50
        assert ledger.total_bytes == 160
        assert ledger.epochs == 2

    def test_negative_rejected(self):
        with pytest.raises(LatencyError):
            OverheadLedger().record(-1, 0)
