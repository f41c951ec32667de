"""Faulty-run vs oracle-twin divergence report."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.divergence import (
    DELTA_FIELDS,
    DivergenceError,
    DivergenceReport,
    FieldDivergence,
    compare_runs,
    oracle_twin_config,
)
from repro.cluster.events import EventSchedule, RemoveServers
from repro.cluster.topology import CloudLayout
from repro.core.economy import RentModel
from repro.core.policy import EconomicPolicy
from repro.net.model import NetConfig, NetPartition
from repro.sim.config import AppConfig, RingConfig, SimConfig
from repro.sim.engine import Simulation
from repro.sim.metrics import MetricsLog
from repro.sim.seeds import RngStreams

EPOCHS = 16


def small_config(net=None):
    layout = CloudLayout(
        countries=4,
        countries_per_continent=2,
        datacenters_per_country=1,
        rooms_per_datacenter=1,
        racks_per_room=1,
        servers_per_rack=5,
    )
    apps = (
        AppConfig(
            app_id=0, name="a", query_share=1.0,
            rings=(
                RingConfig(
                    ring_id=0, threshold=20.0, target_replicas=2,
                    partitions=6, partition_capacity=10_000,
                    initial_partition_size=1000,
                ),
            ),
        ),
    )
    return SimConfig(
        layout=layout,
        apps=apps,
        epochs=EPOCHS,
        seed=7,
        server_storage=50_000,
        server_query_capacity=100,
        replication_budget=20_000,
        migration_budget=8_000,
        base_rate=200.0,
        policy=EconomicPolicy(hysteresis=2),
        rent_model=RentModel(alpha=1.0),
        net=net,
    )


def run(config):
    events = EventSchedule(
        [RemoveServers(epoch=5, count=3)],
        layout=config.layout,
        rng=RngStreams(config.seed).events,
    )
    sim = Simulation(config, events=events)
    sim.run()
    return sim


FAULTY_NET = NetConfig(
    loss=0.3,
    rounds_per_epoch=2,
    dead_rounds=6,
    partitions=(NetPartition(start=4, heal=9, depth=2),),
)


class TestCompareRuns:
    @pytest.fixture(scope="class")
    def runs(self):
        faulty_cfg = small_config(net=FAULTY_NET)
        oracle_cfg = oracle_twin_config(faulty_cfg)
        return run(oracle_cfg), run(faulty_cfg)

    def test_identical_runs_report_no_divergence(self, runs):
        oracle, _ = runs
        report = compare_runs(oracle.metrics, oracle.metrics)
        assert report.first_divergence_epoch is None
        assert report.diverged_fields == ()
        assert "identical" in report.render()

    def test_faults_diverge_after_membership_lag(self, runs):
        oracle, faulty = runs
        report = compare_runs(oracle.metrics, faulty.metrics)
        first = report.first_divergence_epoch
        # Loss is live from epoch 0 but epoch 0 itself is computed
        # before any gossip staleness can bite, so the earliest
        # possible divergence is epoch 1 (stale prices).
        assert first is not None and first >= 1
        assert report.epochs == EPOCHS

    def test_deltas_cover_the_action_fields(self, runs):
        oracle, faulty = runs
        report = compare_runs(oracle.metrics, faulty.metrics)
        deltas = report.deltas()
        assert set(deltas) == set(DELTA_FIELDS)
        # Under these faults *something* measurably changed.
        assert any(d != 0.0 for d in deltas.values())

    def test_render_mentions_divergence_epoch(self, runs):
        oracle, faulty = runs
        report = compare_runs(oracle.metrics, faulty.metrics)
        text = report.render()
        assert "first divergence: epoch" in text
        assert "availability gap" in text

    def test_field_divergence_records_magnitude(self, runs):
        oracle, faulty = runs
        report = compare_runs(oracle.metrics, faulty.metrics)
        for name, info in report.fields.items():
            assert isinstance(info, FieldDivergence)
            if not info.diverged:
                assert info.max_abs_delta == 0.0

    def test_restricted_field_selection(self, runs):
        oracle, faulty = runs
        report = compare_runs(
            oracle.metrics, faulty.metrics, fields=("repairs",)
        )
        assert set(report.fields) == {"repairs"}

    def test_rtol_applies_to_float_fields_only(self, runs):
        oracle, faulty = runs
        exact = compare_runs(oracle.metrics, faulty.metrics)
        loose = compare_runs(oracle.metrics, faulty.metrics, rtol=1e9)
        for name in ("min_price", "mean_price", "max_price"):
            assert not loose.fields[name].diverged
        for name in exact.fields:
            if name not in ("min_price", "mean_price", "max_price"):
                assert (
                    loose.fields[name].first_epoch
                    == exact.fields[name].first_epoch
                )


class TestValidation:
    def test_empty_logs_rejected(self):
        with pytest.raises(DivergenceError):
            compare_runs(MetricsLog(), MetricsLog())

    def test_length_mismatch_rejected(self):
        sim = run(small_config())
        other = run(dataclasses.replace(small_config(), epochs=EPOCHS - 2))
        with pytest.raises(DivergenceError):
            compare_runs(sim.metrics, other.metrics)

    def test_unknown_field_rejected(self):
        sim = run(small_config())
        with pytest.raises(DivergenceError):
            compare_runs(sim.metrics, sim.metrics, fields=("bogus",))

    def test_bad_rtol_rejected(self):
        sim = run(small_config())
        with pytest.raises(DivergenceError):
            compare_runs(sim.metrics, sim.metrics, rtol=-1.0)

    def test_oracle_twin_requires_a_net(self):
        cfg = small_config()
        with pytest.raises(DivergenceError):
            oracle_twin_config(cfg)
        twin = oracle_twin_config(small_config(net=FAULTY_NET))
        assert twin.net is None
