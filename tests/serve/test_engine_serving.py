"""Engine-level serving tests: golden invariance, replay, fault windows.

The front door is an observer overlay — the first test class pins the
contract the goldens rely on (enabling serving changes no EpochFrame),
the second pins deterministic replay (same spec + seed ⇒ the identical
ServingFrame stream), and the third runs a link-flap window and checks
that user-visible tails rise while no acknowledged write is ever lost.
"""

import dataclasses

import pytest

from repro.cluster.topology import CloudLayout
from repro.core.economy import RentModel
from repro.core.policy import EconomicPolicy
from repro.net.model import NetConfig, NetPartition
from repro.sim.config import (
    AppConfig,
    RingConfig,
    ServingConfig,
    SimConfig,
)
from repro.sim.engine import Simulation
from repro.sim.metrics import MetricsError, ServingFrame, ServingLog
from repro.sim.scenario import FlowsSpec, ScenarioSpec, compile_spec
from repro.sim.specs import get as get_spec


def small_config(*, epochs=8, seed=0, net=None, serving=None):
    layout = CloudLayout(
        countries=4, countries_per_continent=2,
        datacenters_per_country=1, rooms_per_datacenter=1,
        racks_per_room=1, servers_per_rack=5,
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
        layout=layout, apps=apps, epochs=epochs, seed=seed,
        server_storage=50_000, server_query_capacity=100,
        replication_budget=20_000, migration_budget=8_000,
        base_rate=200.0, policy=EconomicPolicy(hysteresis=2),
        rent_model=RentModel(alpha=1.0),
        net=net, serving=serving,
    )


SERVING = ServingConfig(requests_per_epoch=48, keyspace=32, workers=16)


class TestGoldenInvariance:
    def test_serving_overlay_leaves_epoch_frames_identical(self):
        bare = Simulation(small_config())
        bare.run()
        overlaid = Simulation(small_config(serving=SERVING))
        overlaid.run()
        assert len(bare.metrics) == len(overlaid.metrics) == 8
        for a, b in zip(bare.metrics, overlaid.metrics):
            assert a == b
        # ... while the overlay itself actually served traffic.
        assert overlaid.serving.frontier.tally.operations == 48 * 8

    def test_named_serving_scenario_matches_its_baseline_twin(self):
        """serving-steady is multi-tenant-sla plus the overlay; their
        pinned frame streams must be byte-identical (the registry pins
        both digests — this runs the comparison directly)."""
        compiled = get_spec("serving-steady").pinned()
        spec = compiled.spec
        assert spec.flows.serving is not None
        with_serving = compiled.simulation()
        with_serving.run()
        stripped = compile_spec(dataclasses.replace(
            spec,
            flows=dataclasses.replace(spec.flows, serving=None),
        )).simulation()
        stripped.run()
        for a, b in zip(stripped.metrics, with_serving.metrics):
            assert a == b
        assert with_serving.serving_log.summary()["requests"] > 0

    def test_serving_off_builds_nothing(self):
        sim = Simulation(small_config())
        assert sim.serving is None and sim.serving_log is None


class TestDeterministicReplay:
    def test_same_seed_same_frame_stream(self):
        streams = []
        for __ in range(2):
            sim = Simulation(small_config(serving=SERVING))
            sim.run()
            streams.append(list(sim.serving_log))
        assert streams[0] == streams[1]
        assert len(streams[0]) == 8

    def test_different_seed_different_stream(self):
        a = Simulation(small_config(serving=SERVING))
        a.run()
        b = Simulation(small_config(serving=SERVING, seed=1))
        b.run()
        assert list(a.serving_log) != list(b.serving_log)

    def test_spec_tier_compiles_and_replays(self):
        entry = get_spec("serving-steady")
        runs = []
        for __ in range(2):
            sim = entry.pinned().simulation()
            sim.run()
            runs.append(list(sim.serving_log))
        assert runs[0] == runs[1]

    def test_serving_traffic_roundtrips_through_dict(self):
        traffic = ServingConfig(requests_per_epoch=64, workers=8)
        spec = ScenarioSpec(name="x", flows=FlowsSpec(serving=traffic))
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert compile_spec(rebuilt).config.serving == traffic


class TestFaultWindow:
    def test_flap_raises_tails_and_loses_no_writes(self):
        epochs = 12
        flap = NetConfig(
            rounds_per_epoch=2, dead_rounds=6,
            partitions=(NetPartition(
                start_epoch=3, heal_epoch=7, depth=2,
            ),),
        )
        clean = Simulation(small_config(
            epochs=epochs, serving=SERVING,
        ))
        clean.run()
        faulty = Simulation(small_config(
            epochs=epochs, net=flap, serving=SERVING,
        ))
        faulty.run()
        clean_peak = clean.serving_log.series("write_p999_ms").max()
        faulty_peak = faulty.serving_log.series("write_p999_ms").max()
        # The flapped server times out in-quorum fan-outs: the
        # user-visible tail must rise above the clean run's.
        assert faulty_peak > clean_peak
        # ... but sloppy-quorum durability holds: every write the
        # front door acknowledged still survives somewhere.
        assert faulty.serving.lost_writes() == []
        assert clean.serving.lost_writes() == []


class TestServingLog:
    def frame(self, epoch, **kwargs):
        base = dict(
            epoch=epoch, requests=0, reads=0, writes=0,
            read_failures=0, write_failures=0,
            sla_read_violations=0, sla_write_violations=0,
            requests_per_sec=0.0, read_p50_ms=0.0, read_p99_ms=0.0,
            read_p999_ms=0.0, write_p50_ms=0.0, write_p99_ms=0.0,
            write_p999_ms=0.0, mean_queue_ms=0.0,
        )
        base.update(kwargs)
        return ServingFrame(**base)

    def test_round_trip_exact(self):
        log = ServingLog()
        first = self.frame(0, requests=5, reads=3, writes=2,
                           read_p999_ms=42.5)
        log.append(first)
        log.append(self.frame(1, requests=7))
        assert log[0] == first
        assert log.last.epoch == 1
        assert [f.epoch for f in log] == [0, 1]

    def test_non_monotonic_epoch_rejected(self):
        log = ServingLog()
        log.append(self.frame(3))
        with pytest.raises(MetricsError):
            log.append(self.frame(3))

    def test_series_and_derived(self):
        log = ServingLog()
        log.append(self.frame(0, requests=4, read_failures=1,
                              write_failures=2))
        log.append(self.frame(1, requests=6))
        assert list(log.series("requests")) == [4.0, 6.0]
        assert list(log.series("failures")) == [3.0, 0.0]
        with pytest.raises(MetricsError):
            log.series("nope")

    def test_summary_totals_and_attainment(self):
        log = ServingLog()
        log.append(self.frame(0, requests=10, sla_read_violations=2,
                              read_p999_ms=50.0))
        log.append(self.frame(1, requests=10, read_p999_ms=150.0))
        summary = log.summary()
        assert summary["requests"] == 20
        assert summary["sla_attainment"] == pytest.approx(0.9)
        assert summary["peak_read_p999_ms"] == 150.0

    def test_empty_summary(self):
        assert ServingLog().summary() == {"epochs": 0}
        with pytest.raises(MetricsError):
            ServingLog().last
