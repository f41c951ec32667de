"""Data-plane overlay tests: frames, engine wiring, golden invariance."""

import dataclasses

import pytest

from repro.cluster.topology import CloudLayout
from repro.core.economy import RentModel
from repro.core.policy import EconomicPolicy
from repro.net.model import NetConfig, NetPartition
from repro.sim.config import (
    AppConfig,
    DataPlaneConfig,
    RingConfig,
    SimConfig,
)
from repro.sim.engine import Simulation
from repro.sim.metrics import (
    DataPlaneFrame,
    MetricsError,
    RobustnessLog,
)


def small_config(*, epochs=8, seed=0, net=None, data_plane=None):
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
        net=net, data_plane=data_plane,
    )


def frame(epoch, **kwargs):
    base = {f.name: 0 for f in dataclasses.fields(DataPlaneFrame)}
    base.update(kwargs, epoch=epoch, levels={})
    return DataPlaneFrame(**base)


class TestRobustnessLogDataPlane:
    def test_append_and_series(self):
        log = RobustnessLog()
        log.append_data_plane(frame(0, reads=3))
        log.append_data_plane(frame(1, reads=5, hints_parked=2))
        assert len(log.data_plane) == 2
        assert list(log.data_plane_series("reads")) == [3, 5]

    def test_non_monotonic_epoch_rejected(self):
        log = RobustnessLog()
        log.append_data_plane(frame(3))
        with pytest.raises(MetricsError):
            log.append_data_plane(frame(3))

    def test_summary_sums_and_peaks(self):
        log = RobustnessLog()
        log.append_data_plane(frame(0, reads=3, hint_queue_depth=4))
        log.append_data_plane(frame(1, reads=2, hint_queue_depth=1))
        summary = log.data_plane_summary()
        assert summary["reads"] == 5
        assert summary["peak_hint_queue_depth"] == 4
        assert summary["final_hint_queue_depth"] == 1

    def test_summary_aggregates_levels(self):
        log = RobustnessLog()
        log.append_data_plane(dataclasses.replace(
            frame(0), levels={"quorum": (3, 1, 0)}
        ))
        log.append_data_plane(dataclasses.replace(
            frame(1), levels={"quorum": (2, 0, 1), "one": (1, 0, 0)}
        ))
        levels = log.data_plane_summary()["levels"]
        assert levels["quorum"] == {"ok": 5, "timeouts": 1, "stale": 1}
        assert levels["one"] == {"ok": 1, "timeouts": 0, "stale": 0}

    def test_empty_summary(self):
        summary = RobustnessLog().data_plane_summary()
        assert summary["reads"] == 0
        assert summary["levels"] == {}


class TestEngineIntegration:
    def test_oracle_run_collects_clean_frames(self):
        sim = Simulation(small_config(data_plane=DataPlaneConfig()))
        sim.run()
        frames = sim.robustness.data_plane
        assert len(frames) == 8
        summary = sim.robustness.data_plane_summary()
        assert summary["reads"] > 0 and summary["writes"] > 0
        # Oracle view: no ghosts, no suspects, nothing to hint.
        assert summary["replica_timeouts"] == 0
        assert summary["suspects_skipped"] == 0
        assert summary["hints_parked"] == 0
        assert summary["read_failures"] == 0
        assert summary["write_failures"] == 0

    def test_data_plane_leaves_economy_untouched(self):
        # The acceptance bar: enabling the overlay must not perturb
        # the EpochFrame stream (goldens stay byte-identical).
        bare = Simulation(small_config())
        bare.run()
        overlaid = Simulation(small_config(data_plane=DataPlaneConfig()))
        overlaid.run()
        assert len(bare.metrics) == len(overlaid.metrics)
        for a, b in zip(bare.metrics, overlaid.metrics):
            assert a == b

    def test_folded_requests_support_clean_audit(self):
        sim = Simulation(small_config(data_plane=DataPlaneConfig()))
        sim.run()
        report = sim.data_plane.consistency_report()
        assert report.green
        assert report.operations == 48 * 8
        assert report.stale_reads == 0
        assert report.lost_writes == 0
        assert sim.data_plane.lost_writes() == []

    def test_data_plane_is_a_serving_overlay(self):
        """One overlay class: the data plane is a second front door
        on ``dp-`` keys with no client sites, whose config comes from
        one conversion."""
        from repro.serve.frontend import ServingFrontEnd

        config = DataPlaneConfig(ops_per_epoch=12, keyspace=40)
        sim = Simulation(small_config(data_plane=config))
        plane = sim.data_plane
        assert type(plane) is ServingFrontEnd
        assert plane.config == config.serving_config()
        assert plane.config.requests_per_epoch == 12
        assert plane.loadgen.keys[0].startswith(b"dp-")
        assert plane.loadgen._sites == ()
        assert sim.serving is None and sim.serving_log is None

    def test_faulty_run_diverges_from_oracle_twin(self):
        net = NetConfig(
            rounds_per_epoch=2, dead_rounds=6,
            partitions=(NetPartition(
                start=2, heal=5, depth=2,
            ),),
        )
        faulty = Simulation(small_config(
            net=net, data_plane=DataPlaneConfig(),
        ))
        faulty.run()
        oracle = Simulation(small_config(data_plane=DataPlaneConfig()))
        oracle.run()
        a = oracle.robustness.data_plane_summary()
        b = faulty.robustness.data_plane_summary()
        # The partition forces at least some serving degradation.
        degradation = sum(
            b[name] - a[name]
            for name in ("replica_timeouts", "replica_unreachable",
                         "suspects_skipped", "hints_parked")
        )
        assert degradation > 0

    def test_same_seed_same_requests(self):
        runs = []
        for _ in range(2):
            sim = Simulation(small_config(data_plane=DataPlaneConfig()))
            sim.run()
            runs.append((
                sim.robustness.data_plane,
                sim.data_plane.consistency_report(),
                sim.data_plane.store._copies,
            ))
        assert runs[0] == runs[1]

    def test_ops_per_epoch_zero_disables_clients(self):
        sim = Simulation(small_config(
            data_plane=DataPlaneConfig(ops_per_epoch=0),
        ))
        sim.run()
        assert sim.data_plane.loadgen is None
        assert sim.data_plane.frontier.tally.operations == 0
        assert sim.robustness.data_plane_summary()["reads"] == 0

    def test_unroutable_request_counts_as_a_failed_operation(self):
        """A request the Router cannot place never reaches the store,
        yet its DataPlaneFrame counts it failed — every op is counted
        once, as ok or failed."""
        sim = Simulation(small_config(
            data_plane=DataPlaneConfig(),
        ))
        sim.run(1)
        for partition in sim.rings.layout().partitions:
            for sid in list(sim.catalog.servers_of(partition.pid)):
                sim.catalog.drop(partition, sid)
        sim.data_plane.step(1)
        frame = sim.data_plane.collect_frame(1)
        assert frame.operations == 0
        assert frame.failures == 48
        assert frame.read_failures > 0 and frame.write_failures > 0
        assert sim.data_plane.store.stats.read_failures == 0
