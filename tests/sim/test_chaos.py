"""Tests for randomized fault schedules and the consistency audit."""

import pytest

from repro.cluster.topology import CloudLayout
from repro.core.economy import RentModel
from repro.core.policy import EconomicPolicy
from repro.net.model import NetConfig
from repro.sim.chaos import (
    ChaosError,
    random_fault_schedule,
    run_consistency_audit,
)
from repro.sim.config import (
    AppConfig,
    DataPlaneConfig,
    RingConfig,
    SimConfig,
)


def small_config(*, epochs=12, seed=0, net=None, data_plane=None):
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


class TestRandomFaultSchedule:
    def test_reproducible(self):
        a = random_fault_schedule(7, 40)
        b = random_fault_schedule(7, 40)
        assert a == b

    def test_different_seeds_differ(self):
        draws = {random_fault_schedule(s, 40) for s in range(8)}
        assert len(draws) > 1

    def test_loss_within_range(self):
        for seed in range(10):
            net = random_fault_schedule(
                seed, 40, loss_range=(0.05, 0.10)
            )
            assert 0.05 <= net.loss <= 0.10

    def test_windows_respect_quiet_tail(self):
        for seed in range(10):
            net = random_fault_schedule(seed, 40, quiet_tail=10)
            horizon = 30
            for cut in net.partitions:
                assert cut.heal <= horizon
            for flap in net.flaps:
                assert flap.heal <= horizon

    def test_base_config_is_preserved(self):
        base = NetConfig(
            rounds_per_epoch=5, dead_rounds=12,
        )
        net = random_fault_schedule(3, 40, base=base)
        assert net.rounds_per_epoch == 5
        assert net.dead_rounds == 12

    def test_bad_parameters_raise(self):
        with pytest.raises(ChaosError):
            random_fault_schedule(0, 0)
        with pytest.raises(ChaosError):
            random_fault_schedule(0, 40, quiet_tail=-1)
        with pytest.raises(ChaosError):
            random_fault_schedule(0, 40, loss_range=(0.5, 0.2))
        with pytest.raises(ChaosError):
            random_fault_schedule(0, 40, loss_range=(0.0, 1.0))


class TestRunConsistencyAudit:
    def test_rejects_negative_settle(self):
        with pytest.raises(ChaosError):
            run_consistency_audit(small_config(), settle_epochs=-1)

    def test_attaches_default_data_plane(self):
        audit = run_consistency_audit(
            small_config(epochs=4), settle_epochs=2
        )
        assert audit.sim.data_plane is not None
        assert audit.report.operations > 0

    def test_audit_green_under_faults(self):
        # The ISSUE 7 acceptance bar: a seeded network-only fault
        # schedule must never lose a committed QUORUM write once
        # hints drain through the settle phase.
        epochs = 16
        net = random_fault_schedule(11, epochs, quiet_tail=6)
        audit = run_consistency_audit(
            small_config(epochs=epochs, net=net,
                         data_plane=DataPlaneConfig(ops_per_epoch=24)),
            settle_epochs=12,
        )
        assert audit.green
        assert audit.report.lost_writes == 0
        assert audit.report.dirty_ghost_reads == 0
        # The settle phase drained the sloppy-quorum window.
        assert audit.sim.data_plane.hints.depth == 0
        # Settle epochs extend the data-plane frame stream, not the
        # economic one.
        frames = audit.sim.robustness.data_plane
        assert len(frames) == epochs + audit.settle_epochs
        assert len(audit.sim.metrics) == epochs + audit.settle_epochs

    def test_settle_phase_pauses_clients(self):
        audit = run_consistency_audit(
            small_config(epochs=4), settle_epochs=3
        )
        ops = audit.sim.robustness.data_plane_series("operations")
        failures = audit.sim.robustness.data_plane_series("failures")
        assert list(ops[4:] + failures[4:]) == [0, 0, 0]
        assert audit.report.operations == 48 * 4
        assert not audit.sim.data_plane.serving_enabled
