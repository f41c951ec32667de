"""Engine ↔ metrics integration: traffic accounting and series sanity."""

import numpy as np
import pytest

from repro.analysis.latency import OverheadLedger
from repro.sim.engine import Simulation
from tests.sim.test_engine import small_config


class TestTrafficAccounting:
    def test_replication_bytes_recorded_during_convergence(self):
        sim = Simulation(small_config(epochs=8))
        log = sim.run()
        rep = log.series("replication_bytes")
        # Startup repair copies every partition at least once.
        seeded = sum(
            ring.partitions * ring.initial_partition_size
            for app in sim.config.apps for ring in app.rings
        )
        assert rep.sum() >= seeded

    def test_bytes_match_action_counts(self):
        """Every replication moves exactly one partition's bytes."""
        cfg = small_config(epochs=8, initial_size=1000)
        sim = Simulation(cfg)
        log = sim.run()
        # All partitions are 1000 bytes and no inserts run, so bytes
        # are a fixed multiple of the action counts.
        reps = log.series("repairs") + log.series("economic_replications")
        rep_bytes = log.series("replication_bytes")
        # Large moves ride the replication budget too (migrations of
        # >migration-budget partitions), but at 1000 bytes none occur.
        assert np.all(rep_bytes == reps * 1000)

    def test_overhead_ledger_integration(self):
        sim = Simulation(small_config(epochs=6))
        log = sim.run()
        ledger = OverheadLedger()
        for frame in log:
            ledger.record(frame.replication_bytes, frame.migration_bytes)
        assert ledger.total_bytes == int(
            log.series("replication_bytes").sum()
            + log.series("migration_bytes").sum()
        )
        assert ledger.epochs == len(log)


class TestFrameSanity:
    def test_vnode_conservation_across_frames(self):
        """vnodes_total equals both the per-ring and per-server sums."""
        sim = Simulation(small_config(epochs=8))
        log = sim.run()
        for frame in log:
            assert frame.vnodes_total == sum(
                frame.vnodes_per_ring.values()
            )
            assert frame.vnodes_total == sum(
                frame.vnodes_per_server.values()
            )
            assert frame.vnodes_total == (
                frame.vnodes_on_cheap + frame.vnodes_on_expensive
            )

    def test_queries_conserved(self):
        sim = Simulation(small_config(epochs=8))
        log = sim.run()
        for frame in log:
            served = sum(frame.queries_per_ring.values())
            assert served + frame.unavailable_queries == pytest.approx(
                frame.total_queries
            )

    def test_prices_ordered(self):
        log = Simulation(small_config(epochs=5)).run()
        for frame in log:
            assert frame.min_price <= frame.mean_price <= frame.max_price
