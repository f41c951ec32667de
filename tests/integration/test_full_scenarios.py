"""Cross-cutting integration: the paper's spec templates end to end.

Short runs of every stock scenario, checking the invariants that the
figure benches assert at full scale — these keep the scenario wiring
itself under unit-test-speed coverage.
"""

import numpy as np
import pytest

from repro.baselines.static import static_decider
from repro.sim.engine import Simulation
from repro.sim.scenario import compile_spec
from repro.sim.specs import paper_spec, saturation_spec, slashdot_spec


class TestPaperScenario:
    def test_short_run_reaches_targets(self):
        sim = compile_spec(paper_spec(epochs=15, partitions=20)).simulation()
        log = sim.run()
        assert log.last.unsatisfied_partitions == 0
        ring_totals = log.last.vnodes_per_ring
        assert ring_totals[(0, 0)] >= 2 * 20
        assert ring_totals[(1, 1)] >= 3 * 20
        assert ring_totals[(2, 2)] >= 4 * 20

    def test_deterministic_across_runs(self):
        compiled = compile_spec(paper_spec(epochs=10, partitions=15, seed=2))
        a, b = compiled.simulation(), compiled.simulation()
        assert list(a.run().series("vnodes_total")) == list(
            b.run().series("vnodes_total")
        )

    def test_static_decider_runs_paper_spec(self):
        sim = compile_spec(paper_spec(epochs=10, partitions=15)).simulation(
            decider_factory=static_decider
        )
        log = sim.run()
        for ring in sim.rings:
            for p in ring:
                assert (
                    sim.catalog.replica_count(p.pid)
                    == ring.level.target_replicas
                )


class TestSlashdotScenario:
    def test_spike_profile_wired(self):
        cfg = compile_spec(slashdot_spec(
            epochs=30, partitions=15, spike_epoch=5, ramp_epochs=5,
            decay_epochs=15, base_rate=500.0, peak_factor=10.0,
        )).config
        log = Simulation(cfg).run()
        totals = log.series("total_queries")
        assert totals[10:14].max() > 3 * totals[:5].mean()


class TestSaturationScenario:
    def test_inserts_and_policy_wired(self):
        cfg = compile_spec(saturation_spec(epochs=10, insert_rate=500)).config
        assert cfg.policy.hysteresis == 2
        assert cfg.rent_model.alpha == 8.0
        log = Simulation(cfg).run()
        assert log.series("insert_attempts").sum() == 10 * 500
        assert log.last.storage_used > 0

    def test_popularity_routing_variant(self):
        cfg = compile_spec(saturation_spec(
            epochs=5, insert_rate=200, insert_routing="popularity"
        )).config
        log = Simulation(cfg).run()
        assert log.series("insert_attempts").sum() == 5 * 200
