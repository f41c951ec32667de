"""Tests for the no-differentiation ablation transform."""

import pytest

from repro.baselines.single_ring import (
    AblationError,
    expected_replica_bytes,
    strictest_level,
    undifferentiated,
)
from repro.sim.engine import Simulation
from repro.sim.scenario import compile_spec
from repro.sim.specs import paper_spec
from tests.sim.test_engine import small_config


class TestTransform:
    def test_strictest_level(self):
        cfg = compile_spec(paper_spec()).config
        threshold, replicas = strictest_level(cfg)
        assert replicas == 4
        assert threshold == max(
            r.threshold for a in cfg.apps for r in a.rings
        )

    def test_undifferentiated_pins_all_rings(self):
        cfg = undifferentiated(compile_spec(paper_spec()).config)
        levels = {
            (r.threshold, r.target_replicas)
            for a in cfg.apps
            for r in a.rings
        }
        assert len(levels) == 1
        assert levels.pop()[1] == 4

    def test_other_params_untouched(self):
        base = compile_spec(paper_spec(epochs=42, seed=9)).config
        cfg = undifferentiated(base)
        assert cfg.epochs == 42
        assert cfg.seed == 9
        assert cfg.base_rate == base.base_rate

    def test_expected_replica_bytes_grows(self):
        base = compile_spec(paper_spec()).config
        pinned = undifferentiated(base)
        assert expected_replica_bytes(pinned) > expected_replica_bytes(base)


class TestCostOverhead:
    def test_undifferentiated_costs_more_replicas(self):
        """The §I claim in miniature: one shared availability class
        forces every tenant onto the strictest level, inflating the
        replica count versus differentiated rings."""
        base_cfg = small_config(epochs=12)
        diff_log = Simulation(base_cfg).run()
        undiff_log = Simulation(undifferentiated(base_cfg)).run()
        assert (
            undiff_log.last.vnodes_total > diff_log.last.vnodes_total
        )
