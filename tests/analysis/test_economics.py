"""Per-agent economics read off the agent ledger arrays."""

import pytest

from repro.analysis.economics import (
    EconomicsError,
    agent_economics,
    ledger_arrays,
    ring_convergence_epochs,
    ring_economics,
    summarize_economics,
    vnode_spread_series,
    wealth_histogram,
)
from repro.core.agent import AgentRegistry
from repro.ring.partition import PartitionId
from repro.sim.scenario import compile_spec
from repro.sim.specs import paper_spec


def pid(app, ring, seq):
    return PartitionId(app_id=app, ring_id=ring, seq=seq)


def build_registry():
    registry = AgentRegistry(window=2)
    # Ring (0, 0): two partitions, three agents.
    a = registry.spawn(pid(0, 0, 0), 1)
    b = registry.spawn(pid(0, 0, 0), 2)
    c = registry.spawn(pid(0, 0, 1), 3)
    # Ring (1, 1): one partition, one agent.
    d = registry.spawn(pid(1, 1, 0), 4)
    a.record(3.0, 1.0)   # wealth +2, one epoch
    a.record(3.0, 1.0)   # wealth +4 total
    b.record(0.5, 1.0)   # wealth -0.5
    c.record(2.0, 1.0)   # wealth +1
    d.record(1.0, 1.0)   # wealth 0
    registry.rehome(pid(0, 0, 1), 3, 9)  # one migration for c
    return registry


class TestLedgerArrays:
    def test_arrays_cover_live_agents(self):
        wealth, epochs, moves = ledger_arrays(build_registry())
        assert wealth.size == 4
        assert sorted(wealth.tolist()) == [-0.5, 0.0, 1.0, 4.0]
        assert epochs.sum() == 5
        assert moves.sum() == 1

    def test_empty_registry_raises(self):
        with pytest.raises(EconomicsError):
            ledger_arrays(AgentRegistry(window=2))

    def test_retired_agents_leave_the_arrays(self):
        registry = build_registry()
        registry.retire(pid(0, 0, 0), 1)
        wealth, __, __ = ledger_arrays(registry)
        assert wealth.size == 3
        assert 4.0 not in wealth.tolist()


class TestAgentEconomics:
    def test_summary_fields(self):
        econ = agent_economics(build_registry())
        assert econ.agents == 4
        assert econ.mean_wealth == pytest.approx((4.0 - 0.5 + 1.0) / 4)
        assert econ.total_moves == 1
        assert econ.wealth["max"] == 4.0
        assert econ.epochs_alive["max"] == 2.0
        assert 0.0 <= econ.wealth_gini <= 1.0

    def test_ring_grouping(self):
        rings = ring_economics(build_registry())
        assert [entry.ring for entry in rings] == [(0, 0), (1, 1)]
        ring0 = rings[0]
        assert ring0.agents == 3
        assert ring0.wealth_total == pytest.approx(4.5)
        assert ring0.moves_total == 1
        assert rings[1].agents == 1
        assert rings[1].wealth_total == pytest.approx(0.0)

    def test_wealth_histogram_buckets(self):
        buckets = wealth_histogram(build_registry(), bins=3)
        assert sum(count for __, __, count in buckets) == 4
        assert buckets[0][0] == pytest.approx(-0.5)
        assert buckets[-1][1] == pytest.approx(4.0)
        with pytest.raises(EconomicsError):
            wealth_histogram(build_registry(), bins=0)


class TestSimulationIntegration:
    @pytest.fixture(scope="class")
    def sim_and_log(self):
        sim = compile_spec(
            paper_spec(epochs=12, seed=3, partitions=16)
        ).simulation()
        return sim, sim.run()

    def test_spread_series_reads_stored_histograms(self, sim_and_log):
        import numpy as np

        __, log = sim_and_log
        spread = vnode_spread_series(log)
        assert spread.size == 12
        assert (spread >= 0).all() and (spread <= 1).all()
        # Replication occupies more distinct servers over the run (the
        # Fig. 2 direction; the gini itself is scale-sensitive on tiny
        # configs, so assert the occupancy signal instead).
        first = np.count_nonzero(log.vnode_counts(0))
        last = np.count_nonzero(log.vnode_counts(-1))
        assert last > first

    def test_convergence_epochs_per_ring(self, sim_and_log):
        __, log = sim_and_log
        settled = ring_convergence_epochs(log, tolerance=0.1, window=4)
        assert set(settled) == set(log.rings())
        for epoch in settled.values():
            assert epoch is None or 0 <= epoch < 12

    def test_summarize_bundle(self, sim_and_log):
        sim, log = sim_and_log
        bundle = summarize_economics(sim.registry, log)
        assert bundle["agents"].agents == len(sim.registry)
        assert len(bundle["rings"]) == len(log.rings())
        assert 0.0 <= bundle["spread_last"] <= 1.0
        assert 0.0 <= bundle["spread_first"] <= 1.0

    def test_epochs_alive_tracks_horizon(self, sim_and_log):
        sim, __ = sim_and_log
        __, epochs, __ = ledger_arrays(sim.registry)
        # No agent can have settled more epochs than the run has.
        assert epochs.max() <= 12
