"""End-to-end miniatures of the paper's §III claims.

Each test runs a scaled-down version of one evaluation scenario and
asserts the qualitative result the corresponding figure shows.  The
full-scale reproductions live in ``benchmarks/``; these keep the claims
under continuous test at unit-test cost.
"""

import numpy as np
import pytest

from repro.analysis.series import convergence_epoch, relative_spread
from repro.analysis.stats import jain_index
from repro.cluster.events import AddServers, EventSchedule, RemoveServers
from repro.core.availability import availability
from repro.sim.config import InsertConfig
from repro.sim.engine import Simulation
from repro.sim.scenario import LeaveWave, OutageEvent, compile_spec
from repro.workload.slashdot import slashdot_profile
from tests.sim.test_engine import consistency_check, small_config, small_layout
from tests.spec_samplers import sample_spec


class TestFig2Miniature:
    """Startup convergence: replication settles, expensive servers end
    up with fewer virtual nodes."""

    def test_vnode_total_converges(self):
        log = Simulation(small_config(epochs=25)).run()
        series = log.series("vnodes_total")
        # At miniature scale (12 partitions) single replications move
        # the total by ~3%, hence the 10% band.
        assert convergence_epoch(series, tolerance=0.1, window=10) is not None

    def test_expensive_servers_host_fewer_vnodes(self):
        cfg = small_config(epochs=25)
        sim = Simulation(cfg)
        log = sim.run()
        last = log.last
        expensive = [
            s.server_id for s in sim.cloud if s.monthly_rent > cfg.cheap_rent
        ]
        cheap = [
            s.server_id for s in sim.cloud
            if s.monthly_rent <= cfg.cheap_rent
        ]
        mean_exp = np.mean(
            [last.vnodes_per_server[s] for s in expensive]
        )
        mean_cheap = np.mean([last.vnodes_per_server[s] for s in cheap])
        assert mean_exp < mean_cheap


class TestFig3Miniature:
    """Elasticity: vnode totals stay flat on arrivals, rise on failures."""

    def test_totals_flat_across_arrival_and_recover_after_failure(self):
        events = EventSchedule(
            [
                AddServers(epoch=10, count=4, storage_capacity=50_000,
                           query_capacity=100),
                RemoveServers(epoch=20, count=4),
            ],
            layout=small_layout(),
            rng=np.random.default_rng(0),
        )
        sim = Simulation(small_config(epochs=35), events=events)
        log = sim.run()
        totals = log.series("vnodes_total")
        # Flat across the arrival (epochs 8..18, after initial repair);
        # at this miniature scale a couple of economic replications /
        # suicides wiggle the total, hence the loose band.
        assert relative_spread(totals[8:19]) < 0.2
        # Every surviving partition is re-protected at the end.  (With
        # only 2 replicas on the lowest ring, a simultaneous 4-of-20
        # server failure can destroy a partition outright — the price
        # of the cheapest SLA; the paper's 200-server setup makes this
        # correspondingly rarer.)
        assert log.last.unsatisfied_partitions == 0
        assert log.last.lost_partitions <= 1
        consistency_check(sim)

    def test_repairs_fire_after_failure_not_after_arrival(self):
        events = EventSchedule(
            [
                AddServers(epoch=10, count=4, storage_capacity=50_000,
                           query_capacity=100),
                # Half the cloud fails: some partition must drop below
                # its threshold no matter where replicas sat.
                RemoveServers(epoch=20, count=12),
            ],
            layout=small_layout(),
            rng=np.random.default_rng(1),
        )
        log = Simulation(small_config(epochs=32), events=events).run()
        repairs = log.series("repairs")
        assert repairs[10:15].sum() == 0
        assert repairs[20:28].sum() >= 1
        assert log.last.unsatisfied_partitions == 0


class TestFig4Miniature:
    """Slashdot spike: per-server load stays balanced through the surge."""

    def test_load_balanced_through_spike(self):
        from dataclasses import replace

        cfg = small_config(epochs=40)
        cfg = replace(
            cfg,
            profile=slashdot_profile(
                base_rate=200.0, peak_rate=4000.0, spike_epoch=10,
                ramp_epochs=5, decay_epochs=20,
            ),
        )
        sim = Simulation(cfg)
        baseline_jain = None
        peak_jains = []
        vnodes_at = {}
        for epoch in range(40):
            sim.step()
            loads = [s.queries_this_epoch for s in sim.cloud]
            if epoch == 8:
                baseline_jain = jain_index(loads)
            if 15 <= epoch <= 25:
                peak_jains.append(jain_index(loads))
            vnodes_at[epoch] = sim.catalog.total_replicas
        log = sim.metrics
        # The spike actually happened.
        assert log.series("total_queries")[14:18].max() > 3000
        # During the surge the load is spread well across servers...
        assert min(peak_jains) > 0.6
        # ...and better than at (sparse) baseline load.
        assert min(peak_jains) > baseline_jain
        # Replication expanded for the surge and contracted afterwards.
        assert vnodes_at[17] > vnodes_at[8]
        assert vnodes_at[39] < vnodes_at[17]

    def test_app_shares_hold_during_spike(self):
        from dataclasses import replace

        cfg = small_config(epochs=30)
        cfg = replace(
            cfg,
            profile=slashdot_profile(
                base_rate=200.0, peak_rate=4000.0, spike_epoch=5,
                ramp_epochs=5, decay_epochs=15,
            ),
        )
        log = Simulation(cfg).run()
        served_a = log.ring_series("queries_per_ring", (0, 0)).sum()
        served_b = log.ring_series("queries_per_ring", (1, 1)).sum()
        share_a = served_a / (served_a + served_b)
        assert share_a == pytest.approx(0.7, abs=0.05)


class TestFig5Miniature:
    """Storage saturation: failures only near capacity, storage balanced."""

    def test_no_failures_until_high_utilisation(self):
        cfg = small_config(
            epochs=250,
            server_storage=3000,
            initial_size=100,
            partition_capacity=300,
            inserts=InsertConfig(rate=10, object_size=20, start_epoch=0),
            alpha=3.0,  # storage pressure dominates in this scenario
        )
        sim = Simulation(cfg)
        log = sim.run()
        failures = log.series("insert_failures")
        fractions = log.storage_fraction_series()
        first_failure = next(
            (i for i, f in enumerate(failures) if f > 0), None
        )
        assert first_failure is not None, "scenario must saturate"
        # The cloud was already heavily utilised when failures began.
        assert fractions[first_failure] > 0.7

    def test_storage_stays_within_capacity(self):
        cfg = small_config(
            epochs=50,
            server_storage=3000,
            initial_size=100,
            partition_capacity=300,
            inserts=InsertConfig(rate=10, object_size=20, start_epoch=0),
        )
        sim = Simulation(cfg)
        log = sim.run()
        for server in sim.cloud:
            assert server.storage_used <= server.storage_capacity
        consistency_check(sim)


class TestDifferentiation:
    """The headline: three rings hold different replica degrees."""

    def test_rings_converge_to_distinct_replica_counts(self):
        log = Simulation(small_config(epochs=15)).run()
        last = log.last
        per_partition_a = last.vnodes_per_ring[(0, 0)] / 6
        per_partition_b = last.vnodes_per_ring[(1, 1)] / 6
        assert per_partition_a >= 2
        assert per_partition_b >= 3
        assert per_partition_b > per_partition_a

    def test_availability_thresholds_respected_per_ring(self):
        sim = Simulation(small_config(epochs=15))
        sim.run()
        for ring in sim.rings:
            for p in ring:
                servers = sim.catalog.servers_of(p.pid)
                assert availability(sim.cloud, servers) >= ring.level.threshold


def check_sampled_invariants(seed: int) -> None:
    """Universal invariants over one sampled-spec run.

    Unlike the figure miniatures above (which assert *qualitative
    paper claims* on curated configs), these must hold for every spec
    the sampler can draw — adversarially small clouds, churn waves,
    surges, insert streams included.
    """
    spec = sample_spec(seed)
    compiled = compile_spec(spec)
    sim = compiled.simulation()
    log = sim.run()
    # Cross-module bookkeeping agrees (catalog <-> agent rows <-> rings).
    consistency_check(sim)
    # Physical capacity is never violated, whatever the economy did.
    for server in sim.cloud:
        assert server.storage_used <= server.storage_capacity
    last = log.last
    # Frame accounting matches ground truth at the horizon.
    assert last.vnodes_total == sim.catalog.total_replicas
    assert sum(last.vnodes_per_server.values()) == last.vnodes_total
    # Every partition still in the catalog has at least one live copy.
    for pid in sim.catalog.partitions():
        assert sim.catalog.replica_count(pid) >= 1
    # Without membership loss there is no way to lose a partition.
    destructive = (LeaveWave, OutageEvent)
    if not any(isinstance(e, destructive) for e in spec.failure.events):
        assert log.series("lost_partitions").max() == 0


class TestSampledSpecInvariants:
    """Paper invariants over the same sampled-spec space the
    randomized kernel-equivalence harness draws from."""

    @pytest.mark.parametrize("seed", range(4))
    def test_invariants_fast_seeds(self, seed):
        check_sampled_invariants(seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(4, 16))
    def test_invariants_sweep(self, seed):
        check_sampled_invariants(seed)
