"""Tests for the static Dynamo-style baseline."""

import numpy as np
import pytest

from repro.baselines.static import StaticDecider, static_decider
from repro.sim.engine import Simulation
from tests.sim.test_engine import consistency_check, small_config


class TestStaticDecider:
    def test_tops_up_to_target_replicas(self):
        sim = Simulation(small_config(epochs=8),
                         decider_factory=static_decider)
        log = sim.run()
        for ring in sim.rings:
            target = ring.level.target_replicas
            for p in ring:
                assert sim.catalog.replica_count(p.pid) == target
        consistency_check(sim)

    def test_never_migrates_or_suicides(self):
        sim = Simulation(small_config(epochs=10),
                         decider_factory=static_decider)
        log = sim.run()
        totals = log.action_totals()
        assert totals["migrations"] == 0
        assert totals["suicides"] == 0
        assert totals["economic_replications"] == 0

    def test_placement_is_deterministic_successors(self):
        a = Simulation(small_config(seed=3), decider_factory=static_decider)
        a.run()
        b = Simulation(small_config(seed=3), decider_factory=static_decider)
        b.run()
        for pid in a.catalog.partitions():
            assert sorted(a.catalog.servers_of(pid)) == sorted(
                b.catalog.servers_of(pid)
            )

    def test_static_ignores_diversity(self):
        """Static successor placement can colocate replicas in one rack;
        the economic policy never leaves a 2-replica partition that low.

        Compared over the same scenario, static placement must yield a
        strictly worse (or equal) minimum availability."""
        from repro.core.availability import availability

        static_sim = Simulation(small_config(seed=1, epochs=8),
                                decider_factory=static_decider)
        static_sim.run()
        econ_sim = Simulation(small_config(seed=1, epochs=8))
        econ_sim.run()

        def min_avail(sim):
            return min(
                availability(sim.cloud, sim.catalog.servers_of(p.pid))
                for p in sim.rings.layout().partitions
            )

        assert min_avail(static_sim) <= min_avail(econ_sim)

    def test_repairs_after_failure(self):
        from repro.cluster.events import EventSchedule, RemoveServers
        from tests.sim.test_engine import small_layout

        events = EventSchedule(
            [RemoveServers(epoch=3, count=2)],
            layout=small_layout(),
            rng=np.random.default_rng(0),
        )
        sim = Simulation(small_config(epochs=10), events=events,
                         decider_factory=static_decider)
        log = sim.run()
        for ring in sim.rings:
            for p in ring:
                assert (
                    sim.catalog.replica_count(p.pid)
                    == ring.level.target_replicas
                )
