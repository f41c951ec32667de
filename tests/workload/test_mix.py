"""Unit tests for the multi-application workload mix."""

import numpy as np
import pytest

from repro.ring.partition import PartitionId
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.sim.scenario import compile_spec
from repro.sim.specs import paper_spec
from repro.workload.arrivals import ConstantRate
from repro.workload.mix import (
    ApplicationSpec,
    WorkloadError,
    WorkloadMix,
)
from repro.workload.popularity import PopularityMap


def layout_of(sizes):
    """A ring layout with one ring of ``sizes[app]`` partitions per app
    (pids ``PartitionId(app, 0, 0..n-1)``)."""
    rings = RingSet()
    for app, n in sizes.items():
        rings.add_ring(app, 0, AvailabilityLevel(1.0, 1), n)
    return rings.layout()


#: The evaluation's three applications, with 4/7, 2/7, 1/7 shares.
PAPER_APPS = (
    ApplicationSpec(app_id=0, name="app-1", query_share=4.0 / 7.0),
    ApplicationSpec(app_id=1, name="app-2", query_share=2.0 / 7.0),
    ApplicationSpec(app_id=2, name="app-3", query_share=1.0 / 7.0),
)


def make_mix(rate=7000.0, seed=0):
    return WorkloadMix(
        list(PAPER_APPS), ConstantRate(rate), np.random.default_rng(seed)
    )


def uniform_pop(all_pids):
    return PopularityMap({pid: 1.0 for pid in all_pids})


class TestSpecs:
    def test_paper_spec_shares(self):
        apps = compile_spec(paper_spec()).config.apps
        assert [a.query_share for a in apps] == pytest.approx(
            [a.query_share for a in PAPER_APPS]
        )

    def test_duplicate_ids_rejected(self):
        specs = [
            ApplicationSpec(app_id=0, name="a", query_share=0.5),
            ApplicationSpec(app_id=0, name="b", query_share=0.5),
        ]
        with pytest.raises(WorkloadError):
            WorkloadMix(specs, ConstantRate(1.0), np.random.default_rng(0))

    def test_empty_apps_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadMix([], ConstantRate(1.0), np.random.default_rng(0))

    def test_zero_total_share_rejected(self):
        specs = [ApplicationSpec(app_id=0, name="a", query_share=0.0)]
        with pytest.raises(WorkloadError):
            WorkloadMix(specs, ConstantRate(1.0), np.random.default_rng(0))

    def test_negative_share_rejected(self):
        with pytest.raises(WorkloadError):
            ApplicationSpec(app_id=0, name="a", query_share=-1.0)

    def test_app_lookup(self):
        mix = make_mix()
        assert mix.app(1).name == "app-2"
        with pytest.raises(WorkloadError):
            mix.app(9)


class TestDraw:
    def test_totals_conserved(self):
        mix = make_mix()
        parts = layout_of({a: 10 for a in range(3)})
        pop = uniform_pop(parts.pids)
        load = mix.draw(0, parts, pop)
        assert sum(load.per_app.values()) == load.total_queries
        assert sum(load.per_partition.values()) == load.total_queries

    def test_app_shares_respected(self):
        mix = make_mix(rate=70_000)
        parts = layout_of({a: 10 for a in range(3)})
        pop = uniform_pop(parts.pids)
        totals = np.zeros(3)
        for epoch in range(20):
            load = mix.draw(epoch, parts, pop)
            for a in range(3):
                totals[a] += load.per_app[a]
        shares = totals / totals.sum()
        assert shares == pytest.approx([4 / 7, 2 / 7, 1 / 7], abs=0.01)

    def test_partitions_respect_popularity(self):
        specs = [ApplicationSpec(app_id=0, name="a", query_share=1.0)]
        mix = WorkloadMix(specs, ConstantRate(10_000),
                          np.random.default_rng(0))
        parts = layout_of({0: 2})
        hot, cold = parts.apps[0]
        pop = PopularityMap({hot: 9.0, cold: 1.0})
        load = mix.draw(0, parts, pop)
        assert load.queries_for(hot) > 8000

    def test_queries_for_missing_partition_is_zero(self):
        mix = make_mix()
        parts = layout_of({a: 2 for a in range(3)})
        pop = uniform_pop(parts.pids)
        load = mix.draw(0, parts, pop)
        assert load.queries_for(PartitionId(9, 9, 9)) == 0

    def test_app_with_queries_but_no_partitions_rejected(self):
        mix = make_mix()
        parts = layout_of({0: 2})  # apps 1, 2 missing
        pop = uniform_pop(parts.pids)
        with pytest.raises(WorkloadError):
            mix.draw(0, parts, pop)

    def test_deterministic_with_seed(self):
        parts = layout_of({a: 5 for a in range(3)})
        pop = uniform_pop(parts.pids)
        a = make_mix(seed=3).draw(0, parts, pop)
        b = make_mix(seed=3).draw(0, parts, pop)
        assert a.per_partition == b.per_partition
