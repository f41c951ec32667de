"""Tests for the correlated-failure durability model."""

import numpy as np
import pytest

from repro.analysis.durability import (
    DurabilityError,
    FailureModel,
    monte_carlo_loss,
    partition_loss_table,
    summarize_durability,
)
from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.store.replica import ReplicaCatalog

RNG = np.random.default_rng(1)


def cloud_with(*locations):
    cloud = Cloud()
    for i, loc in enumerate(locations):
        cloud.add_servers([make_server(i, Location(*loc),
                                       storage_capacity=10**9)])
    return cloud


class TestFailureModel:
    def test_defaults_ordered_by_blast_radius(self):
        m = FailureModel()
        assert m.continent < m.country < m.datacenter
        assert m.room < m.rack < m.server

    def test_invalid_probability(self):
        with pytest.raises(DurabilityError):
            FailureModel(server=1.5)

    def test_unknown_level(self):
        with pytest.raises(DurabilityError):
            FailureModel().probability("galaxy")


class TestMonteCarloLoss:
    def test_no_replicas_is_certain_loss(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0))
        assert monte_carlo_loss(cloud, [], FailureModel(), rng=RNG) == 1.0

    def test_single_replica_loss_close_to_server_rate(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0))
        model = FailureModel(
            continent=0, country=0, datacenter=0, room=0, rack=0,
            server=0.1,
        )
        loss = monte_carlo_loss(cloud, [0], model, trials=40000,
                                rng=np.random.default_rng(2))
        assert loss == pytest.approx(0.1, abs=0.01)

    def test_same_rack_pair_dies_together(self):
        """Colocated replicas share the rack domain: loss ≈ rack rate,
        not rack rate squared."""
        cloud = cloud_with((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1))
        model = FailureModel(
            continent=0, country=0, datacenter=0, room=0, rack=0.1,
            server=0.0,
        )
        loss = monte_carlo_loss(cloud, [0, 1], model, trials=40000,
                                rng=np.random.default_rng(3))
        assert loss == pytest.approx(0.1, abs=0.01)

    def test_cross_continent_pair_is_independent(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
        model = FailureModel(
            continent=0, country=0, datacenter=0, room=0, rack=0.1,
            server=0.0,
        )
        loss = monte_carlo_loss(cloud, [0, 1], model, trials=60000,
                                rng=np.random.default_rng(4))
        assert loss == pytest.approx(0.01, abs=0.005)

    def test_dispersion_strictly_reduces_loss(self):
        """The premise of eq. 2, ground-truthed."""
        cloud = cloud_with(
            (0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1),  # same rack as 0
            (1, 0, 0, 0, 0, 0),  # other continent
        )
        model = FailureModel()
        colocated = monte_carlo_loss(cloud, [0, 1], model, trials=60000,
                                     rng=np.random.default_rng(5))
        dispersed = monte_carlo_loss(cloud, [0, 2], model, trials=60000,
                                     rng=np.random.default_rng(5))
        assert dispersed < colocated

    def test_more_replicas_never_hurt(self):
        cloud = cloud_with(
            (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)
        )
        model = FailureModel(server=0.05, rack=0.01)
        two = monte_carlo_loss(cloud, [0, 1], model, trials=40000,
                               rng=np.random.default_rng(6))
        three = monte_carlo_loss(cloud, [0, 1, 2], model, trials=40000,
                                 rng=np.random.default_rng(6))
        assert three <= two

    def test_dead_server_does_not_count(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
        cloud.server(1).fail()
        model = FailureModel(
            continent=0, country=0, datacenter=0, room=0, rack=0,
            server=0.2,
        )
        loss = monte_carlo_loss(cloud, [0, 1], model, trials=30000,
                                rng=np.random.default_rng(7))
        assert loss == pytest.approx(0.2, abs=0.02)

    def test_invalid_trials(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0))
        with pytest.raises(DurabilityError):
            monte_carlo_loss(cloud, [0], FailureModel(), trials=0)


class TestSurvival:
    def test_complement(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
        model = FailureModel()
        s = 1.0 - monte_carlo_loss(cloud, [0, 1], model, trials=20000,
                                   rng=np.random.default_rng(8))
        assert 0.99 <= s <= 1.0


class TestCatalogSummary:
    def setup_catalog(self):
        cloud = cloud_with(
            (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)
        )
        rings = RingSet()
        ring = rings.add_ring(0, 0, AvailabilityLevel(1.0, 2), 3,
                              initial_size=10)
        catalog = ReplicaCatalog(cloud)
        for p in ring:
            catalog.place(p, 0)
            catalog.place(p, 1)
        return cloud, catalog, ring

    def test_partition_loss_table(self):
        cloud, catalog, ring = self.setup_catalog()
        table = partition_loss_table(
            cloud, catalog, [p.pid for p in ring], FailureModel(),
            trials=2000, rng=np.random.default_rng(9),
        )
        assert len(table) == 3
        assert all(0.0 <= v <= 1.0 for v in table.values())

    def test_summary(self):
        cloud, catalog, __ = self.setup_catalog()
        summary = summarize_durability(
            cloud, catalog, FailureModel(), trials=2000,
            rng=np.random.default_rng(10),
        )
        assert summary.partitions == 3
        assert summary.mean_loss <= summary.max_loss
        assert summary.mean_nines > 2  # better than 99%

    def test_summary_empty_catalog(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0))
        catalog = ReplicaCatalog(cloud)
        with pytest.raises(DurabilityError):
            summarize_durability(cloud, catalog, FailureModel())
