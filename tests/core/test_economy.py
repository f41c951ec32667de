"""Unit tests for eq. 1 virtual rent pricing."""

import numpy as np
import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.economy import (
    DEFAULT_EPOCHS_PER_MONTH,
    CloudCostIndex,
    EconomyError,
    RentModel,
)
from repro.ring.keyspace import KeyRange
from repro.ring.partition import Partition, PartitionId
from repro.store.replica import ReplicaCatalog

LOC = Location(0, 0, 0, 0, 0, 0)


class TestRentModel:
    def test_idle_server_price_is_usage_price(self):
        model = RentModel(alpha=1.0, beta=1.0, epochs_per_month=100)
        server = make_server(0, LOC, monthly_rent=100.0)
        assert model.price(server) == pytest.approx(1.0)

    def test_eq1_formula(self):
        model = RentModel(alpha=2.0, beta=3.0, epochs_per_month=100)
        server = make_server(
            0, LOC, monthly_rent=100.0,
            storage_capacity=1000, query_capacity=10,
        )
        server.allocate_storage(500)   # usage 0.5
        server.record_queries(5)       # load 0.5
        # up * (1 + 2*0.5 + 3*0.5) = 1.0 * 3.5
        assert model.price(server) == pytest.approx(3.5)

    def test_expensive_server_prices_higher(self):
        model = RentModel()
        cheap = make_server(0, LOC, monthly_rent=100.0)
        pricey = make_server(1, LOC, monthly_rent=125.0)
        assert model.price(pricey) == pytest.approx(
            model.price(cheap) * 1.25
        )

    def test_price_monotone_in_load(self):
        model = RentModel()
        server = make_server(0, LOC, query_capacity=100)
        p0 = model.price(server)
        server.record_queries(50)
        assert model.price(server) > p0

    def test_price_monotone_in_storage(self):
        model = RentModel()
        server = make_server(0, LOC, storage_capacity=100)
        p0 = model.price(server)
        server.allocate_storage(50)
        assert model.price(server) > p0

    def test_price_array_is_bit_identical_to_price(self):
        model = RentModel(alpha=2.0, beta=3.0, epochs_per_month=720)
        servers = [
            make_server(i, LOC, monthly_rent=100.0 + 25.0 * i,
                        storage_capacity=1000 + 7 * i, query_capacity=10)
            for i in range(4)
        ]
        for i, server in enumerate(servers):
            server.allocate_storage(113 * i)
            server.record_queries(2.5 * i)
        vector = model.price_array(
            np.array([s.monthly_rent / 720 for s in servers]),
            np.array([s.storage_used for s in servers], dtype=np.int64),
            np.array([s.storage_capacity for s in servers], dtype=np.int64),
            np.array([s.queries_this_epoch for s in servers]),
            np.array([s.query_capacity for s in servers], dtype=np.int64),
        )
        assert vector.tolist() == [model.price(s) for s in servers]

    def test_price_cloud(self):
        model = RentModel()
        cloud = Cloud()
        cloud.add_servers([make_server(0, LOC, monthly_rent=100.0)])
        cloud.add_servers([
            make_server(1, Location(1, 0, 0, 0, 0, 0), monthly_rent=125.0)
        ])
        prices = model.price_cloud(cloud)
        assert set(prices) == {0, 1}
        assert prices[1] > prices[0]

    def test_invalid_params(self):
        with pytest.raises(EconomyError):
            RentModel(alpha=-1)
        with pytest.raises(EconomyError):
            RentModel(epochs_per_month=0)

    def test_default_epoch_count_is_a_month_of_hours(self):
        assert DEFAULT_EPOCHS_PER_MONTH == 720


def _cost_harness(n=4, model=None):
    cloud = Cloud()
    for i in range(n):
        cloud.add_servers([
            make_server(
                i, Location(i, 0, 0, 0, 0, 0),
                monthly_rent=100.0 + 25.0 * (i % 2),
                storage_capacity=10_000,
                query_capacity=100,
            )
        ])
    catalog = ReplicaCatalog(cloud)
    rent_model = model or RentModel(alpha=2.0, beta=3.0,
                                    epochs_per_month=100)
    index = CloudCostIndex(cloud, rent_model, catalog)
    return cloud, catalog, rent_model, index


def _partition(seq=0, size=500):
    return Partition(
        pid=PartitionId(0, 0, seq),
        key_range=KeyRange(0, 1000),
        size=size,
        capacity=100_000,
    )


def _assert_prices_match(index, model, cloud):
    ids, vector = index.price_vector()
    scalar = model.price_cloud(cloud)
    assert ids == list(scalar)
    for sid, price in zip(ids, vector.tolist()):
        assert price == scalar[sid]  # bit-identical, not approx


class TestCloudCostIndex:
    def test_matches_scalar_pricing_after_catalog_mutations(self):
        cloud, catalog, model, index = _cost_harness()
        _assert_prices_match(index, model, cloud)
        p1, p2 = _partition(1), _partition(2)
        catalog.place(p1, 0)
        catalog.place(p1, 2)
        catalog.place(p2, 1)
        _assert_prices_match(index, model, cloud)
        catalog.drop(p1, 2)
        catalog.grow_replicas(p2.pid, 123)
        _assert_prices_match(index, model, cloud)
        index.verify()

    def test_split_keeps_storage_vector_in_sync(self):
        cloud, catalog, model, index = _cost_harness()
        parent = _partition(1, size=500)
        catalog.place(parent, 0)
        catalog.place(parent, 1)
        low, high = parent.split(7, 8)
        catalog.split_partition(parent, low, high)
        _assert_prices_match(index, model, cloud)
        index.verify()

    def test_rebuilds_on_cloud_membership_change(self):
        cloud, catalog, model, index = _cost_harness()
        catalog.place(_partition(1), 0)
        _assert_prices_match(index, model, cloud)
        cloud.spawn_servers([Location(9, 0, 0, 0, 0, 0)],
                            storage_capacity=10_000, query_capacity=100)
        _assert_prices_match(index, model, cloud)
        cloud.remove_server(0)
        catalog.drop_server(0)
        _assert_prices_match(index, model, cloud)

    def test_query_totals_match_scalar_counters(self):
        cloud, catalog, model, index = _cost_harness()
        totals = np.zeros(len(cloud), dtype=np.float64)
        for slot, sid in enumerate(cloud.server_ids):
            share = 7.25 * (slot + 1)
            cloud.server(sid).record_queries(share)
            totals[slot] = share
        index.set_query_totals(totals, cloud.version)
        _assert_prices_match(index, model, cloud)

    def test_stale_query_totals_ignored(self):
        cloud, catalog, model, index = _cost_harness()
        index.set_query_totals(
            np.full(len(cloud), 1e9), cloud.version - 1
        )
        _assert_prices_match(index, model, cloud)

    def test_verify_reports_storage_moved_behind_the_catalog(self):
        """Storage that changes on a server object without a catalog
        event is drift the maintained vector cannot see."""
        cloud, catalog, model, index = _cost_harness()
        catalog.place(_partition(1), 0)
        index.verify()
        cloud.server(1).allocate_storage(77)
        with pytest.raises(EconomyError, match="storage drift on server 1"):
            index.verify()
