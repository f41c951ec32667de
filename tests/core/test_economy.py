"""Unit tests for eq. 1 virtual rent pricing."""

import numpy as np
import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core import economy
from repro.core.board import PriceBoard, update_board
from repro.core.economy import (
    BETA,
    DEFAULT_EPOCHS_PER_MONTH,
    EconomyError,
    RentModel,
)
from repro.ring.keyspace import KeyRange
from repro.ring.partition import Partition, PartitionId
from repro.sim import engine
from repro.store.replica import ReplicaCatalog
from tests.sim.test_engine import small_config

LOC = Location(0, 0, 0, 0, 0, 0)


class TestRentModel:
    def test_idle_server_price_is_usage_price(self):
        model = RentModel(alpha=1.0)
        server = make_server(0, LOC, monthly_rent=100.0)
        assert model.price(server) == pytest.approx(
            100.0 / DEFAULT_EPOCHS_PER_MONTH
        )

    def test_eq1_formula(self):
        model = RentModel(alpha=2.0)
        server = make_server(
            0, LOC, monthly_rent=100.0,
            storage_capacity=1000, query_capacity=10,
        )
        server.allocate_storage(500)   # usage 0.5
        server.record_queries(5)       # load 0.5
        # up * (1 + 2*0.5 + β*0.5), β = 1
        assert BETA == 1.0
        assert model.price(server) == pytest.approx(
            100.0 / DEFAULT_EPOCHS_PER_MONTH * 2.5
        )

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

    def test_price_array_is_bit_identical_to_price(self, monkeypatch):
        # A non-unit β, so the query term's multiply is exercised too.
        monkeypatch.setattr(economy, "BETA", 3.0)
        model = RentModel(alpha=2.0)
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

    def test_price_table_is_slot_ordered_and_bit_identical(
            self, monkeypatch):
        monkeypatch.setattr(economy, "BETA", 3.0)
        model = RentModel(alpha=2.0)
        cloud = Cloud()
        for i in (5, 1, 3):  # ids out of order: entries follow slots
            cloud.add_servers([
                make_server(i, Location(i, 0, 0, 0, 0, 0),
                            monthly_rent=100.0 + 25.0 * i,
                            storage_capacity=1000 + 7 * i,
                            query_capacity=10)
            ])
            cloud.server(i).allocate_storage(113 * i)
            cloud.server(i).record_queries(2.5 * i)
        vector = model.price_table(cloud)
        assert vector.tolist() == [
            model.price(cloud.server(sid)) for sid in cloud.server_ids
        ]
        assert dict(zip(cloud.server_ids, vector.tolist())) == (
            model.price_cloud(cloud)
        )

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

    def test_default_epoch_count_is_a_month_of_hours(self):
        assert DEFAULT_EPOCHS_PER_MONTH == 720


def _table_harness(n=4):
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
    return cloud, ReplicaCatalog(cloud), RentModel(alpha=2.0)


def _partition(seq=0, size=500):
    return Partition(
        pid=PartitionId(0, 0, seq),
        key_range=KeyRange(0, 1000),
        size=size,
        capacity=100_000,
    )


def _assert_table_prices_match(cloud, model):
    """The vectorized reprice posts, bit for bit, what the scalar
    reference prices server by server."""
    board = PriceBoard()
    posted = update_board(board, 3, cloud, model, vectorized=True)
    scalar = model.price_cloud(cloud)
    assert list(posted) == list(scalar) == cloud.server_ids
    assert posted == scalar  # bit-identical, not approx
    assert board.price_vector(cloud.server_ids).tolist() == list(
        scalar.values()
    )


class TestTablePricing:
    """``update_board(vectorized=True)`` prices from the server table."""

    def test_place_move_drop_and_grow(self):
        cloud, catalog, model = _table_harness()
        _assert_table_prices_match(cloud, model)
        p1, p2 = _partition(1), _partition(2)
        catalog.place(p1, 0)
        catalog.place(p1, 2)
        catalog.place(p2, 1)
        _assert_table_prices_match(cloud, model)
        catalog.move(p2, 1, 3)
        _assert_table_prices_match(cloud, model)
        catalog.drop(p1, 2)
        p2.grow(123)
        catalog.grow_replicas(p2.pid, 123)
        _assert_table_prices_match(cloud, model)

    def test_split(self):
        cloud, catalog, model = _table_harness()
        parent = _partition(1, size=501)
        catalog.place(parent, 0)
        catalog.place(parent, 1)
        low, high = parent.split(7, 8)
        catalog.split_partition(parent, low, high)
        _assert_table_prices_match(cloud, model)

    def test_ghost_keeps_its_bytes_through_growth_and_split(self):
        cloud, catalog, model = _table_harness()
        parent = _partition(1, size=500)
        catalog.place(parent, 0)
        catalog.place(parent, 1)
        cloud.server(1).fail()  # killed, not yet detected
        parent.grow(40)
        catalog.grow_replicas(parent.pid, 40)
        low, high = parent.split(7, 8)
        catalog.split_partition(parent, low, high)
        assert cloud.server(1).storage_used == 500
        assert cloud.server(0).storage_used == 540
        _assert_table_prices_match(cloud, model)

    def test_server_join_and_removal(self):
        cloud, catalog, model = _table_harness()
        catalog.place(_partition(1), 0)
        catalog.place(_partition(2), 3)
        cloud.spawn_servers([Location(9, 0, 0, 0, 0, 0)],
                            storage_capacity=10_000, query_capacity=100)
        catalog.place(_partition(3), 4)
        _assert_table_prices_match(cloud, model)
        cloud.remove_server(0)
        catalog.drop_server(0)
        _assert_table_prices_match(cloud, model)

    def test_recorded_queries(self):
        cloud, catalog, model = _table_harness()
        for slot, sid in enumerate(cloud.server_ids):
            cloud.server(sid).record_queries(7.25 * (slot + 1))
        cloud.record_queries_at(np.array([0, 2]), np.array([1.5, 0.125]))
        _assert_table_prices_match(cloud, model)
        cloud.begin_epoch()
        _assert_table_prices_match(cloud, model)

    def test_storage_allocated_outside_the_catalog_is_priced(
            self, monkeypatch):
        """Every board a vectorized simulation posts equals the scalar
        eq. 1 table of that moment, also after bytes were charged to a
        server behind the catalog's back: no mirror of the storage
        column can fall behind it."""
        real = engine.update_board
        posted = []

        def spy(board, epoch, cloud, model, *args, **kwargs):
            expected = model.price_cloud(cloud)
            prices = real(board, epoch, cloud, model, *args, **kwargs)
            posted.append(prices == expected)
            return prices

        monkeypatch.setattr(engine, "update_board", spy)
        sim = engine.Simulation(small_config(epochs=4))
        sim.step()
        sim.step()
        sim.cloud.server(sim.cloud.server_ids[0]).allocate_storage(77)
        sim.step()
        sim.step()
        assert posted == [True] * 4
