"""Unit tests for the price board."""

import numpy as np
import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.board import BoardError, PriceBoard, update_board
from repro.core.economy import DEFAULT_EPOCHS_PER_MONTH, RentModel


class TestPosting:
    def test_post_and_read(self):
        board = PriceBoard()
        board.post(0, {1: 0.5, 2: 0.7})
        assert board.epoch == 0
        assert board.price(1) == 0.5
        assert 2 in board.prices()
        assert 3 not in board.prices()

    def test_read_before_post(self):
        with pytest.raises(BoardError):
            PriceBoard().price(0)
        with pytest.raises(BoardError):
            PriceBoard().min_price()

    def test_post_empty_rejected(self):
        with pytest.raises(BoardError):
            PriceBoard().post(0, {})

    def test_negative_price_rejected(self):
        with pytest.raises(BoardError):
            PriceBoard().post(0, {1: -0.1})

    def test_repost_replaces(self):
        board = PriceBoard()
        board.post(0, {1: 0.5})
        board.post(1, {2: 0.9})
        assert board.epoch == 1
        assert 1 not in board.prices()

    def test_unknown_server(self):
        board = PriceBoard()
        board.post(0, {1: 0.5})
        with pytest.raises(BoardError):
            board.price(99)


class TestAggregates:
    def test_min_mean_max(self):
        board = PriceBoard()
        board.post(0, {1: 1.0, 2: 2.0, 3: 3.0})
        assert board.min_price() == 1.0
        assert board.mean_price() == pytest.approx(2.0)
        assert board.max_price() == 3.0

    def test_price_vector_order(self):
        board = PriceBoard()
        board.post(0, {1: 0.1, 2: 0.2, 3: 0.3})
        assert np.allclose(board.price_vector([3, 1]), [0.3, 0.1])

    def test_cached_stats_invalidated_by_post_and_drop(self):
        board = PriceBoard()
        board.post(0, {1: 1.0, 2: 2.0, 3: 6.0})
        # Warm the memo, then repost.
        assert board.min_price() == 1.0
        assert board.mean_price() == 3.0
        board.post(1, {1: 5.0, 2: 7.0})
        assert board.min_price() == 5.0
        assert board.max_price() == 7.0
        assert board.scan_min_price() == board.min_price()


class TestUpdateBoard:
    def test_update_board_posts_eq1_prices(self):
        cloud = Cloud()
        cloud.add_servers([
            make_server(0, Location(0, 0, 0, 0, 0, 0), monthly_rent=100.0)
        ])
        cloud.add_servers([
            make_server(1, Location(1, 0, 0, 0, 0, 0), monthly_rent=125.0)
        ])
        board = PriceBoard()
        prices = update_board(board, 7, cloud, RentModel())
        up = 100.0 / DEFAULT_EPOCHS_PER_MONTH
        assert board.epoch == 7
        assert prices[0] == pytest.approx(up)
        assert prices[1] == pytest.approx(1.25 * up)
        assert board.min_price() == pytest.approx(up)
