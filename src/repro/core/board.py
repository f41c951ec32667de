"""The price board: per-epoch virtual rent announcements.

The paper posts every server's virtual rent on "a board (i.e. an
elected server)" updated at the start of each epoch (§II).  The board
is the only shared state of the decentralised optimisation: virtual
nodes read candidate prices from it, and the epoch's *lowest* price
doubles as the utility floor that stops unpopular virtual nodes from
migrating forever (§II-C).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.topology import Cloud
from repro.core.economy import RentModel


class BoardError(LookupError):
    """Raised when prices are read before any epoch was posted."""


class PriceBoard:
    """Published virtual rent prices for the current epoch."""

    def __init__(self) -> None:
        self._prices: Dict[int, float] = {}
        self._epoch: Optional[int] = None
        # min/mean/max are consulted once per §II-C shed decision (the
        # utility floor and the migration rent cap), i.e. tens of
        # thousands of times per epoch at scale — memoise them per
        # posted table instead of re-scanning the price dict.
        self._stats: Optional[Tuple[float, float, float]] = None
        # Slot-ordered posting (the vectorized eq. 1 path): the ids and
        # the price vector are kept so :meth:`price_vector` can hand the
        # epoch kernel a copy without S per-server dict lookups.
        self._ids: Optional[List[int]] = None
        self._vector: Optional[np.ndarray] = None

    @property
    def epoch(self) -> Optional[int]:
        return self._epoch

    def post(self, epoch: int, prices: Dict[int, float]) -> None:
        """Publish the price table for ``epoch``, replacing the old one."""
        if not prices:
            raise BoardError("cannot post an empty price table")
        for sid, price in prices.items():
            if price < 0:
                raise BoardError(f"negative price for server {sid}: {price}")
        self._prices = dict(prices)
        self._epoch = epoch
        self._stats = None
        self._ids = None
        self._vector = None

    def post_vector(self, epoch: int, server_ids: List[int],
                    prices: np.ndarray) -> Dict[int, float]:
        """Publish a slot-ordered price vector (vectorized eq. 1 path).

        Equivalent to :meth:`post` with ``dict(zip(server_ids,
        prices))`` — same mapping, same insertion order — but validated
        as one array comparison, and the vector is retained so
        :meth:`price_vector` for the same id order is a plain copy.
        Returns the posted mapping (treat as read-only).
        """
        if len(server_ids) != len(prices) or not len(prices):
            raise BoardError(
                f"price vector mismatch: {len(server_ids)} ids, "
                f"{len(prices)} prices"
            )
        if np.any(prices < 0):
            sid = server_ids[int(np.argmin(prices))]
            raise BoardError(
                f"negative price for server {sid}: {prices.min()}"
            )
        self._prices = dict(zip(server_ids, prices.tolist()))
        self._epoch = epoch
        self._stats = None
        self._ids = list(server_ids)
        # Defensive copy: the board must not desynchronize from the
        # posted dict if the caller reuses its buffer.
        self._vector = prices.astype(np.float64, copy=True)
        return self._prices

    def _price_stats(self) -> Tuple[float, float, float]:
        self._require_posted()
        stats = self._stats
        if stats is None:
            values = self._prices.values()
            stats = (
                min(values), sum(values) / len(values), max(values)
            )
            self._stats = stats
        return stats

    def price(self, server_id: int) -> float:
        self._require_posted()
        try:
            return self._prices[server_id]
        except KeyError:
            raise BoardError(f"no price posted for server {server_id}") from None

    def prices(self) -> Dict[int, float]:
        self._require_posted()
        return dict(self._prices)

    def min_price(self) -> float:
        """The epoch's cheapest rent — the §II-C utility floor."""
        return self._price_stats()[0]

    def scan_min_price(self) -> float:
        """Uncached minimum scan — the pre-refactor reference path.

        Same value as :meth:`min_price`; kept so the scalar reference
        kernel preserves the pre-refactor cost model the perf harness
        measures speedups against.
        """
        self._require_posted()
        return min(self._prices.values())

    def max_price(self) -> float:
        return self._price_stats()[2]

    def mean_price(self) -> float:
        return self._price_stats()[1]

    def price_vector(self, server_ids: List[int]) -> np.ndarray:
        """Prices for ``server_ids`` in order, for vectorised scoring.

        Returns a fresh array (callers mutate it for anticipated-rent
        bookkeeping); when the board was posted through
        :meth:`post_vector` with the same id order this is a single
        array copy instead of S dict lookups.
        """
        self._require_posted()
        if self._vector is not None and server_ids == self._ids:
            return self._vector.copy()
        return np.array(
            [self._prices[sid] for sid in server_ids], dtype=np.float64
        )

    def _require_posted(self) -> None:
        if not self._prices:
            raise BoardError("no prices posted yet")


def update_board(board: PriceBoard, epoch: int, cloud: Cloud,
                 model: RentModel, vectorized: bool = False
                 ) -> Dict[int, float]:
    """Reprice the cloud (eq. 1) and post the table; returns the prices.

    The vectorized kernel prices the whole cloud in one slot-ordered
    array pass over the server table's storage and query columns
    (:meth:`RentModel.price_table`); the scalar reference prices every
    server through one :meth:`RentModel.price` call.
    """
    if vectorized:
        prices = model.price_table(cloud)
        # Copy: callers own the returned mapping on both paths (the
        # scalar branch returns a fresh dict too).
        return dict(board.post_vector(epoch, cloud.server_ids, prices))
    prices = model.price_cloud(cloud)
    board.post(epoch, prices)
    return prices
