"""Virtual rent pricing — eq. 1 of the paper.

Each epoch a server agent announces the virtual rent price

    c = up · (1 + α · storage_usage + β · query_load)

where ``up`` is the server's *marginal usage price*, derived from the
real monthly rent the data owner pays (100$ or 125$ in the evaluation)
spread over the epochs of a month, and the usage terms are the server's
storage fill fraction and normalised query load of the *current* epoch
(good approximations for the next epoch, §II-A).  Expensive and busy
servers therefore price themselves out of unpopular virtual nodes,
which is the stabilising feedback loop of the whole economy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster.server import Server
from repro.cluster.topology import Cloud
from repro.store.replica import CatalogListener

#: Epochs per month used to spread the real rent.  The evaluation's
#: epoch is best read as ~1 hour (bandwidth budgets of 300 MB/epoch),
#: giving 30 · 24 = 720 epochs per month.
DEFAULT_EPOCHS_PER_MONTH: int = 720

#: Eq. 1's β, the weight of query pressure; the evaluation fixes it at 1.
BETA = 1.0


class EconomyError(ValueError):
    """Raised for invalid pricing parameters."""


@dataclass(frozen=True)
class RentModel:
    """Parameters of the eq. 1 price function.

    ``alpha`` weights storage pressure and :data:`BETA` query pressure;
    both are the paper's normalising factors.  The real monthly rent
    becomes the per-epoch marginal usage price
    ``up = monthly_rent / DEFAULT_EPOCHS_PER_MONTH``.  §II-A derives
    ``up`` from the server's mean usage over the previous month as well;
    that trailing mean is not modelled, and the evaluation's equal-usage
    startup makes the two the same.
    """

    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise EconomyError(f"alpha must be >= 0, got {self.alpha}")

    def price(self, server: Server) -> float:
        """Eq. 1: the virtual rent of ``server`` for the next epoch."""
        up = server.monthly_rent / DEFAULT_EPOCHS_PER_MONTH
        return up * (
            1.0
            + self.alpha * server.storage_usage
            + BETA * server.query_load
        )

    def price_cloud(self, cloud: Cloud) -> Dict[int, float]:
        """Price every live server of the cloud for the next epoch."""
        return {server.server_id: self.price(server) for server in cloud}

    def price_array(self, up: np.ndarray, storage_used: np.ndarray,
                    storage_capacity: np.ndarray, queries: np.ndarray,
                    query_capacity: np.ndarray) -> np.ndarray:
        """Eq. 1 over slot-ordered vectors — one pass for the cloud.

        Every elementwise operation maps one-to-one, in the same
        evaluation order, onto the scalar :meth:`price` arithmetic
        (``up · (1 + α·storage_usage + β·query_load)``), so each entry
        is bit-identical to pricing that server through the scalar
        call.
        """
        storage_usage = storage_used / storage_capacity
        query_load = queries / query_capacity
        return up * (
            1.0 + self.alpha * storage_usage + BETA * query_load
        )


class CloudCostIndex(CatalogListener):
    """Maintained slot-ordered cost vectors for one-pass eq. 1 pricing.

    The scalar path prices servers one Python call at a time from the
    live ``Server`` objects — the last O(S) Python loop at epoch start.
    This index keeps the eq. 1 inputs as slot-ordered numpy vectors
    instead:

    * **static terms** (marginal usage price ``up``, storage and query
      capacities) rebuild only when cloud membership changes
      (:attr:`Cloud.version`);
    * **storage usage** is folded incrementally from the replica
      catalog's ``storage_changed`` events (every replicate / migrate /
      suicide / insert growth / split mutates storage *through* the
      catalog in the epoch loop);
    * **query load** is handed over by the epoch kernel: the batched
      eq. 5 settlement already folds per-server query totals, and those
      counters are exactly eq. 1's ``query_load`` numerator for the
      next epoch's repricing.

    Each repriced entry is bit-identical to the scalar
    :meth:`RentModel.price` call (see :meth:`RentModel.price_array`),
    which is what keeps the two epoch kernels frame-identical.  The
    index assumes the engine's discipline — storage moves through the
    catalog, membership through ``Cloud.add/remove`` — and falls back
    to a full rebuild whenever the cloud version moved.
    """

    def __init__(self, cloud: Cloud, model: RentModel,
                 catalog=None) -> None:
        self._cloud = cloud
        self._model = model
        self._cloud_version = -1
        self._ids: List[int] = []
        self._up = np.zeros(0, dtype=np.float64)
        self._capacity = np.zeros(0, dtype=np.int64)
        self._query_capacity = np.zeros(0, dtype=np.int64)
        self._storage = np.zeros(0, dtype=np.int64)
        self._queries = np.zeros(0, dtype=np.float64)
        if catalog is not None:
            catalog.add_listener(self)

    def _sync(self) -> None:
        cloud = self._cloud
        if self._cloud_version == cloud.version:
            return
        self._ids = cloud.server_ids
        # Column reads off the cloud's ServerTable: the same float64 /
        # int64 values the per-server attribute walk produced, gathered
        # as single array copies.
        self._up = (
            cloud.monthly_rent_vector() / float(DEFAULT_EPOCHS_PER_MONTH)
        )
        self._capacity = cloud.capacity_vector()
        self._query_capacity = cloud.query_capacity_vector()
        self._storage = cloud.storage_used_vector()
        self._queries = cloud.queries_vector()
        self._cloud_version = cloud.version

    # -- CatalogListener -----------------------------------------------------

    def storage_changed(self, server_id: int, delta: int) -> None:
        if self._cloud_version != self._cloud.version:
            return  # stale; the next sync rebuilds from the objects
        self._storage[self._cloud.slot(server_id)] += delta

    # -- epoch handoffs ------------------------------------------------------

    def set_query_totals(self, totals: np.ndarray,
                         cloud_version: int) -> None:
        """Install the epoch's per-slot query counters (from settlement).

        Ignored when the slot order has since changed (``cloud_version``
        mismatch) — the next :meth:`_sync` then reads the surviving
        servers' own counters, which the settlement kept equally
        up to date.
        """
        if cloud_version != self._cloud.version:
            return
        self._sync()
        self._queries = totals

    # -- pricing -------------------------------------------------------------

    def price_vector(self) -> Tuple[List[int], np.ndarray]:
        """(server ids, eq. 1 prices), slot-ordered, for this epoch."""
        self._sync()
        return self._ids, self._model.price_array(
            self._up, self._storage, self._capacity,
            self._queries, self._query_capacity,
        )

    def verify(self) -> None:
        """Assert the maintained vectors mirror the server objects."""
        self._sync()
        cloud = self._cloud
        for slot, sid in enumerate(self._ids):
            server = cloud.server(sid)
            if int(self._storage[slot]) != server.storage_used:
                raise EconomyError(
                    f"storage drift on server {sid}: index "
                    f"{int(self._storage[slot])}, object "
                    f"{server.storage_used}"
                )
