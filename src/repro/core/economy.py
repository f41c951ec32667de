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
from typing import Dict

import numpy as np

from repro.cluster.server import Server
from repro.cluster.topology import Cloud

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

    def price_table(self, cloud: Cloud) -> np.ndarray:
        """Eq. 1 for every live server, slot-ordered, in one array pass
        over the cloud's ``ServerTable`` columns; entry ``i`` prices
        ``cloud.server_ids[i]``, bit-identical to :meth:`price`."""
        return self.price_array(
            cloud.monthly_rent_vector() / DEFAULT_EPOCHS_PER_MONTH,
            cloud.storage_used_vector(), cloud.capacity_vector(),
            cloud.queries_vector(), cloud.query_capacity_vector(),
        )

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
