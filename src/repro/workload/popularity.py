"""Partition popularity: the Pareto(1, 50) query-rate distribution.

The paper distributes the popularity of virtual nodes (their query
rates) as Pareto(1, 50) (§III-A).  We read that as the classical Pareto
distribution with shape 1 and scale 50 — a heavy-tailed, Zipf-like law
where a few partitions attract most of the traffic, which is the regime
the virtual economy is designed to balance.  Popularities are used as
*weights*: each epoch's total query count is divided among partitions
proportionally, so only the normalised shape matters and the scale
cancels out.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

import numpy as np

from repro.ring.partition import SPLIT_SHARE, PartitionId


class PopularityError(ValueError):
    """Raised for invalid popularity parameters."""


def pareto_weights(count: int, *, shape: float = 1.0, scale: float = 50.0,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` raw Pareto(shape, scale) popularity weights.

    numpy's ``pareto`` samples the Lomax distribution; the classical
    Pareto variate with minimum ``scale`` is ``scale * (1 + lomax)``.
    """
    if count <= 0:
        raise PopularityError(f"count must be > 0, got {count}")
    if shape <= 0:
        raise PopularityError(f"shape must be > 0, got {shape}")
    if scale <= 0:
        raise PopularityError(f"scale must be > 0, got {scale}")
    return scale * (1.0 + rng.pareto(shape, size=count))


class PopularityMap:
    """Mutable popularity weights per partition.

    Maintains the invariant needed across partition splits: children
    inherit the parent's weight, halved, so the total
    attraction of a key range is conserved no matter how it is
    partitioned.
    """

    def __init__(self, weights: Dict[PartitionId, float] = None) -> None:
        self._weights: Dict[PartitionId, float] = {}
        self._version = 0
        if weights:
            for pid, w in weights.items():
                self.set(pid, w)

    @property
    def version(self) -> int:
        """Monotone counter bumped on every weight change.

        Lets per-epoch consumers (the workload mix's share vectors)
        cache derived arrays until the popularity actually moves.
        """
        return self._version

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, pid: PartitionId) -> bool:
        return pid in self._weights

    def get(self, pid: PartitionId) -> float:
        try:
            return self._weights[pid]
        except KeyError:
            raise PopularityError(f"no popularity for {pid}") from None

    def set(self, pid: PartitionId, weight: float) -> None:
        if weight < 0:
            raise PopularityError(f"weight must be >= 0, got {weight}")
        self._weights[pid] = float(weight)
        self._version += 1

    def remove(self, pid: PartitionId) -> float:
        self._version += 1
        return self._weights.pop(pid, 0.0)

    def split(self, parent: PartitionId, low: PartitionId,
              high: PartitionId) -> None:
        """Move a parent's weight onto its two children (halved)."""
        weight = self._weights.pop(parent, 0.0)
        self._weights[low] = weight * SPLIT_SHARE
        self._weights[high] = weight - self._weights[low]
        self._version += 1

    @property
    def total(self) -> float:
        return sum(self._weights.values())

    def shares(self, pids: Iterable[PartitionId]) -> np.ndarray:
        """Probability vector over ``pids`` (normalised weights)."""
        ordered: List[PartitionId] = list(pids)
        if not ordered:
            raise PopularityError("no partitions given")
        raw = np.array(
            [self._weights.get(pid, 0.0) for pid in ordered],
            dtype=np.float64,
        )
        total = raw.sum()
        if total <= 0:
            # Degenerate: all-zero popularity ⇒ uniform shares.
            return np.full(len(ordered), 1.0 / len(ordered))
        return raw / total

    @classmethod
    def pareto(cls, pids: Sequence[PartitionId], *, shape: float = 1.0,
               scale: float = 50.0,
               rng: np.random.Generator) -> "PopularityMap":
        """Paper §III-A initialisation: Pareto(1, 50) weights per partition."""
        weights = pareto_weights(
            len(pids), shape=shape, scale=scale, rng=rng
        )
        return cls(dict(zip(pids, weights.tolist())))
