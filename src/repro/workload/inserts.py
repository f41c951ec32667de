"""Insert workload for the storage-saturation experiment (Fig. 5).

§III-E: data is inserted at 2000 requests/epoch, 500 KB each, and the
requests are "Pareto(1, 50)-distributed".  Two readings are supported:

* ``keyspace`` routing (default): inserts carry *new keys*, and new
  keys hash uniformly over the ring, so a partition's insert inflow is
  proportional to its arc fraction; the Pareto law describes the
  popularity the inserted items will attract.  Splits halve a
  partition's arc and therefore its inflow — storage growth is
  self-balancing, which is what lets the paper fill the cloud to 96 %
  before the first insert failure.
* ``popularity`` routing: inserts target partitions with the same
  Pareto skew as queries.  This concentrates growth onto hot ranges
  far faster than the epoch-scale economy can spread it and serves as
  the stress variant in the ablation benches.

An insert *fails* when the owning partition cannot grow on every one
of its replica servers; Fig. 5 plots failures against used capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.ring.partition import Partition, PartitionId
from repro.workload.popularity import PopularityMap

#: Paper §III-E defaults.
DEFAULT_INSERT_RATE: int = 2000
DEFAULT_OBJECT_SIZE: int = 500 * 1024  # 500 KB


class InsertError(ValueError):
    """Raised for invalid insert-workload parameters."""


@dataclass(frozen=True)
class InsertBatch:
    """One epoch's insert demand, per partition."""

    epoch: int
    counts: Dict[PartitionId, int]
    object_size: int

    @property
    def total_inserts(self) -> int:
        return sum(self.counts.values())

    @property
    def total_bytes(self) -> int:
        return self.total_inserts * self.object_size

#: Valid values for :class:`InsertWorkload`'s routing mode.
ROUTING_MODES = ("keyspace", "popularity")


def keyspace_shares(partitions: Sequence[Partition]) -> np.ndarray:
    """Insert shares proportional to each partition's arc fraction."""
    if not partitions:
        raise InsertError("no partitions to insert into")
    fractions = np.array(
        [p.key_range.fraction for p in partitions], dtype=np.float64
    )
    total = fractions.sum()
    if total <= 0:
        raise InsertError("partitions cover no key space")
    return fractions / total


class InsertWorkload:
    """Generates insert batches epoch by epoch.

    Shares are recomputed from the live partition set at every call, so
    splits automatically rebalance the stream: under keyspace routing a
    split halves each child's inflow; under popularity routing children
    inherit the parent's Pareto weight.
    """

    def __init__(self, *, rate: int = DEFAULT_INSERT_RATE,
                 object_size: int = DEFAULT_OBJECT_SIZE,
                 routing: str = "keyspace",
                 rng: np.random.Generator) -> None:
        if rate < 0:
            raise InsertError(f"rate must be >= 0, got {rate}")
        if object_size <= 0:
            raise InsertError(f"object_size must be > 0, got {object_size}")
        if routing not in ROUTING_MODES:
            raise InsertError(
                f"routing must be one of {ROUTING_MODES}, got {routing!r}"
            )
        self.rate = rate
        self.object_size = object_size
        self.routing = routing
        self._rng = rng

    def batch(self, epoch: int, partitions: Sequence[Partition],
              popularity: PopularityMap) -> InsertBatch:
        """Draw this epoch's insert counts across ``partitions``."""
        ordered: List[Partition] = list(partitions)
        if not ordered:
            raise InsertError("no partitions to insert into")
        if self.rate == 0:
            return InsertBatch(epoch, {}, self.object_size)
        if self.routing == "keyspace":
            shares = keyspace_shares(ordered)
        else:
            shares = popularity.shares([p.pid for p in ordered])
        counts = self._rng.multinomial(self.rate, shares)
        nonzero = {
            p.pid: int(c) for p, c in zip(ordered, counts.tolist()) if c
        }
        return InsertBatch(epoch, nonzero, self.object_size)


@dataclass
class InsertOutcome:
    """Result of applying one epoch's insert batch."""

    epoch: int
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0
    bytes_written: int = 0
