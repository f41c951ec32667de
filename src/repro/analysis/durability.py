"""Ground-truthing eq. 2: correlated-failure injection and loss odds.

Eq. 2 *approximates* availability by geographic diversity because "the
probabilities of each server to fail" are unknowable in practice
(§II-B).  In simulation we can do what the paper could not: define an
explicit correlated-failure model over the location tree — continents,
countries, datacenters (PDUs), rooms, racks and individual servers each
fail with their own probability, taking down everything beneath them —
and measure the true probability that a partition loses *all* replicas.

This lets the benches verify the premise quantitatively: placements
with higher eq. 2 scores must have lower ground-truth loss probability,
and the economic placement must beat diversity-blind baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.location import LEVELS
from repro.cluster.topology import Cloud
from repro.ring.partition import PartitionId
from repro.store.replica import ReplicaCatalog


class DurabilityError(ValueError):
    """Raised for invalid failure-model parameters."""


@dataclass(frozen=True)
class FailureModel:
    """Per-epoch failure probability of each location-tree level.

    A failed node of the tree (e.g. a room = PDU domain) takes down all
    servers beneath it for the epoch, reproducing the §I failure modes:
    "in case of a PDU failure ~500-1000 machines suddenly disappear, or
    in case of a rack failure ~40-80 machines instantly go down".

    Defaults are loosely calibrated to the paper's citations [1, 2]:
    individual servers fail far more often than shared infrastructure,
    and whole-geography events are rare.
    """

    continent: float = 1e-6
    country: float = 1e-5
    datacenter: float = 3e-4
    room: float = 5e-4
    rack: float = 1e-3
    server: float = 5e-3

    def __post_init__(self) -> None:
        for name in LEVELS:
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise DurabilityError(
                    f"{name} probability must be in [0, 1], got {p}"
                )

    def probability(self, level: str) -> float:
        if level not in LEVELS:
            raise DurabilityError(f"unknown level {level!r}")
        return getattr(self, level)


def monte_carlo_loss(cloud: Cloud, replicas: Sequence[int],
                     model: FailureModel, *, trials: int = 10000,
                     rng: Optional[np.random.Generator] = None) -> float:
    """Monte-Carlo per-epoch probability that *all* replicas die.

    Samples domain failures level by level; a replica dies when any of
    its six enclosing domains fails.  Shared domains are sampled once
    per trial, so correlation between colocated replicas is exact.
    """
    generator = rng if rng is not None else np.random.default_rng(0)
    live = [
        sid for sid in replicas
        if sid in cloud and cloud.server(sid).alive
    ]
    if not live:
        return 1.0
    if trials <= 0:
        raise DurabilityError(f"trials must be > 0, got {trials}")
    # Collect the distinct domains touched by this replica set.
    domain_index: Dict[Tuple[str, Tuple[int, ...]], int] = {}
    per_replica_domains: List[List[int]] = []
    probs: List[float] = []
    for sid in live:
        parts = cloud.server(sid).location.parts()
        mine = []
        for depth, level in enumerate(LEVELS, start=1):
            key = (level, parts[:depth])
            if key not in domain_index:
                domain_index[key] = len(probs)
                probs.append(model.probability(level))
            mine.append(domain_index[key])
        per_replica_domains.append(mine)
    prob_arr = np.array(probs)
    losses = 0
    batch = 2048
    done = 0
    while done < trials:
        size = min(batch, trials - done)
        draws = generator.random((size, len(probs))) < prob_arr
        # replica r dead in trial t iff any of its domains failed.
        all_dead = np.ones(size, dtype=bool)
        for mine in per_replica_domains:
            dead = draws[:, mine].any(axis=1)
            all_dead &= dead
            if not all_dead.any():
                break
        losses += int(all_dead.sum())
        done += size
    return losses / trials


def partition_loss_table(cloud: Cloud, catalog: ReplicaCatalog,
                         pids: Iterable[PartitionId],
                         model: FailureModel, *, trials: int = 10000,
                         rng: Optional[np.random.Generator] = None
                         ) -> Dict[PartitionId, float]:
    """Per-partition per-epoch loss probability for a set of partitions."""
    generator = rng if rng is not None else np.random.default_rng(0)
    return {
        pid: monte_carlo_loss(
            cloud, catalog.servers_of(pid), model,
            trials=trials, rng=generator,
        )
        for pid in pids
    }


@dataclass
class DurabilitySummary:
    """Aggregate loss statistics over a catalog."""

    mean_loss: float
    max_loss: float
    partitions: int

    @property
    def mean_nines(self) -> float:
        """-log10 of the mean loss probability ("number of nines")."""
        if self.mean_loss <= 0:
            return float("inf")
        return float(-np.log10(self.mean_loss))


def summarize_durability(cloud: Cloud, catalog: ReplicaCatalog,
                         model: FailureModel, *, trials: int = 10000,
                         rng: Optional[np.random.Generator] = None
                         ) -> DurabilitySummary:
    """Loss statistics across every partition in the catalog."""
    table = partition_loss_table(
        cloud, catalog, catalog.partitions(), model,
        trials=trials, rng=rng,
    )
    if not table:
        raise DurabilityError("catalog holds no partitions")
    losses = np.array(list(table.values()))
    return DurabilitySummary(
        mean_loss=float(losses.mean()),
        max_loss=float(losses.max()),
        partitions=len(table),
    )
