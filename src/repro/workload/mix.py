"""Multi-application workload mix: queries per epoch, app and partition.

The Fig. 4 experiment assumes applications 1, 2, 3 attract 4/7, 2/7 and
1/7 of the total query load (§III-D).  Each epoch the mix draws the
cloud-wide query count from the arrival process, splits it across
applications by their share, and across each application's partitions
by Pareto popularity — all with multinomial draws, so the per-epoch cost
is O(partitions) regardless of the query rate (essential at the 183 000
queries/epoch Slashdot peak).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ring.partition import PartitionId, PartitionIndex, gather_int
from repro.ring.virtualring import RingLayout
from repro.workload.arrivals import PoissonArrivals, RateProfile
from repro.workload.clients import ClientGeography, uniform_geography
from repro.workload.popularity import PopularityMap


class WorkloadError(ValueError):
    """Raised for inconsistent workload-mix configuration."""


@dataclass(frozen=True)
class ApplicationSpec:
    """One tenant application of the cloud.

    ``query_share`` is the application's fraction of the total query
    load; ``geography`` describes where its clients sit (the paper's
    evaluation uses the uniform geography for all apps).
    """

    app_id: int
    name: str
    query_share: float
    geography: ClientGeography = field(default_factory=uniform_geography)

    def __post_init__(self) -> None:
        if self.query_share < 0:
            raise WorkloadError(
                f"query_share must be >= 0, got {self.query_share}"
            )


class EpochLoad:
    """One epoch's query demand: counts per partition, per application.

    The demand is held either as a ``PartitionId``-keyed dict (the
    reference representation) or — when the drawing mix carries a
    :class:`~repro.ring.partition.PartitionIndex` — as a dense
    ``counts`` vector in that index's slot space, which the vectorized
    epoch kernel gathers from directly instead of performing one dict
    lookup per partition per epoch.  Both representations answer
    :meth:`queries_for` with identical integers; :attr:`per_partition`
    is materialised lazily from the vector when someone asks for it.
    """

    __slots__ = (
        "epoch", "total_queries", "per_app", "_per_partition",
        "_counts", "_index",
    )

    def __init__(self, epoch: int, total_queries: int,
                 per_app: Dict[int, int],
                 per_partition: Optional[Dict[PartitionId, int]] = None,
                 *, counts: Optional[np.ndarray] = None,
                 index: Optional[PartitionIndex] = None) -> None:
        if per_partition is None and counts is None:
            per_partition = {}
        if (counts is None) != (index is None):
            raise WorkloadError(
                "dense counts and their partition index come together"
            )
        self.epoch = epoch
        self.total_queries = total_queries
        self.per_app = per_app
        self._per_partition = per_partition
        self._counts = counts
        self._index = index

    @property
    def counts(self) -> Optional[np.ndarray]:
        """Dense per-partition counts (read-only), or None."""
        return self._counts

    @property
    def index(self) -> Optional[PartitionIndex]:
        """The slot space :attr:`counts` is addressed in, or None."""
        return self._index

    @property
    def per_partition(self) -> Dict[PartitionId, int]:
        built = self._per_partition
        if built is None:
            counts = self._counts
            built = {}
            for pid, slot in self._index.items():
                if slot < counts.size and counts[slot]:
                    built[pid] = int(counts[slot])
            self._per_partition = built
        return built

    def queries_for(self, pid: PartitionId) -> int:
        counts = self._counts
        if counts is not None:
            slot = self._index.get(pid)
            if slot is None or slot >= counts.size:
                return 0
            return int(counts[slot])
        return self._per_partition.get(pid, 0)

    def counts_at(self, slots: np.ndarray) -> np.ndarray:
        """Counts gathered at index ``slots`` (0 where unknown); only a
        load drawn with a dense vector has them."""
        return gather_int(self._counts, slots)


class WorkloadMix:
    """Draws per-epoch, per-partition query counts for all applications."""

    def __init__(self, apps: Sequence[ApplicationSpec],
                 profile: RateProfile,
                 rng: np.random.Generator) -> None:
        if not apps:
            raise WorkloadError("need at least one application")
        ids = [a.app_id for a in apps]
        if len(set(ids)) != len(ids):
            raise WorkloadError(f"duplicate app ids: {ids}")
        total_share = sum(a.query_share for a in apps)
        if total_share <= 0:
            raise WorkloadError("application shares must sum to > 0")
        self.apps: Tuple[ApplicationSpec, ...] = tuple(apps)
        self._shares = np.array(
            [a.query_share / total_share for a in apps], dtype=np.float64
        )
        self._arrivals = PoissonArrivals(profile, rng)
        self._rng = rng
        # Per-app popularity share vectors, cached while neither the
        # ring layout (same object ⇒ same partitions: rebuilt only on
        # splits) nor the popularity map changed.
        self._share_cache: Dict[int, Tuple[RingLayout, int, np.ndarray]] = {}

    def app(self, app_id: int) -> ApplicationSpec:
        for spec in self.apps:
            if spec.app_id == app_id:
                return spec
        raise WorkloadError(f"unknown app id {app_id}")

    def rate(self, epoch: int) -> float:
        return self._arrivals.rate(epoch)

    def draw(self, epoch: int, layout: RingLayout,
             popularity: PopularityMap) -> EpochLoad:
        """Sample one epoch of load over ``layout``'s per-app partitions
        (every ring of each app), so earlier splits are reflected.

        A layout with a partition index gets its draws scattered into a
        dense count vector in that slot space (the vectorized kernel's
        load); the draw sequence is the same either way.
        """
        total = self._arrivals.draw(epoch)
        app_counts = self._rng.multinomial(total, self._shares)
        per_app: Dict[int, int] = {}
        pindex = layout.index
        per_partition: Optional[Dict[PartitionId, int]] = (
            None if pindex is not None else {}
        )
        drawn: List[Tuple[np.ndarray, np.ndarray]] = []
        for spec, count in zip(self.apps, app_counts.tolist()):
            per_app[spec.app_id] = int(count)
            if count == 0:
                continue
            pids = layout.apps.get(spec.app_id, ())
            if not pids:
                raise WorkloadError(
                    f"app {spec.app_id} has queries but no partitions"
                )
            pop_version = popularity.version
            cached = self._share_cache.get(spec.app_id)
            if (
                cached is not None
                and cached[0] is layout
                and cached[1] == pop_version
            ):
                shares = cached[2]
            else:
                shares = popularity.shares(pids)
                self._share_cache[spec.app_id] = (
                    layout, pop_version, shares
                )
            counts = self._rng.multinomial(count, shares)
            if per_partition is None:
                drawn.append((layout.app_slots[spec.app_id], counts))
            else:
                for pid, c in zip(pids, counts.tolist()):
                    if c:
                        per_partition[pid] = per_partition.get(pid, 0) + int(c)
        dense: Optional[np.ndarray] = None
        if pindex is not None:
            # Apps own disjoint partition sets, so per-app scatters can
            # never collide on a slot — plain fancy assignment adds the
            # same integers the dict accumulation would.
            dense = np.zeros(len(pindex), dtype=np.int64)
            for slots_arr, counts in drawn:
                dense[slots_arr] += counts
        return EpochLoad(
            epoch=epoch,
            total_queries=int(total),
            per_app=per_app,
            per_partition=per_partition,
            counts=dense,
            index=pindex,
        )
