"""Virtual rings: one hash ring per application availability level.

The paper's core structural novelty (§I): instead of one shared ring,
every application gets one virtual ring *per availability level it
demands*.  Each ring tiles the key space with partitions; a partition's
data is replicated independently by its virtual-node agents, so the
replication degree and placement of one application never interferes
with another's.

:class:`VirtualRing` maintains the token → partition mapping with
O(log M) key lookup (bisect over sorted arc ends) and handles partition
splits in place.  :class:`RingSet` is the registry of all rings in the
cloud, keyed by (app_id, ring_id); it owns the one
:class:`RingLayout` — partitions in ring order, per-ring and per-app
lists, dense slots, the §II-C work list — that every per-epoch reader
walks instead of the rings.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ring.hashing import RING_SIZE, Key, hash_key
from repro.ring.keyspace import covers_ring, ranges_from_tokens
from repro.ring.partition import (
    DEFAULT_PARTITION_CAPACITY,
    Partition,
    PartitionError,
    PartitionId,
    PartitionIdAllocator,
    PartitionIndex,
)


class RingError(ValueError):
    """Raised for inconsistent ring states or unknown partitions."""


@dataclass(frozen=True)
class AvailabilityLevel:
    """An application's SLA tier, realised as one virtual ring.

    ``threshold`` is the minimum eq. 2 availability the ring's virtual
    nodes must maintain; ``target_replicas`` documents how many well-
    dispersed replicas meet it (2, 3 and 4 in the paper's evaluation).
    """

    threshold: float
    target_replicas: int

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise RingError(f"threshold must be >= 0, got {self.threshold}")
        if self.target_replicas < 1:
            raise RingError(
                f"target_replicas must be >= 1, got {self.target_replicas}"
            )


class VirtualRing:
    """One application's ring at one availability level.

    Partitions are stored sorted by the *end* token of their arc, which
    makes ``lookup`` a bisect: the owner of position p is the first arc
    whose end is >= p (with wraparound to arc 0).
    """

    def __init__(self, app_id: int, ring_id: int,
                 level: AvailabilityLevel,
                 partitions: List[Partition],
                 allocator: Optional[PartitionIdAllocator] = None) -> None:
        if not partitions:
            raise RingError("a ring needs at least one partition")
        ranges = [p.key_range for p in partitions]
        if not covers_ring(ranges):
            raise RingError("partitions must tile the ring exactly")
        for p in partitions:
            if p.pid.app_id != app_id or p.pid.ring_id != ring_id:
                raise RingError(
                    f"partition {p.pid} does not belong to ring "
                    f"({app_id}, {ring_id})"
                )
        self.app_id = app_id
        self.ring_id = ring_id
        self.level = level
        self._allocator = allocator or PartitionIdAllocator()
        self._partitions: Dict[PartitionId, Partition] = {}
        self._ordered: List[Partition] = []
        self._version = 0
        for p in partitions:
            self._partitions[p.pid] = p
        self._reindex()

    @property
    def version(self) -> int:
        """Monotone counter bumped whenever the partition set changes.

        Only splits move it.  :meth:`RingSet.layout` keys its one
        snapshot of every ring's derived tables on these counters (and
        the rings' levels), so no per-epoch reader re-walks a ring.
        """
        return self._version

    # -- indexing -----------------------------------------------------------

    def _sort_key(self, p: Partition) -> int:
        # Arc (start, end] is addressed by its end; a full-ring arc
        # (start == end) sorts by its nominal end as well.
        return p.key_range.end

    def _reindex(self) -> None:
        self._ordered = sorted(self._partitions.values(), key=self._sort_key)
        self._ends = [p.key_range.end for p in self._ordered]
        self._version += 1

    # -- accessors -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._partitions)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self._ordered)

    def __contains__(self, pid: PartitionId) -> bool:
        return pid in self._partitions

    def partition(self, pid: PartitionId) -> Partition:
        try:
            return self._partitions[pid]
        except KeyError:
            raise RingError(f"unknown partition {pid}") from None

    def partitions(self) -> List[Partition]:
        return list(self._ordered)

    @property
    def total_size(self) -> int:
        return sum(p.size for p in self._ordered)

    # -- lookup ---------------------------------------------------------------

    def lookup_position(self, position: int) -> Partition:
        """Owner of a ring position: first arc end >= position."""
        if not 0 <= position < RING_SIZE:
            raise RingError(f"position out of range: {position}")
        if len(self._ordered) == 1:
            return self._ordered[0]
        idx = bisect_left(self._ends, position)
        if idx == len(self._ends):
            idx = 0
        owner = self._ordered[idx]
        if not owner.key_range.contains_position(position):
            # position falls exactly on an arc start; it belongs to the
            # *previous* arc's end only when equal to it, otherwise this
            # indicates a broken tiling.
            raise RingError(
                f"tiling broken: {position} not in {owner.key_range}"
            )
        return owner

    def lookup(self, key: Key) -> Partition:
        """Partition owning ``key`` — the O(1)-hash + O(log M) DHT route."""
        return self.lookup_position(hash_key(key))

    # -- splits ----------------------------------------------------------------

    def split_partition(self, pid: PartitionId
                        ) -> Tuple[Partition, Partition]:
        """Replace an overfull partition by its two children.

        Returns (low, high).  The caller (the simulator's split phase)
        is responsible for re-homing replicas of the parent.
        """
        parent = self.partition(pid)
        low_seq = self._allocator.next_seq(self.app_id, self.ring_id)
        high_seq = self._allocator.next_seq(self.app_id, self.ring_id)
        low, high = parent.split(low_seq, high_seq)
        del self._partitions[pid]
        self._partitions[low.pid] = low
        self._partitions[high.pid] = high
        self._reindex()
        return low, high

    def check_invariants(self) -> None:
        """Raise unless the partitions tile the ring exactly."""
        if not covers_ring([p.key_range for p in self._ordered]):
            raise RingError(
                f"ring ({self.app_id}, {self.ring_id}) tiling broken"
            )


def build_ring(app_id: int, ring_id: int, level: AvailabilityLevel,
               num_partitions: int, *,
               partition_capacity: int = DEFAULT_PARTITION_CAPACITY,
               initial_size: int = 0,
               allocator: Optional[PartitionIdAllocator] = None
               ) -> VirtualRing:
    """Create a ring with ``num_partitions`` equal arcs (paper startup).

    ``initial_size`` bytes are assigned to every partition, modelling
    the pre-loaded application data of §III-A.
    """
    if num_partitions <= 0:
        raise RingError(f"num_partitions must be > 0, got {num_partitions}")
    if initial_size > partition_capacity:
        raise PartitionError(
            f"initial_size {initial_size} exceeds capacity "
            f"{partition_capacity}"
        )
    alloc = allocator or PartitionIdAllocator()
    step = RING_SIZE // num_partitions
    tokens = [((i + 1) * step) % RING_SIZE for i in range(num_partitions)]
    ranges = ranges_from_tokens(tokens)
    partitions = [
        Partition(
            pid=alloc.new_id(app_id, ring_id),
            key_range=key_range,
            size=initial_size,
            capacity=partition_capacity,
        )
        for key_range in ranges
    ]
    return VirtualRing(app_id, ring_id, level, partitions, allocator=alloc)


class RingLayout:
    """Every partition of every ring, in ring order, and the tables
    derived from that walk — one immutable snapshot per ring state.

    ``key`` is the ``(ring versions, ring levels)`` pair it was built
    under (:meth:`RingSet.layout` rebuilds when it changes).  Only
    :attr:`partitions` is built up front — simulator construction reads
    nothing else — and every other table is derived on first read and
    kept.  Slot tables address :attr:`index`, the
    :class:`PartitionIndex` the ring set was handed, and are ``None``
    without one (the scalar kernel).  The work list runs in ring order
    too, so :attr:`slots` are also the work items' slots.
    """

    def __init__(self, key: tuple, rings: Sequence[VirtualRing],
                 index: Optional[PartitionIndex]) -> None:
        self.key = key
        self.index = index
        self.partitions: Tuple[Partition, ...] = tuple(
            [p for ring in rings for p in ring]
        )
        #: ``(ring key, threshold, start, end)`` into the flat tables.
        self._spans: List[Tuple[Tuple[int, int], float, int, int]] = [
            ((ring.app_id, ring.ring_id), ring.level.threshold,
             end - len(ring), end)
            for ring, end in zip(rings, accumulate(map(len, rings)))
        ]

    @cached_property
    def pids(self) -> List[PartitionId]:
        """Every partition's id, in ring order."""
        return [p.pid for p in self.partitions]

    @cached_property
    def slots(self) -> Optional[np.ndarray]:
        """Every partition's dense slot, in ring order."""
        if self.index is None:
            return None
        return self.index.slots_of(self.pids)

    @cached_property
    def rings(self) -> List[
        Tuple[Tuple[int, int], List[PartitionId], Optional[np.ndarray]]
    ]:
        """``(key, pids, slots)`` per ring, in ring order."""
        pids, slots = self.pids, self.slots
        return [
            (key, pids[lo:hi], None if slots is None else slots[lo:hi])
            for key, __, lo, hi in self._spans
        ]

    @cached_property
    def apps(self) -> Dict[int, List[PartitionId]]:
        """Each app's partitions across its rings, in ring order."""
        pids = self.pids
        out: Dict[int, List[PartitionId]] = {}
        for (app_id, __), __, lo, hi in self._spans:
            out.setdefault(app_id, []).extend(pids[lo:hi])
        return out

    @cached_property
    def app_slots(self) -> Optional[Dict[int, np.ndarray]]:
        """Each app's slots, aligned with :attr:`apps`."""
        if self.slots is None:
            return None
        return {
            app: np.concatenate(
                [s for (a, __), __, s in self.rings if a == app]
            )
            for app in self.apps
        }

    @cached_property
    def work(self) -> List[Tuple[Partition, float]]:
        """The §II-C pass's ``(partition, ring threshold)`` items."""
        partitions = self.partitions
        return [
            (p, threshold)
            for __, threshold, lo, hi in self._spans
            for p in partitions[lo:hi]
        ]

    @cached_property
    def threshold_by_slot(self) -> Optional[np.ndarray]:
        """Ring thresholds scattered over the slot space (``inf`` where
        no ring claims the slot)."""
        if self.slots is None:
            return None
        out = np.full(len(self.index), np.inf, dtype=np.float64)
        out[self.slots] = [threshold for __, threshold in self.work]
        return out


class RingSet:
    """All virtual rings of the cloud, keyed by (app_id, ring_id)."""

    def __init__(self) -> None:
        self._rings: Dict[Tuple[int, int], VirtualRing] = {}
        self._allocator = PartitionIdAllocator()
        self._index: Optional[PartitionIndex] = None
        self._layout: Optional[RingLayout] = None

    def __len__(self) -> int:
        return len(self._rings)

    def use_partition_index(self, index: PartitionIndex) -> None:
        """Address the layouts' slot tables in ``index`` — the epoch
        kernel's one partition slot space, handed over once."""
        if self._index is not index:
            if self._index is not None:
                raise RingError("the ring set already has a partition index")
            self._index, self._layout = index, None

    def layout(self) -> RingLayout:
        """The current ring state's :class:`RingLayout`.

        The same object until a ring is added, any ring splits or a
        ring's level is swapped; then one fresh build.
        """
        rings = tuple(self._rings.values())
        key = (
            tuple(ring.version for ring in rings),
            tuple(ring.level for ring in rings),
        )
        layout = self._layout
        if layout is None or layout.key != key:
            layout = self._layout = RingLayout(key, rings, self._index)
        return layout

    def __iter__(self) -> Iterator[VirtualRing]:
        return iter(self._rings.values())

    def add_ring(self, app_id: int, ring_id: int, level: AvailabilityLevel,
                 num_partitions: int, *,
                 partition_capacity: int = DEFAULT_PARTITION_CAPACITY,
                 initial_size: int = 0) -> VirtualRing:
        key = (app_id, ring_id)
        if key in self._rings:
            raise RingError(f"ring {key} already exists")
        ring = build_ring(
            app_id,
            ring_id,
            level,
            num_partitions,
            partition_capacity=partition_capacity,
            initial_size=initial_size,
            allocator=self._allocator,
        )
        self._rings[key] = ring
        return ring

    def ring(self, app_id: int, ring_id: int) -> VirtualRing:
        try:
            return self._rings[(app_id, ring_id)]
        except KeyError:
            raise RingError(f"unknown ring ({app_id}, {ring_id})") from None

    def ring_of(self, pid: PartitionId) -> VirtualRing:
        return self.ring(pid.app_id, pid.ring_id)

    def partition(self, pid: PartitionId) -> Partition:
        return self.ring_of(pid).partition(pid)

    @property
    def total_size(self) -> int:
        return sum(ring.total_size for ring in self._rings.values())
