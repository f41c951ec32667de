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
cloud, keyed by (app_id, ring_id).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.ring.hashing import RING_SIZE, Key, hash_key
from repro.ring.keyspace import covers_ring, ranges_from_tokens
from repro.ring.partition import (
    DEFAULT_PARTITION_CAPACITY,
    Partition,
    PartitionError,
    PartitionId,
    PartitionIdAllocator,
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

        Per-epoch consumers (the simulator's partition/app indexes, the
        ring set's flattened partition list) cache against this instead
        of re-walking the ring: only splits move it.
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


class RingSet:
    """All virtual rings of the cloud, keyed by (app_id, ring_id)."""

    def __init__(self) -> None:
        self._rings: Dict[Tuple[int, int], VirtualRing] = {}
        self._allocator = PartitionIdAllocator()
        self._flat_cache: Optional[List[Partition]] = None
        self._flat_versions: Optional[Tuple[int, ...]] = None

    def __len__(self) -> int:
        return len(self._rings)

    def versions(self) -> Tuple[int, ...]:
        """Per-ring version stamps, in ring insertion order.

        Changes exactly when a ring is added or any ring splits — the
        dirty flag for every flattened partition index downstream.
        """
        return tuple(ring.version for ring in self._rings.values())

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

    def all_partitions(self) -> List[Partition]:
        """Every partition of every ring, cached behind the ring versions.

        The simulator consults this each epoch (insert routing, seeding,
        popularity); rebuilding the flattened list only when a split or
        a new ring actually changed the partition set keeps the steady
        state allocation-free.  Callers receive a fresh copy so the
        cache cannot be mutated from outside.
        """
        versions = self.versions()
        if self._flat_cache is None or self._flat_versions != versions:
            self._flat_cache = [
                p for ring in self._rings.values() for p in ring
            ]
            self._flat_versions = versions
        return list(self._flat_cache)

    @property
    def total_size(self) -> int:
        return sum(ring.total_size for ring in self._rings.values())
