"""Data partitions: the unit of replication, migration and accounting.

A partition owns one :class:`~repro.ring.keyspace.KeyRange` of one
virtual ring and carries the byte size of the data stored under that
range.  When the size exceeds the ring's partition capacity (256 MB in
the paper) the partition splits into two children covering half the arc
each; the split conserves bytes and popularity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.cluster.server import MB
from repro.ring.keyspace import KeyRange

#: Paper §III-A: maximum partition capacity before a split.
DEFAULT_PARTITION_CAPACITY: int = 256 * MB

#: Share of a split parent's bytes and popularity the low child takes.
SPLIT_SHARE: float = 0.5


class PartitionError(ValueError):
    """Raised for invalid partition operations."""


@dataclass(frozen=True, order=True)
class PartitionId:
    """Globally unique partition identity.

    ``app_id`` and ``ring_id`` locate the virtual ring (one ring per
    application availability level); ``seq`` distinguishes partitions
    within the ring and is never reused, so children of a split get
    fresh ids and metrics stay unambiguous.
    """

    app_id: int
    ring_id: int
    seq: int

    def __post_init__(self) -> None:
        # Partition ids key every hot-path dict (replica catalog, load
        # map, agent registry, availability cache) and are hashed
        # millions of times per run; precomputing the hash beats the
        # generated tuple-hash by a constant that shows up in profiles.
        object.__setattr__(
            self, "_hash", hash((self.app_id, self.ring_id, self.seq))
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"p{self.app_id}.{self.ring_id}.{self.seq}"


@dataclass
class Partition:
    """One key-range of data for one application's virtual ring.

    ``size`` is the byte size of the primary copy (each replica stores
    the same bytes); ``popularity`` is the partition's share weight in
    the query distribution, maintained by the workload layer.
    """

    pid: PartitionId
    key_range: KeyRange
    size: int = 0
    popularity: float = 0.0
    capacity: int = DEFAULT_PARTITION_CAPACITY
    parent: Optional[PartitionId] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise PartitionError(f"size must be >= 0, got {self.size}")
        if self.popularity < 0:
            raise PartitionError(
                f"popularity must be >= 0, got {self.popularity}"
            )
        if self.capacity <= 0:
            raise PartitionError(
                f"capacity must be > 0, got {self.capacity}"
            )

    @property
    def overfull(self) -> bool:
        """True when the partition must split before absorbing more data."""
        return self.size > self.capacity

    def grow(self, nbytes: int) -> None:
        """Add inserted bytes to the partition."""
        if nbytes < 0:
            raise PartitionError(f"cannot grow by negative bytes: {nbytes}")
        self.size += nbytes

    def split(self, low_seq: int, high_seq: int
              ) -> Tuple["Partition", "Partition"]:
        """Split into two children halving the key range.

        The low half receives :data:`SPLIT_SHARE` of the bytes and
        popularity (keys hash uniformly).  Both are conserved exactly:
        the high child receives the remainders.
        """
        low_range, high_range = self.key_range.split()
        low_size = int(self.size * SPLIT_SHARE)
        low_pop = self.popularity * SPLIT_SHARE
        low = Partition(
            pid=replace(self.pid, seq=low_seq),
            key_range=low_range,
            size=low_size,
            popularity=low_pop,
            capacity=self.capacity,
            parent=self.pid,
        )
        high = Partition(
            pid=replace(self.pid, seq=high_seq),
            key_range=high_range,
            size=self.size - low_size,
            popularity=self.popularity - low_pop,
            capacity=self.capacity,
            parent=self.pid,
        )
        return low, high

    def __str__(self) -> str:
        return (
            f"{self.pid}[{self.key_range}] size={self.size} "
            f"pop={self.popularity:.4g}"
        )


class PartitionIndex:
    """Dense, never-reused integer slots for partition ids.

    The 100×-scale epoch kernel keeps per-partition state (query
    counts, eq. 2 availability, replica counts) in flat numpy vectors
    instead of ``PartitionId``-keyed dicts; this index is the shared
    slot space those vectors are addressed in.  Slots are handed out on
    first sight and never reassigned — a partition that leaves the
    catalog (split parent, lost data) keeps its slot, whose vector
    entries simply decay to the "absent" value (0) — so index arrays
    cached by consumers stay valid as the population grows.
    """

    __slots__ = ("_slots",)

    def __init__(self) -> None:
        self._slots: Dict[PartitionId, int] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, pid: PartitionId) -> bool:
        return pid in self._slots

    def slot_of(self, pid: PartitionId) -> int:
        """The partition's dense slot, assigned on first sight."""
        slot = self._slots.get(pid)
        if slot is None:
            slot = len(self._slots)
            self._slots[pid] = slot
        return slot

    def get(self, pid: PartitionId) -> Optional[int]:
        """The partition's slot, or None when it was never indexed."""
        return self._slots.get(pid)

    def items(self):
        """(pid, slot) pairs in assignment order."""
        return self._slots.items()

    def slots_of(self, pids: Iterable[PartitionId]) -> np.ndarray:
        """Slots for ``pids`` in order (assigning fresh ones as needed).

        Slots never change once assigned, so the array stays valid as
        long as the pid list it was built from (the ring layout keeps
        one per ring state).
        """
        slot_of = self.slot_of
        pids = list(pids)
        return np.fromiter(
            (slot_of(pid) for pid in pids), dtype=np.intp, count=len(pids)
        )


def _gather(values: np.ndarray, slots: np.ndarray, fill,
            empty_dtype) -> np.ndarray:
    """``values[slots]`` with out-of-range slots reading as ``fill``.

    Per-partition vectors trail the :class:`PartitionIndex` they are
    addressed in: a consumer holding slots assigned *after* a vector was
    built (a split child indexed mid-epoch) must read the "absent"
    value for them, exactly as the dict-backed path's ``.get(pid,
    fill)`` did.  Negative slots (the codebase's "unknown" sentinel)
    read as ``fill`` too.
    """
    if not values.size:
        return np.full(len(slots), fill, dtype=empty_dtype)
    out = values[np.clip(slots, 0, values.size - 1)]
    oob = (slots < 0) | (slots >= values.size)
    if oob.any():
        out[oob] = fill
    return out


def gather_int(values: np.ndarray, slots: np.ndarray,
               fill: int = 0) -> np.ndarray:
    """Integer clip-and-fill gather (see :func:`_gather`)."""
    return _gather(values, slots, fill, values.dtype)


def gather_float(values: np.ndarray, slots: np.ndarray,
                 fill: float = 0.0) -> np.ndarray:
    """Float clip-and-fill gather (see :func:`_gather`)."""
    return _gather(values, slots, fill, np.float64)


class PartitionIdAllocator:
    """Hands out never-reused sequence numbers per (app, ring)."""

    def __init__(self) -> None:
        self._counters: dict = {}

    def next_seq(self, app_id: int, ring_id: int) -> int:
        key = (app_id, ring_id)
        counter = self._counters.setdefault(key, itertools.count())
        return next(counter)

    def new_id(self, app_id: int, ring_id: int) -> PartitionId:
        return PartitionId(app_id, ring_id, self.next_seq(app_id, ring_id))
