"""Replica transfers under the paper's per-epoch bandwidth budgets.

Every server reserves 300 MB/epoch for replication and 100 MB/epoch for
migration (§III-A).  A transfer succeeds only when *both* endpoints have
enough remaining budget of the right class this epoch; otherwise the
requesting virtual node must retry in a later epoch.  Completed
transfers apply instantly, as the paper assumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.server import BandwidthBudget, Server
from repro.cluster.topology import Cloud
from repro.ring.partition import Partition
from repro.store.replica import ReplicaCatalog, ReplicaError


class TransferKind(enum.Enum):
    """Which bandwidth budget a transfer draws from."""

    REPLICATION = "replication"
    MIGRATION = "migration"


class TransferOutcome(enum.Enum):
    COMPLETED = "completed"
    NO_SOURCE_BANDWIDTH = "no_source_bandwidth"
    NO_DEST_BANDWIDTH = "no_dest_bandwidth"
    NO_DEST_STORAGE = "no_dest_storage"
    DEST_DOWN = "dest_down"
    SOURCE_DOWN = "source_down"
    DEST_UNREACHABLE = "dest_unreachable"
    REJECTED = "rejected"


#: Outcomes caused by the network/membership being wrong about an
#: endpoint rather than by resource exhaustion.  These are what the
#: retry queue re-attempts with backoff: the condition clears when
#: membership converges or the partition heals, whereas a budget or
#: storage failure is the decision economy's own business.
NETWORK_OUTCOMES = frozenset(
    {
        TransferOutcome.DEST_DOWN,
        TransferOutcome.SOURCE_DOWN,
        TransferOutcome.DEST_UNREACHABLE,
    }
)


#: ``dst`` of a failure record minted before a destination was chosen
#: (:meth:`TransferBatch.refuse_at_source`): never on a network outcome,
#: and every reader of ``dst`` filters on :data:`NETWORK_OUTCOMES` first.
NO_DESTINATION = -1


def capped_backoff(attempts: int, base_delay: int, cap: int) -> int:
    """Epochs to wait after the ``attempts``-th consecutive failure.

    ``base_delay`` after the first failure, doubling per further
    failure, never exceeding ``cap``.  Shared by :class:`RetryQueue`
    (control-plane transfer retries) and
    :class:`repro.store.hints.HintStore` (data-plane hinted handoff)
    so both repair paths pace themselves identically.
    """
    return min(cap, base_delay << (attempts - 1))


@dataclass(frozen=True, slots=True)
class TransferResult:
    """Outcome of one attempted replica transfer.

    Slotted: bootstrap storms mint one of these per blocked intent
    (thousands per mutation epoch at 100×), and the failure log's
    entries are recycled through :class:`TransferStats`'s pool, so the
    record must stay a compact fixed-layout value object.
    """

    kind: TransferKind
    outcome: TransferOutcome
    pid: object
    src: Optional[int]
    dst: int
    nbytes: int

    @property
    def ok(self) -> bool:
        return self.outcome is TransferOutcome.COMPLETED


class _FailurePool:
    """Recycled :class:`TransferResult` flyweights for the failure log.

    Failure records live exactly one epoch — appended on a blocked
    intent, drained by the engine's retry push, cleared at
    ``begin_epoch`` — so the pool hands the same objects back out
    instead of allocating per attempt.  Only *failure* records are
    pooled: completed results escape to callers and must stay
    immutable forever.
    """

    __slots__ = ("_free",)

    def __init__(self) -> None:
        self._free: List[TransferResult] = []

    def take(self, kind: TransferKind, outcome: TransferOutcome,
             pid: object, src: Optional[int], dst: int,
             nbytes: int) -> TransferResult:
        free = self._free
        if not free:
            return TransferResult(kind, outcome, pid, src, dst, nbytes)
        result = free.pop()
        write = object.__setattr__
        write(result, "kind", kind)
        write(result, "outcome", outcome)
        write(result, "pid", pid)
        write(result, "src", src)
        write(result, "dst", dst)
        write(result, "nbytes", nbytes)
        return result

    def recycle(self, results: List[TransferResult]) -> None:
        self._free.extend(results)


@dataclass
class TransferStats:
    """Aggregate transfer accounting for one epoch (reset by the engine).

    ``no_destination`` is always 0 — no path counts on it; it is
    retained only because the frozen benchmark (``benchmarks/e2e``)
    reads it by name.  Entries of ``failures`` are pool-recycled at
    :meth:`reset`: hold no references across epochs.
    """

    replications: int = 0
    migrations: int = 0
    deferred: int = 0
    bytes_moved: int = 0
    replication_bytes: int = 0
    migration_bytes: int = 0
    no_destination: int = 0
    failures: List[TransferResult] = field(default_factory=list)
    _pool: _FailurePool = field(
        default_factory=_FailurePool, repr=False, compare=False
    )

    def record_failure(self, kind: TransferKind, outcome: TransferOutcome,
                       pid: object, src: Optional[int], dst: int,
                       nbytes: int) -> TransferResult:
        """Append (and return) one pooled failure record."""
        result = self._pool.take(kind, outcome, pid, src, dst, nbytes)
        self.failures.append(result)
        return result

    def reset(self) -> None:
        self.replications = 0
        self.migrations = 0
        self.deferred = 0
        self.bytes_moved = 0
        self.replication_bytes = 0
        self.migration_bytes = 0
        self.no_destination = 0
        self._pool.recycle(self.failures)
        self.failures.clear()


def _budget(server: Server, kind: TransferKind) -> BandwidthBudget:
    if kind is TransferKind.REPLICATION:
        return server.replication_budget
    return server.migration_budget


class TransferEngine:
    """Executes replicate/migrate requests against catalog and budgets."""

    def __init__(self, cloud: Cloud, catalog: ReplicaCatalog) -> None:
        self._cloud = cloud
        self._catalog = catalog
        self.stats = TransferStats()
        # Control-plane reachability (the faulty-network seam): when
        # set, a transfer whose endpoints cannot currently talk fails
        # with DEST_UNREACHABLE instead of silently succeeding.  None
        # (the default) keeps the pre-existing behavior byte-identical.
        self._reachable: Optional[Callable[[int, int], bool]] = None

    def set_reachability(self,
                         fn: Optional[Callable[[int, int], bool]]) -> None:
        self._reachable = fn

    @property
    def reachability(self) -> Optional[Callable[[int, int], bool]]:
        return self._reachable

    def begin_epoch(self) -> None:
        self.stats.reset()

    def _check_endpoints(self, partition: Partition, src_id: Optional[int],
                         dst_id: int, kind: TransferKind
                         ) -> Optional[TransferOutcome]:
        """Validate a transfer; reserve bandwidth on success.

        Check order is part of the outcome contract (the batch mirror
        replays it verbatim): dst liveness, src liveness, reachability,
        dst storage, src budget, dst budget.  Under oracle membership
        the liveness/reachability additions can never fire — the
        decision paths physically filter their endpoints — so the
        observable sequence is unchanged there.
        """
        dst = self._cloud.server(dst_id)
        if not dst.alive:
            return TransferOutcome.DEST_DOWN
        if src_id is not None:
            if not self._cloud.server(src_id).alive:
                return TransferOutcome.SOURCE_DOWN
            if (
                self._reachable is not None
                and not self._reachable(src_id, dst_id)
            ):
                return TransferOutcome.DEST_UNREACHABLE
        if not dst.can_store(partition.size):
            return TransferOutcome.NO_DEST_STORAGE
        src_budget = None
        if src_id is not None:
            src_budget = _budget(self._cloud.server(src_id), kind)
            if not src_budget.can_reserve(partition.size):
                return TransferOutcome.NO_SOURCE_BANDWIDTH
        dst_budget = _budget(dst, kind)
        if not dst_budget.can_reserve(partition.size):
            return TransferOutcome.NO_DEST_BANDWIDTH
        if src_budget is not None:
            src_budget.reserve(partition.size)
        dst_budget.reserve(partition.size)
        return None

    def replicate(self, partition: Partition, src_id: Optional[int],
                  dst_id: int) -> TransferResult:
        """Copy a partition replica from ``src_id`` to ``dst_id``.

        ``src_id`` may be ``None`` when re-protecting a partition whose
        only surviving copy sits on an unknown/already-counted source
        (e.g. initial seeding); only the destination budget is charged
        then.
        """
        kind = TransferKind.REPLICATION
        if self._catalog.has_replica(partition.pid, dst_id):
            return self.stats.record_failure(
                kind, TransferOutcome.REJECTED, partition.pid,
                src_id, dst_id, partition.size,
            )
        blocked = self._check_endpoints(partition, src_id, dst_id, kind)
        if blocked is not None:
            self.stats.deferred += 1
            return self.stats.record_failure(
                kind, blocked, partition.pid, src_id, dst_id, partition.size
            )
        self._catalog.place(partition, dst_id)
        self._count_completed(kind, partition.size)
        return TransferResult(
            kind, TransferOutcome.COMPLETED, partition.pid,
            src_id, dst_id, partition.size,
        )

    def migrate(self, partition: Partition, src_id: int, dst_id: int,
                kind: TransferKind = TransferKind.MIGRATION
                ) -> TransferResult:
        """Move a replica from ``src_id`` to ``dst_id``: place, then drop.

        ``kind`` is the budget the move rides (and the stats row it is
        counted in): a partition larger than its migration budget moves
        on the replication budget (``move_large_via_replication``).
        """
        if not self._catalog.has_replica(partition.pid, src_id):
            raise ReplicaError(
                f"{partition.pid} has no replica on {src_id} to migrate"
            )
        if self._catalog.has_replica(partition.pid, dst_id):
            return self.stats.record_failure(
                kind, TransferOutcome.REJECTED, partition.pid,
                src_id, dst_id, partition.size,
            )
        blocked = self._check_endpoints(partition, src_id, dst_id, kind)
        if blocked is not None:
            self.stats.deferred += 1
            return self.stats.record_failure(
                kind, blocked, partition.pid, src_id, dst_id, partition.size
            )
        self._catalog.move(partition, src_id, dst_id)
        self._count_completed(kind, partition.size)
        return TransferResult(
            kind, TransferOutcome.COMPLETED, partition.pid,
            src_id, dst_id, partition.size,
        )

    def _count_completed(self, kind: TransferKind, size: int) -> None:
        stats = self.stats
        if kind is TransferKind.REPLICATION:
            stats.replications += 1
            stats.replication_bytes += size
        else:
            stats.migrations += 1
            stats.migration_bytes += size
        stats.bytes_moved += size

    def suicide(self, partition: Partition, server_id: int) -> None:
        """Delete one replica (no bandwidth needed)."""
        self._catalog.drop(partition, server_id)

    # -- batched execution (§II-C action path) ------------------------------

    def open_batch(self) -> "TransferBatch":
        """Start collecting transfer intents for grouped execution."""
        return TransferBatch(self)

    def execute_batch(self, requests: Sequence["TransferRequest"],
                      preverified: bool = False) -> List[TransferResult]:
        """Apply many transfers with grouped array feasibility checks.

        Endpoint feasibility (bandwidth budgets, destination storage,
        liveness, duplicate replicas) is evaluated for the *whole* batch
        as per-server aggregate sums.  When every group fits — the
        common case, and guaranteed for intents validated through a
        :class:`TransferBatch`'s mirrors — budgets are reserved once per
        touched server and the catalog mutations apply in submission
        order with no per-item re-checks.  If any aggregate fails, the
        batch falls back to the sequential per-item path, which
        reproduces the exact one-at-a-time outcome semantics.

        The epoch kernel reaches this through :meth:`TransferBatch.commit`
        with ``preverified=True`` (the repair chains validated every
        intent already); the aggregate-check entry serves callers
        submitting arbitrary request lists of their own.
        """
        requests = list(requests)
        if not requests:
            return []
        if not preverified and not self._batch_feasible(requests):
            return [
                self.migrate(r.partition, r.src, r.dst, r.kind)
                if r.vacate
                else self.replicate(r.partition, r.src, r.dst)
                for r in requests
            ]
        # Fast path: grouped budget reservation, then in-order apply.
        grouped: Dict[Tuple[TransferKind, int], int] = {}
        for r in requests:
            size = r.partition.size
            if r.src is not None:
                key = (r.kind, r.src)
                grouped[key] = grouped.get(key, 0) + size
            key = (r.kind, r.dst)
            grouped[key] = grouped.get(key, 0) + size
        for (kind, sid), nbytes in grouped.items():
            _budget(self._cloud.server(sid), kind).reserve(nbytes)
        results: List[TransferResult] = []
        for r in requests:
            size = r.partition.size
            if r.vacate:
                self._catalog.move(r.partition, r.src, r.dst)
            else:
                self._catalog.place(r.partition, r.dst)
            self._count_completed(r.kind, size)
            results.append(
                TransferResult(
                    r.kind, TransferOutcome.COMPLETED, r.partition.pid,
                    r.src, r.dst, size,
                )
            )
        return results

    def _batch_feasible(self, requests: Sequence["TransferRequest"]) -> bool:
        """Aggregate (vectorized) feasibility of a whole batch.

        Deliberately conservative: any replica-identity interaction
        *within* the batch (duplicate destinations, a migration source
        consumed by an earlier migration, a destination vacated
        mid-batch) fails the aggregate check and routes the batch to
        the sequential fallback, so the fast path can never partially
        apply — every per-item operation it performs is guaranteed to
        succeed.
        """
        sizes = np.array([r.partition.size for r in requests],
                         dtype=np.int64)
        dsts = [r.dst for r in requests]
        seen: Set[Tuple[object, int]] = set()
        vacated: Set[Tuple[object, int]] = set()
        for r in requests:
            key = (r.partition.pid, r.dst)
            if key in seen or self._catalog.has_replica(*key):
                return False
            seen.add(key)
            if r.vacate:
                src_key = (r.partition.pid, r.src)
                if (
                    src_key in vacated
                    or not self._catalog.has_replica(*src_key)
                ):
                    return False
                vacated.add(src_key)
        touched = sorted(
            {sid for r in requests for sid in (r.src, r.dst)
             if sid is not None}
        )
        if not all(
            sid in self._cloud and self._cloud.server(sid).alive
            for sid in touched
        ):
            return False
        if self._reachable is not None and not all(
            r.src is None or self._reachable(r.src, r.dst)
            for r in requests
        ):
            return False
        slot = {sid: i for i, sid in enumerate(touched)}
        storage_need = np.zeros(len(touched), dtype=np.int64)
        np.add.at(storage_need, [slot[d] for d in dsts], sizes)
        budget_need = {
            kind: np.zeros(len(touched), dtype=np.int64)
            for kind in TransferKind
        }
        for r, size in zip(requests, sizes.tolist()):
            need = budget_need[r.kind]
            need[slot[r.dst]] += size
            if r.src is not None:
                need[slot[r.src]] += size
        storage_avail = np.array(
            [self._cloud.server(sid).storage_available for sid in touched],
            dtype=np.int64,
        )
        if np.any(storage_need > storage_avail):
            return False
        for kind, need in budget_need.items():
            avail = np.array(
                [
                    _budget(self._cloud.server(sid), kind).available
                    for sid in touched
                ],
                dtype=np.int64,
            )
            if np.any(need > avail):
                return False
        return True


@dataclass(frozen=True, slots=True)
class TransferRequest:
    """One queued transfer intent (see :meth:`TransferEngine.open_batch`).

    ``vacate`` marks a move — the intent drops its source once the
    destination is placed — on ``kind``'s budget: every migration, and
    a move riding the replication budget.  Slotted: a bootstrap storm
    queues tens of thousands per epoch.
    """

    kind: TransferKind
    partition: Partition
    src: Optional[int]
    dst: int
    vacate: bool = False


class TransferBatch:
    """Intent collector with exact pending-resource mirrors.

    The §II-C decision pass validates each intent against *real state
    minus pending reservations* — the same predicate, in the same check
    order, that an immediate :meth:`TransferEngine.replicate` /
    :meth:`~TransferEngine.migrate` call would evaluate — so a queued
    intent is guaranteed to succeed at :meth:`commit`, and a blocked one
    reports the identical :class:`TransferOutcome` (and feeds the
    engine's deferred/failure stats) as the one-at-a-time path.
    """

    def __init__(self, engine: TransferEngine) -> None:
        self._engine = engine
        self._cloud = engine._cloud
        self._slot_of = engine._cloud.slot_map
        self._catalog = engine._catalog
        self._items: List[TransferRequest] = []
        self._pending_storage: Dict[int, int] = {}
        # The one budget read: per kind, a slot-ordered vector of real
        # budget minus queued reservations, copied off the cloud's
        # table on first use and decremented per reservation (real
        # budgets move only at commit, which drops the vectors).
        self._avail_vectors: Dict[TransferKind, np.ndarray] = {}
        # Replica-identity mirror: placements queued (and not since
        # vacated) / sources vacated by queued migrations.  Together
        # with the catalog they answer "would this (pid, server) hold a
        # replica once the queue ran?" — the predicate every sequential
        # duplicate/source check evaluates.
        self._pending_replicas: Set[Tuple[object, int]] = set()
        self._vacated: Set[Tuple[object, int]] = set()

    def _has_replica_now(self, pid, server_id: int) -> bool:
        """Replica presence as of the queued state (catalog ± pending)."""
        key = (pid, server_id)
        if key in self._pending_replicas:
            return True
        return (
            key not in self._vacated
            and self._catalog.has_replica(pid, server_id)
        )

    def __len__(self) -> int:
        return len(self._items)

    # -- mirrored resource reads -------------------------------------------

    def budget_available(self, server_id: int,
                         kind: TransferKind = TransferKind.REPLICATION
                         ) -> int:
        """Remaining budget as of this batch: real minus pending."""
        vec = self.budget_available_vector(kind)
        return int(vec[self._slot_of[server_id]])

    def storage_available(self, server_id: int) -> int:
        real = self._cloud.server(server_id).storage_available
        return real - self._pending_storage.get(server_id, 0)

    def budget_available_vector(self, kind: TransferKind) -> np.ndarray:
        """Per-slot remaining budget as of this batch (read-only).

        What :meth:`budget_available` reads, kept current through
        every reservation.  Within one decision pass the entries only
        ever *decrease* — blocked intents reserve nothing and nothing
        un-reserves.
        """
        vec = self._avail_vectors.get(kind)
        if vec is None:
            vec = self._cloud.budget_available_vector(kind.value).astype(
                np.int64, copy=True
            )
            self._avail_vectors[kind] = vec
        return vec

    # -- queuing ------------------------------------------------------------

    def _check(self, partition: Partition, src_id: Optional[int],
               dst_id: int, kind: TransferKind
               ) -> Optional[TransferOutcome]:
        """Mirror of ``TransferEngine._check_endpoints`` (same order)."""
        dst = self._cloud.server(dst_id)
        if not dst.alive:
            return TransferOutcome.DEST_DOWN
        if src_id is not None:
            if not self._cloud.server(src_id).alive:
                return TransferOutcome.SOURCE_DOWN
            reachable = self._engine.reachability
            if reachable is not None and not reachable(src_id, dst_id):
                return TransferOutcome.DEST_UNREACHABLE
        size = partition.size
        if not (0 <= size <= self.storage_available(dst_id)):
            return TransferOutcome.NO_DEST_STORAGE
        if src_id is not None:
            if size > self.budget_available(src_id, kind):
                return TransferOutcome.NO_SOURCE_BANDWIDTH
        if size > self.budget_available(dst_id, kind):
            return TransferOutcome.NO_DEST_BANDWIDTH
        return None

    def _reserve(self, partition: Partition, src_id: Optional[int],
                 dst_id: int, kind: TransferKind, vacate: bool) -> None:
        size = partition.size
        vec = self.budget_available_vector(kind)
        slot_of = self._slot_of
        if src_id is not None:
            vec[slot_of[src_id]] -= size
            if vacate:
                # A queued move vacates its source bytes, exactly as
                # the sequential catalog.move would have by the time a
                # later intent is checked — credit them so mixed
                # batches see the same storage a one-at-a-time caller
                # would.
                self._pending_storage[src_id] = (
                    self._pending_storage.get(src_id, 0) - size
                )
        vec[slot_of[dst_id]] -= size
        self._pending_storage[dst_id] = (
            self._pending_storage.get(dst_id, 0) + size
        )

    def _add(self, kind: TransferKind, partition: Partition,
             src_id: Optional[int], dst_id: int, vacate: bool = False
             ) -> Optional[TransferOutcome]:
        pid = partition.pid
        if self._has_replica_now(pid, dst_id):
            self._engine.stats.record_failure(
                kind, TransferOutcome.REJECTED, pid,
                src_id, dst_id, partition.size,
            )
            return TransferOutcome.REJECTED
        blocked = self._check(partition, src_id, dst_id, kind)
        if blocked is not None:
            self._engine.stats.deferred += 1
            self._engine.stats.record_failure(
                kind, blocked, pid, src_id, dst_id, partition.size
            )
            return blocked
        self._reserve(partition, src_id, dst_id, kind, vacate)
        self._pending_replicas.add((pid, dst_id))
        self._vacated.discard((pid, dst_id))
        if vacate:
            self._vacated.add((pid, src_id))
            self._pending_replicas.discard((pid, src_id))
        self._items.append(
            TransferRequest(kind, partition, src_id, dst_id, vacate)
        )
        return None

    def refuse_at_source(self, partition: Partition, src_id: int,
                         kind: TransferKind) -> None:
        """Account an intent ``src_id``'s drained budget blocks at every
        destination: exactly a blocked :meth:`add_migration` /
        :meth:`add_replication`, with :data:`NO_DESTINATION` for the
        destination nobody had to pick."""
        stats = self._engine.stats
        stats.deferred += 1
        stats.record_failure(
            kind, TransferOutcome.NO_SOURCE_BANDWIDTH, partition.pid,
            src_id, NO_DESTINATION, partition.size,
        )

    def add_replication(self, partition: Partition, src_id: Optional[int],
                        dst_id: int) -> Optional[TransferOutcome]:
        """Queue a replication; returns the blocking outcome, or None.

        A blocked intent is accounted exactly like a failed immediate
        call (engine deferred count + failure record) so decision stats
        stay kernel-invariant.
        """
        return self._add(
            TransferKind.REPLICATION, partition, src_id, dst_id
        )

    def add_migration(self, partition: Partition, src_id: int,
                      dst_id: int,
                      kind: TransferKind = TransferKind.MIGRATION
                      ) -> Optional[TransferOutcome]:
        """Queue a move on ``kind``'s budget; returns the blocking
        outcome, or None.

        One vacating intent: the source stays in the catalog until the
        commit places the destination and then drops it, so a partition
        whose every replica moves in one pass is never left without one.

        Raises :class:`ReplicaError` when the source would hold no
        replica by the time the queue runs — the same error an
        immediate :meth:`TransferEngine.migrate` at this point in the
        sequence would raise.
        """
        if not self._has_replica_now(partition.pid, src_id):
            raise ReplicaError(
                f"{partition.pid} has no replica on {src_id} to migrate"
            )
        return self._add(kind, partition, src_id, dst_id, vacate=True)

    # -- execution ----------------------------------------------------------

    def commit(self) -> List[TransferResult]:
        """Apply every queued intent (guaranteed feasible) in order."""
        if not self._items:
            return []
        items, self._items = self._items, []
        self._pending_storage.clear()
        self._pending_replicas.clear()
        self._vacated.clear()
        self._avail_vectors.clear()
        return self._engine.execute_batch(items, preverified=True)


@dataclass
class RetryEntry:
    """One transfer awaiting re-attempt after a network-typed failure."""

    pid: object
    dst: int
    kind: TransferKind
    attempts: int
    next_epoch: int


class RetryQueue:
    """Capped exponential backoff for network-failed transfers.

    A transfer that failed with one of :data:`NETWORK_OUTCOMES` —
    membership was wrong about an endpoint or a partition cut the path
    — is re-queued and re-attempted once its backoff expires:
    ``base_delay`` epochs after the first failure, doubling per
    further failure up to ``cap``, for at most ``max_attempts``
    attempts total.  Entries are deduplicated by (pid, dst, kind):
    repair chains re-propose the same destination every epoch while
    membership is stale, and retrying one copy is the degradation the
    tentpole asks for — commit what you can, don't storm.

    The queue never fills under a zero-fault network: the outcomes
    that feed it cannot occur there.
    """

    def __init__(self, base_delay: int = 1, cap: int = 8,
                 max_attempts: int = 6) -> None:
        if base_delay < 1:
            raise ValueError(
                f"base_delay must be >= 1, got {base_delay}"
            )
        if cap < base_delay:
            raise ValueError(f"cap must be >= base_delay, got {cap}")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.base_delay = base_delay
        self.cap = cap
        self.max_attempts = max_attempts
        self._entries: Dict[Tuple[object, int, TransferKind],
                            RetryEntry] = {}
        self.pushed = 0
        self.retried = 0
        self.succeeded = 0
        self.dropped = 0
        self._epoch_base = (0, 0, 0, 0)

    def __len__(self) -> int:
        return len(self._entries)

    def _backoff(self, attempts: int) -> int:
        return capped_backoff(attempts, self.base_delay, self.cap)

    def push(self, result: TransferResult, epoch: int) -> bool:
        """Queue a failed transfer for retry; False if not retryable."""
        if result.outcome not in NETWORK_OUTCOMES:
            return False
        key = (result.pid, result.dst, result.kind)
        if key in self._entries:
            return False
        self._entries[key] = RetryEntry(
            pid=result.pid, dst=result.dst, kind=result.kind,
            attempts=1, next_epoch=epoch + self._backoff(1),
        )
        self.pushed += 1
        return True

    def due(self, epoch: int) -> List[RetryEntry]:
        """Pop every entry whose backoff has expired (stable order)."""
        ready = [
            e for e in self._entries.values() if e.next_epoch <= epoch
        ]
        for entry in ready:
            del self._entries[(entry.pid, entry.dst, entry.kind)]
        self.retried += len(ready)
        return ready

    def requeue(self, entry: RetryEntry, epoch: int) -> bool:
        """Re-queue a retried entry that failed again; False = capped."""
        attempts = entry.attempts + 1
        if attempts > self.max_attempts:
            self.dropped += 1
            return False
        key = (entry.pid, entry.dst, entry.kind)
        self._entries[key] = RetryEntry(
            pid=entry.pid, dst=entry.dst, kind=entry.kind,
            attempts=attempts,
            next_epoch=epoch + self._backoff(attempts),
        )
        return True

    def resolve(self, succeeded: bool) -> None:
        """Record a retried entry's terminal outcome."""
        if succeeded:
            self.succeeded += 1
        else:
            self.dropped += 1

    def begin_epoch(self) -> None:
        self._epoch_base = (
            self.pushed, self.retried, self.succeeded, self.dropped
        )

    def epoch_counts(self) -> Tuple[int, int, int, int]:
        """(pushed, retried, succeeded, dropped) since ``begin_epoch``."""
        base = self._epoch_base
        now = (self.pushed, self.retried, self.succeeded, self.dropped)
        return tuple(n - b for n, b in zip(now, base))
