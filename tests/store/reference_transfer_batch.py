"""The object-walk transfer batch, frozen as a test oracle.

This is ``repro.store.transfer.TransferBatch`` (with the grouped
reservation of ``TransferEngine.execute_batch``) as it stood before the
batch moved onto slot columns: every check walks ``Server`` row views
(``cloud.server(sid).alive``, ``.storage_available``), budgets are one
``TransferKind``-keyed dict of slot vectors, pending storage is keyed by
server id, and the commit reserves each (kind, server) group through the
``BandwidthBudget`` object API.  The bodies are verbatim; only the
commit calls :func:`reference_execute_batch` instead of looking the
engine's method up.  It exists only so ``test_transfer_batch_differential.py``
can drive it next to the shipped batch and demand the same outcomes,
stats, failure records and post-commit state.  Do not optimise it and do
not import it from ``src/``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.cluster.server import BandwidthBudget, Server
from repro.ring.partition import Partition
from repro.store.replica import ReplicaError
from repro.store.transfer import (
    NO_DESTINATION,
    TransferEngine,
    TransferKind,
    TransferOutcome,
    TransferRequest,
    TransferResult,
)


def _budget(server: Server, kind: TransferKind) -> BandwidthBudget:
    if kind is TransferKind.REPLICATION:
        return server.replication_budget
    return server.migration_budget


def reference_execute_batch(engine: TransferEngine,
                            requests) -> List[TransferResult]:
    """``TransferEngine.execute_batch`` with per-object reservations."""
    grouped: Dict[Tuple[TransferKind, int], int] = {}
    for r in requests:
        size = r.partition.size
        if r.src is not None:
            key = (r.kind, r.src)
            grouped[key] = grouped.get(key, 0) + size
        key = (r.kind, r.dst)
        grouped[key] = grouped.get(key, 0) + size
    for (kind, sid), nbytes in grouped.items():
        _budget(engine._cloud.server(sid), kind).reserve(nbytes)
    results: List[TransferResult] = []
    for r in requests:
        size = r.partition.size
        if r.vacate:
            engine._catalog.move(r.partition, r.src, r.dst)
        else:
            engine._catalog.place(r.partition, r.dst)
        engine._count_completed(r.kind, size)
        results.append(
            TransferResult(
                r.kind, TransferOutcome.COMPLETED, r.partition.pid,
                r.src, r.dst, size,
            )
        )
    return results


class ReferenceTransferBatch:
    """Intent collector with exact pending-resource mirrors."""

    def __init__(self, engine: TransferEngine) -> None:
        self._engine = engine
        self._cloud = engine._cloud
        self._slot_of = engine._cloud.slot_map
        self._catalog = engine._catalog
        self._items: List[TransferRequest] = []
        self._pending_storage: Dict[int, int] = {}
        self._avail_vectors: Dict[TransferKind, np.ndarray] = {}
        self._pending_replicas: Set[Tuple[object, int]] = set()
        self._vacated: Set[Tuple[object, int]] = set()

    def _has_replica_now(self, pid, server_id: int) -> bool:
        key = (pid, server_id)
        if key in self._pending_replicas:
            return True
        return (
            key not in self._vacated
            and self._catalog.has_replica(pid, server_id)
        )

    def __len__(self) -> int:
        return len(self._items)

    def budget_available(self, server_id: int,
                         kind: TransferKind = TransferKind.REPLICATION
                         ) -> int:
        vec = self.budget_available_vector(kind)
        return int(vec[self._slot_of[server_id]])

    def storage_available(self, server_id: int) -> int:
        real = self._cloud.server(server_id).storage_available
        return real - self._pending_storage.get(server_id, 0)

    def budget_available_vector(self, kind: TransferKind) -> np.ndarray:
        vec = self._avail_vectors.get(kind)
        if vec is None:
            vec = self._cloud.budget_available_vector(kind.value).astype(
                np.int64, copy=True
            )
            self._avail_vectors[kind] = vec
        return vec

    def _check(self, partition: Partition, src_id: Optional[int],
               dst_id: int, kind: TransferKind
               ) -> Optional[TransferOutcome]:
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
        stats = self._engine.stats
        stats.deferred += 1
        stats.record_failure(
            kind, TransferOutcome.NO_SOURCE_BANDWIDTH, partition.pid,
            src_id, NO_DESTINATION, partition.size,
        )

    def add_replication(self, partition: Partition, src_id: Optional[int],
                        dst_id: int) -> Optional[TransferOutcome]:
        return self._add(
            TransferKind.REPLICATION, partition, src_id, dst_id
        )

    def add_migration(self, partition: Partition, src_id: int,
                      dst_id: int,
                      kind: TransferKind = TransferKind.MIGRATION
                      ) -> Optional[TransferOutcome]:
        if not self._has_replica_now(partition.pid, src_id):
            raise ReplicaError(
                f"{partition.pid} has no replica on {src_id} to migrate"
            )
        return self._add(kind, partition, src_id, dst_id, vacate=True)

    def commit(self) -> List[TransferResult]:
        if not self._items:
            return []
        items, self._items = self._items, []
        self._pending_storage.clear()
        self._pending_replicas.clear()
        self._vacated.clear()
        self._avail_vectors.clear()
        return reference_execute_batch(self._engine, items)
