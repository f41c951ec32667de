"""Replica catalog: which servers hold a copy of which partition.

The catalog is the ground truth the economy reasons over: eq. 2
availability is computed over a partition's replica set, and every
replicate / migrate / suicide decision is a catalog mutation with
storage accounting on the affected servers.

Each replica corresponds to one *virtual node* in the paper's terms —
an agent responsible for one copy of one partition on one server.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.topology import Cloud
from repro.ring.partition import Partition, PartitionId


class ReplicaError(ValueError):
    """Raised for catalog misuse (duplicate or missing replicas)."""


class CatalogListener:
    """Observer interface for catalog membership changes.

    The vectorized epoch kernel maintains derived structures (the eq. 2
    availability cache, most notably) incrementally instead of re-walking
    the catalog every epoch; listeners are how those structures hear
    about mutations.  All callbacks fire *after* the catalog indexes
    were updated, so ``catalog.servers_of(pid)`` reflects the new state.
    """

    def replica_added(self, pid: PartitionId, server_id: int,
                      servers: Sequence[int]) -> None:
        """A replica appeared; ``servers`` is the post-add replica set."""

    def replica_removed(self, pid: PartitionId, server_id: int,
                        servers: Sequence[int]) -> None:
        """A replica left; ``servers`` is the post-remove replica set."""

    def server_dropped(self, server_id: int,
                       lost: Sequence[PartitionId]) -> None:
        """A server died; ``lost`` are the partitions that lost a copy."""

    def partition_split(self, parent: PartitionId, low: PartitionId,
                        high: PartitionId,
                        servers: Sequence[int]) -> None:
        """A split re-homed ``parent`` onto two children on ``servers``."""

    def storage_changed(self, server_id: int, delta: int) -> None:
        """``delta`` bytes were allocated (+) or freed (−) on a server.

        Fired for every catalog-driven storage mutation — replica
        placement/drop, insert growth, splits — *including* during a
        split (unlike the membership callbacks, which a split collapses
        into one structural event).  Not fired when a dead server's
        bytes vanish with the machine (``drop_server``); consumers
        tracking storage must rebuild on cloud membership changes.
        """


@dataclass(frozen=True)
class FlatReplicaView:
    """Slot-friendly snapshot of the replica incidence structure.

    ``pids[i]`` owns the replicas ``server_ids[offsets[i]:offsets[i+1]]``
    (placement order preserved); ``offsets`` has ``len(pids) + 1``
    entries.  The batched eq. 5 settlement consumes this layout directly
    instead of performing per-replica dict lookups.  ``offsets`` and
    ``server_ids`` are numpy arrays (treat as read-only) so consumers
    index them without a tuple→array conversion per rebuild.
    """

    version: int
    pids: Tuple[PartitionId, ...]
    offsets: np.ndarray
    server_ids: np.ndarray


@dataclass(frozen=True, order=True)
class ReplicaKey:
    """Identity of one replica: (partition, hosting server)."""

    pid: PartitionId
    server_id: int

    def __str__(self) -> str:
        return f"{self.pid}@s{self.server_id}"


class ReplicaCatalog:
    """Bidirectional partition ↔ server replica index with byte accounting.

    Mutations keep three invariants:

    * a (partition, server) pair appears at most once;
    * ``server.storage_used`` equals the sum of the sizes of the
      partitions it hosts (enforced via allocate/free on every change);
    * the per-server index and per-partition index stay mirror images.
    """

    def __init__(self, cloud: Cloud) -> None:
        self._cloud = cloud
        self._servers_of: Dict[PartitionId, List[int]] = {}
        self._partitions_on: Dict[int, Set[PartitionId]] = {}
        self._listeners: List[CatalogListener] = []
        self._version = 0
        self._flat_view: Optional[FlatReplicaView] = None
        self._in_split = False

    # -- listeners ---------------------------------------------------------

    def add_listener(self, listener: CatalogListener) -> None:
        """Subscribe ``listener`` to membership changes (idempotent)."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: CatalogListener) -> None:
        self._listeners = [l for l in self._listeners if l is not listener]

    def _touch(self) -> None:
        self._version += 1

    @property
    def version(self) -> int:
        """Monotone mutation counter; derived caches key off it."""
        return self._version

    def flat_view(self) -> FlatReplicaView:
        """The maintained replica-incidence structure, rebuilt lazily.

        Cached against :attr:`version`, so epochs without catalog
        mutations (and repeated consumers within one epoch) pay nothing;
        a rebuild is one O(total replicas) pass with no per-item dict
        lookups on the consumer side.
        """
        view = self._flat_view
        if view is not None and view.version == self._version:
            return view
        servers_of = self._servers_of
        pids = tuple(servers_of.keys())
        counts = np.fromiter(
            (len(s) for s in servers_of.values()), dtype=np.intp,
            count=len(pids),
        )
        offsets = np.zeros(len(pids) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        flat = list(itertools.chain.from_iterable(servers_of.values()))
        view = FlatReplicaView(
            version=self._version,
            pids=pids,
            offsets=offsets,
            server_ids=np.array(flat, dtype=np.int64),
        )
        self._flat_view = view
        return view

    # -- queries -----------------------------------------------------------

    def servers_of(self, pid: PartitionId) -> List[int]:
        """Server ids holding a replica of ``pid``, in placement order."""
        return list(self._servers_of.get(pid, ()))

    def replica_servers(self, pid: PartitionId) -> Sequence[int]:
        """Zero-copy view of :meth:`servers_of` — read-only by contract.

        The epoch kernel touches every partition's replica list several
        times per epoch; handing out the internal list (callers must
        not mutate it) avoids thousands of per-epoch copies.
        """
        return self._servers_of.get(pid, ())

    def partitions_on(self, server_id: int) -> List[PartitionId]:
        return sorted(self._partitions_on.get(server_id, ()))

    def replica_count(self, pid: PartitionId) -> int:
        return len(self._servers_of.get(pid, ()))

    def vnode_count(self, server_id: int) -> int:
        """Number of virtual nodes (replicas) hosted by one server."""
        return len(self._partitions_on.get(server_id, ()))

    def has_replica(self, pid: PartitionId, server_id: int) -> bool:
        return server_id in self._servers_of.get(pid, ())

    def partitions(self) -> List[PartitionId]:
        return list(self._servers_of.keys())

    def replicas(self) -> Iterator[ReplicaKey]:
        for pid, servers in self._servers_of.items():
            for sid in servers:
                yield ReplicaKey(pid, sid)

    @property
    def total_replicas(self) -> int:
        return sum(len(s) for s in self._servers_of.values())

    # -- mutations -----------------------------------------------------------

    def place(self, partition: Partition, server_id: int) -> ReplicaKey:
        """Create a replica of ``partition`` on ``server_id``.

        Allocates the partition's bytes on the server; raises if the
        server is down, full, or already holds a replica.
        """
        pid = partition.pid
        if self.has_replica(pid, server_id):
            raise ReplicaError(f"{pid} already has a replica on {server_id}")
        server = self._cloud.server(server_id)
        server.allocate_storage(partition.size)
        for listener in self._listeners:
            listener.storage_changed(server_id, partition.size)
        self._servers_of.setdefault(pid, []).append(server_id)
        self._partitions_on.setdefault(server_id, set()).add(pid)
        self._touch()
        if self._listeners and not self._in_split:
            servers = self._servers_of[pid]
            for listener in self._listeners:
                listener.replica_added(pid, server_id, servers)
        return ReplicaKey(pid, server_id)

    def drop(self, partition: Partition, server_id: int) -> None:
        """Remove the replica of ``partition`` from ``server_id``."""
        pid = partition.pid
        if not self.has_replica(pid, server_id):
            raise ReplicaError(f"{pid} has no replica on {server_id}")
        if server_id in self._cloud:
            self._cloud.server(server_id).free_storage(partition.size)
            for listener in self._listeners:
                listener.storage_changed(server_id, -partition.size)
        self._unlink(pid, server_id)

    def _unlink(self, pid: PartitionId, server_id: int) -> None:
        """Forget one replica in both indexes (no storage accounting)."""
        self._servers_of[pid].remove(server_id)
        remaining: Sequence[int] = self._servers_of.get(pid, ())
        if not self._servers_of[pid]:
            del self._servers_of[pid]
        self._partitions_on[server_id].discard(pid)
        if not self._partitions_on[server_id]:
            del self._partitions_on[server_id]
        self._touch()
        if self._listeners and not self._in_split:
            for listener in self._listeners:
                listener.replica_removed(pid, server_id, remaining)

    def move(self, partition: Partition, src: int, dst: int) -> ReplicaKey:
        """Migrate one replica between servers atomically."""
        if not self.has_replica(partition.pid, src):
            raise ReplicaError(f"{partition.pid} has no replica on {src}")
        key = self.place(partition, dst)
        self.drop(partition, src)
        return key

    def grow_replicas(self, pid: PartitionId, nbytes: int) -> None:
        """Account ``nbytes`` of new data on every replica's server.

        Called by the insert path *after* the partition object grew; the
        catalog only mirrors the growth onto server storage counters.
        """
        if nbytes < 0:
            raise ReplicaError(f"cannot grow by negative bytes: {nbytes}")
        for sid in self._servers_of.get(pid, ()):
            # A replica on a down-but-undetected host (a ghost, in the
            # faulty-network control plane) misses the write: the host
            # cannot receive bytes.  Under instant detection dead
            # servers are dropped before any insert, so this guard
            # never fires there.
            if not self._cloud.server(sid).alive:
                continue
            self._cloud.server(sid).allocate_storage(nbytes)
            for listener in self._listeners:
                listener.storage_changed(sid, nbytes)

    def shrink_replicas(self, pid: PartitionId, nbytes: int) -> None:
        """Account ``nbytes`` of removed data on every replica's server.

        Mirror of :meth:`grow_replicas` for the delete/overwrite path;
        routing shrinks through the catalog keeps listeners (the eq. 1
        cost vectors, most notably) in sync with server storage.
        """
        if nbytes < 0:
            raise ReplicaError(f"cannot shrink by negative bytes: {nbytes}")
        for sid in self._servers_of.get(pid, ()):
            # Mirror of the grow guard: a down host processes no
            # deletes either (its bytes die with it on removal).
            if not self._cloud.server(sid).alive:
                continue
            self._cloud.server(sid).free_storage(nbytes)
            for listener in self._listeners:
                listener.storage_changed(sid, -nbytes)

    def can_grow_replicas(self, pid: PartitionId, nbytes: int) -> bool:
        """True when every hosting server can absorb ``nbytes`` more."""
        servers = self._servers_of.get(pid, ())
        if not servers:
            return False
        return all(
            self._cloud.server(sid).can_store(nbytes) for sid in servers
        )

    def drop_server(self, server_id: int) -> List[PartitionId]:
        """Forget every replica on a failed server (bytes die with it).

        Storage is *not* freed on the server object — the machine is
        gone; the catalog simply stops referencing it.  Returns the
        partitions that lost a replica so agents can re-protect them.
        """
        lost = sorted(self._partitions_on.pop(server_id, ()))
        for pid in lost:
            self._servers_of[pid].remove(server_id)
            if not self._servers_of[pid]:
                del self._servers_of[pid]
        if lost:
            self._touch()
            for listener in self._listeners:
                listener.server_dropped(server_id, lost)
        return lost

    def split_partition(self, parent: Partition, low: Partition,
                        high: Partition) -> None:
        """Re-home a split: every parent replica becomes low+high replicas.

        The byte deltas are already consistent (children conserve the
        parent's size), so servers see no net storage change beyond
        rounding of the share split.
        """
        servers = self.servers_of(parent.pid)
        if not servers:
            raise ReplicaError(f"{parent.pid} has no replicas to split")
        # Per-replica add/remove notifications are suppressed for the
        # split: listeners get the single structural event below, whose
        # invariant (children inherit the parent's exact replica set) is
        # what lets the availability cache transfer values instead of
        # recomputing pair sums.
        self._in_split = True
        try:
            for sid in servers:
                server = self._cloud.server(sid)
                if server.alive:
                    self.drop(parent, sid)
                    server.allocate_storage(low.size + high.size)
                    for listener in self._listeners:
                        listener.storage_changed(sid, low.size + high.size)
                else:
                    # A ghost (killed, not yet detected): its bytes died
                    # with it (see drop_server), so only the index
                    # entries move — no storage to free or allocate.
                    self._unlink(parent.pid, sid)
                self._servers_of.setdefault(low.pid, []).append(sid)
                self._servers_of.setdefault(high.pid, []).append(sid)
                self._partitions_on.setdefault(sid, set()).update(
                    (low.pid, high.pid)
                )
        finally:
            self._in_split = False
        self._touch()
        for listener in self._listeners:
            listener.partition_split(parent.pid, low.pid, high.pid, servers)

    # -- integrity ------------------------------------------------------------

    def check_consistency(self, partitions: Dict[PartitionId, Partition]
                          ) -> None:
        """Verify both indexes mirror each other and byte accounting holds."""
        for pid, servers in self._servers_of.items():
            if len(set(servers)) != len(servers):
                raise ReplicaError(f"duplicate replica entries for {pid}")
            for sid in servers:
                if pid not in self._partitions_on.get(sid, ()):
                    raise ReplicaError(
                        f"index mismatch: {pid} not in server {sid} view"
                    )
        for sid, pids in self._partitions_on.items():
            for pid in pids:
                if sid not in self._servers_of.get(pid, ()):
                    raise ReplicaError(
                        f"index mismatch: server {sid} not in {pid} view"
                    )
            # A ghost's byte counter froze when it died (grow/shrink and
            # splits skip it); only live machines account for storage.
            if sid in self._cloud and self._cloud.server(sid).alive:
                expected = sum(partitions[pid].size for pid in pids)
                actual = self._cloud.server(sid).storage_used
                if expected != actual:
                    raise ReplicaError(
                        f"server {sid} storage mismatch: "
                        f"catalog={expected}, server={actual}"
                    )
