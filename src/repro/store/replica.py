"""Replica catalog: which servers hold a copy of which partition.

The catalog is the ground truth the economy reasons over: eq. 2
availability is computed over a partition's replica set, and every
replicate / migrate / suicide decision is a catalog mutation with
storage accounting on the affected servers.

Each replica is one *virtual node* in the paper's terms — an agent
responsible for one copy of one partition on one server — so the
catalog is also the agents' table: beside each replica's server id it
keeps the row of its agent in the catalog-owned
:class:`~repro.core.agent.AgentLedger`, and it is the only writer of
rows.  A placement acquires a row, a drop releases it, a move keeps it
(re-pointed, one move counted, window reset) and a split gives each
server two child rows at half the parent's wealth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.topology import Cloud
from repro.core.agent import AgentLedger
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


@dataclass(frozen=True)
class FlatReplicaView:
    """Slot-friendly snapshot of the replica incidence structure.

    ``pids[i]`` owns the replicas ``offsets[i]:offsets[i+1]`` of the
    parallel ``rows`` (their agents' ledger rows) and ``server_ids``
    (placement order preserved); ``offsets`` has ``len(pids) + 1``
    entries.  The batched eq. 5 settlement consumes this layout directly
    instead of performing per-replica dict lookups.  The arrays are
    numpy (treat as read-only) so consumers index them without a
    tuple→array conversion per rebuild.  ``pids`` stays the same tuple
    object across rebuilds while the catalog's partition set is
    unchanged, so consumers may key per-partition arrays on it.
    """

    version: int
    pids: Tuple[PartitionId, ...]
    offsets: np.ndarray
    rows: np.ndarray
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

    Mutations keep four invariants:

    * a (partition, server) pair appears at most once;
    * ``server.storage_used`` equals the sum of the sizes of the
      partitions it hosts (enforced via allocate/free on every change);
    * the per-server index and per-partition index stay mirror images;
    * every replica owns one live ledger row, whose server id is the
      replica's.

    ``window`` is the agents' hysteresis ``f`` (the ledger's balance
    window); a catalog no economy reads keeps the default.
    """

    def __init__(self, cloud: Cloud, window: int = 1) -> None:
        self._cloud = cloud
        self._ledger = AgentLedger(window)
        self._servers_of: Dict[PartitionId, List[int]] = {}
        #: Per partition, its replicas' ledger rows, parallel to
        #: ``_servers_of`` (same keys, same order, same lengths).
        self._rows_of: Dict[PartitionId, List[int]] = {}
        self._partitions_on: Dict[int, Set[PartitionId]] = {}
        self._listeners: List[CatalogListener] = []
        self._version = 0
        #: Bumped whenever a partition key appears or disappears (the
        #: flat view's ``pids`` order can only change then).
        self._keyset = 0
        self._flat_keyset = -1
        self._flat_view: Optional[FlatReplicaView] = None
        self._in_split = False

    # -- listeners ---------------------------------------------------------

    def add_listener(self, listener: CatalogListener) -> None:
        """Subscribe ``listener`` to membership changes (idempotent)."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def _touch(self) -> None:
        self._version += 1

    @property
    def version(self) -> int:
        """Monotone mutation counter; derived caches key off it."""
        return self._version

    @property
    def ledger(self) -> AgentLedger:
        """The agents' ledger (replaced whole by :meth:`compact_rows`)."""
        return self._ledger

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
        rows_of = self._rows_of
        if view is not None and self._flat_keyset == self._keyset:
            pids = view.pids
        else:
            pids = tuple(rows_of.keys())
            self._flat_keyset = self._keyset
        counts = np.fromiter(
            (len(r) for r in rows_of.values()), dtype=np.intp,
            count=len(pids),
        )
        offsets = np.zeros(len(pids) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        rows = np.fromiter(
            itertools.chain.from_iterable(rows_of.values()),
            dtype=np.intp, count=int(offsets[-1]),
        )
        view = FlatReplicaView(
            version=self._version,
            pids=pids,
            offsets=offsets,
            rows=rows,
            server_ids=self._ledger.server_id_vector()[rows].astype(
                np.int64
            ),
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

    def rows_of(self, pid: PartitionId) -> Sequence[int]:
        """``pid``'s agents' ledger rows, parallel to
        :meth:`replica_servers` (zero-copy, read-only by contract)."""
        return self._rows_of.get(pid, ())

    def row_of(self, pid: PartitionId, server_id: int) -> int:
        """The ledger row of ``pid``'s replica on ``server_id``."""
        servers = self._servers_of.get(pid, ())
        if server_id not in servers:
            raise ReplicaError(f"{pid} has no replica on {server_id}")
        return self._rows_of[pid][servers.index(server_id)]

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

        Allocates the partition's bytes on the server and a fresh
        ledger row for its agent; raises if the server is down, full,
        or already holds a replica.
        """
        self._allocate(partition, server_id)
        self._link(partition.pid, server_id, self._ledger.acquire(server_id))
        return ReplicaKey(partition.pid, server_id)

    def _allocate(self, partition: Partition, server_id: int) -> None:
        """Charge a new replica's bytes to its server (checked)."""
        pid = partition.pid
        if self.has_replica(pid, server_id):
            raise ReplicaError(f"{pid} already has a replica on {server_id}")
        self._cloud.server(server_id).allocate_storage(partition.size)

    def _link(self, pid: PartitionId, server_id: int, row: int) -> None:
        """Append one replica (and its agent's row) to both indexes."""
        if pid not in self._servers_of:
            self._servers_of[pid] = []
            self._rows_of[pid] = []
            self._keyset += 1
        self._servers_of[pid].append(server_id)
        self._rows_of[pid].append(row)
        self._partitions_on.setdefault(server_id, set()).add(pid)
        self._touch()
        if self._listeners and not self._in_split:
            servers = self._servers_of[pid]
            for listener in self._listeners:
                listener.replica_added(pid, server_id, servers)

    def drop(self, partition: Partition, server_id: int) -> None:
        """Remove the replica of ``partition`` from ``server_id``; its
        agent's ledger row is released."""
        self._free(partition, server_id)
        self._ledger.release(self._unlink(partition.pid, server_id))

    def _free(self, partition: Partition, server_id: int) -> None:
        """Return a replica's bytes to its server (checked)."""
        if not self.has_replica(partition.pid, server_id):
            raise ReplicaError(f"{partition.pid} has no replica on {server_id}")
        if server_id in self._cloud:
            self._cloud.server(server_id).free_storage(partition.size)

    def _unlink(self, pid: PartitionId, server_id: int) -> int:
        """Forget one replica in both indexes (no storage accounting);
        returns its agent's ledger row, which the caller disposes of."""
        servers = self._servers_of[pid]
        idx = servers.index(server_id)
        del servers[idx]
        row = self._rows_of[pid].pop(idx)
        if not servers:
            del self._servers_of[pid]
            del self._rows_of[pid]
            self._keyset += 1
        self._partitions_on[server_id].discard(pid)
        if not self._partitions_on[server_id]:
            del self._partitions_on[server_id]
        self._touch()
        if self._listeners and not self._in_split:
            for listener in self._listeners:
                listener.replica_removed(pid, server_id, servers)
        return row

    def move(self, partition: Partition, src: int, dst: int) -> ReplicaKey:
        """Migrate one replica between servers atomically.

        Place on ``dst``, then drop from ``src`` (listeners hear exactly
        that), with the agent's ledger row carried across: it is
        re-pointed at ``dst``, counts one move and restarts its window.
        """
        pid = partition.pid
        row = self.row_of(pid, src)
        self._allocate(partition, dst)
        self._link(pid, dst, row)
        self._free(partition, src)
        self._unlink(pid, src)
        ledger = self._ledger
        ledger.set_server_id(row, dst)
        ledger.add_move(row)
        ledger.reset_window(row)
        return ReplicaKey(pid, dst)

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

    def drop_server(self, server_id: int) -> List[PartitionId]:
        """Forget every replica on a failed server (bytes die with it).

        Storage is *not* freed on the server object — the machine is
        gone; the catalog simply stops referencing it.  Returns the
        partitions that lost a replica so agents can re-protect them.
        """
        lost = sorted(self._partitions_on.pop(server_id, ()))
        for pid in lost:
            servers = self._servers_of[pid]
            idx = servers.index(server_id)
            del servers[idx]
            self._ledger.release(self._rows_of[pid].pop(idx))
            if not servers:
                del self._servers_of[pid]
                del self._rows_of[pid]
                self._keyset += 1
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
        rounding of the share split.  Each parent agent's row is
        released and its server gets two fresh child rows, each
        inheriting half the parent's wealth (the balance windows
        restart — the children face fresh economics).
        """
        servers = self.servers_of(parent.pid)
        if not servers:
            raise ReplicaError(f"{parent.pid} has no replicas to split")
        ledger = self._ledger
        self._keyset += 1
        # Per-replica add/remove notifications are suppressed for the
        # split: listeners get the single structural event below, whose
        # invariant (children inherit the parent's exact replica set) is
        # what lets the availability cache transfer values instead of
        # recomputing pair sums.
        self._in_split = True
        try:
            for sid in servers:
                # A ghost (killed, not yet detected): its bytes died
                # with it (see drop_server), so only the index entries
                # move — no storage to free or allocate.
                server = self._cloud.server(sid)
                if server.alive:
                    self._free(parent, sid)
                row = self._unlink(parent.pid, sid)
                inherited = ledger.wealth(row) / 2.0
                ledger.release(row)
                if server.alive:
                    server.allocate_storage(low.size + high.size)
                for child in (low, high):
                    row = ledger.acquire(sid)
                    ledger.set_wealth(row, inherited)
                    self._servers_of.setdefault(child.pid, []).append(sid)
                    self._rows_of.setdefault(child.pid, []).append(row)
                self._partitions_on.setdefault(sid, set()).update(
                    (low.pid, high.pid)
                )
        finally:
            self._in_split = False
        self._touch()
        for listener in self._listeners:
            listener.partition_split(parent.pid, low.pid, high.pid, servers)

    def compact_rows(self) -> None:
        """Repack the ledger densely and remap every replica's row.

        Live rows keep their relative order; the version moves, so
        cached flat views (which carry rows) rebuild.
        """
        fresh, remap = self._ledger.compacted()
        remap = remap.tolist()
        for rows in self._rows_of.values():
            rows[:] = [remap[row] for row in rows]
        self._ledger = fresh
        self._touch()

    # -- integrity ------------------------------------------------------------

    def check_consistency(self, partitions: Dict[PartitionId, Partition]
                          ) -> None:
        """Verify both indexes mirror each other, every replica's agent
        row names its server, and byte accounting holds."""
        sid_of_row = self._ledger.server_id_vector()
        owned: List[int] = []
        for pid, servers in self._servers_of.items():
            if len(set(servers)) != len(servers):
                raise ReplicaError(f"duplicate replica entries for {pid}")
            rows = self._rows_of.get(pid, ())
            owned.extend(rows)
            if [int(sid_of_row[row]) for row in rows] != servers:
                raise ReplicaError(
                    f"agent rows of {pid} do not name its servers"
                )
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
            # A ghost's byte counter froze when it died (growth and
            # splits skip it); only live machines account for storage.
            if sid in self._cloud and self._cloud.server(sid).alive:
                expected = sum(partitions[pid].size for pid in pids)
                actual = self._cloud.server(sid).storage_used
                if expected != actual:
                    raise ReplicaError(
                        f"server {sid} storage mismatch: "
                        f"catalog={expected}, server={actual}"
                    )
        if sorted(owned) != self._ledger.live_row_indices().tolist():
            raise ReplicaError(
                f"{len(owned)} replicas do not own the ledger's "
                f"{self._ledger.live_rows} live rows one to one"
            )
