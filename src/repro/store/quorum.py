"""Quorum reads/writes routed through the *believed* membership view.

The economy prices the network cost of keeping replicas consistent
(§II-C); this module supplies the consistency substrate itself, in the
Dynamo tradition the paper builds on [5]: every replica holds its own
versioned copy, writes succeed once ``W`` replicas acknowledge, reads
consult ``R`` replicas and return the freshest version (repairing
stale copies), and ``R + W > N`` yields read-your-writes.

It is the repo's one key-value store: both instances of the serving
overlay (the front door and the data plane) run on it, and it keeps
*physically separate* per-server copies so staleness, divergence after
failures, and repair are all observable.

Since ISSUE 7 the store never reads ``Cloud.alive`` directly (the
``tests/test_lint.py`` membership seal enforces this): replica
selection goes through a membership view's ``believed`` verdicts, and
actually contacting a replica goes through its ``responds`` /
``reachable`` probes — so the store *routes on belief* and *fails on
reality*, exactly like a real coordinator behind an imperfect failure
detector:

* a **ghost** (dead but believed live) is selected for the operation
  and yields a per-replica ``TIMEOUT`` outcome instead of a silent
  success;
* a **false suspect** (alive but believed dead) is *skipped*, not
  read, even though it holds data;
* a replica the coordinator cannot currently reach (partition, flap)
  yields ``UNREACHABLE``.

On that seam sits the classic repair ladder: **sloppy quorum with
hinted handoff** (an attached :class:`~repro.store.hints.HintStore`
lets a write count diverted hints toward its quorum; hints drain when
the target rehabilitates), **read repair** (stale copies observed
during a quorum read are patched inline), and a budget-capped
**anti-entropy pass** (:meth:`QuorumKVStore.anti_entropy`) that walks
partitions round-robin exchanging digests so replicas no read ever
touches still converge.

With the default :class:`~repro.net.membership.OracleMembership` view
(``membership=None``) belief equals reality and every probe succeeds,
so behavior is byte-identical to the pre-seam store — the same
identity argument the control plane makes for ``net is None``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.location import Location, diversity
from repro.cluster.topology import Cloud
from repro.net.membership import OracleMembership
from repro.ring.hashing import Key, hash_key, key_bytes
from repro.ring.partition import PartitionId
from repro.ring.router import ContactOrder, Route, Router
from repro.ring.virtualring import RingSet
from repro.store.hints import HintStore
from repro.store.replica import CatalogListener, ReplicaCatalog

#: Modeled wire overhead per patched key during anti-entropy digest
#: exchange (version stamp + addressing), counted into
#: ``anti_entropy_bytes`` on top of the value payload.
DIGEST_OVERHEAD_BYTES = 16


class QuorumError(RuntimeError):
    """Raised when a quorum cannot be assembled."""


class Level(enum.Enum):
    """Per-operation consistency level."""

    ONE = "one"
    QUORUM = "quorum"
    ALL = "all"

    def required(self, n: int) -> int:
        """Acks needed out of ``n`` replicas."""
        if n <= 0:
            return 1
        if self is Level.ONE:
            return 1
        if self is Level.QUORUM:
            return n // 2 + 1
        return n


class ReplicaOutcome(enum.Enum):
    """What happened when the coordinator tried one replica."""

    OK = "ok"
    TIMEOUT = "timeout"          # believed live, physically dead (ghost)
    UNREACHABLE = "unreachable"  # believed live, path from coordinator cut
    SKIPPED = "skipped"          # believed dead (suspect), never tried


@dataclass(frozen=True)
class Versioned:
    """One replica's copy of one key."""

    value: Optional[bytes]  # None = tombstone
    version: int

    @property
    def is_tombstone(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class QuorumReadResult:
    """Outcome of a quorum read."""

    value: Optional[bytes]
    version: int
    contacted: Tuple[int, ...]
    stale_replicas: Tuple[int, ...]
    attempts: Tuple[Tuple[int, str], ...] = ()

    @property
    def found(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class QuorumWriteResult:
    """Outcome of a quorum write."""

    version: int
    acked: Tuple[int, ...]
    missed: Tuple[int, ...]
    hinted: Tuple[int, ...] = ()
    attempts: Tuple[Tuple[int, str], ...] = ()


class DataPlaneStats:
    """Monotonic data-plane counters (per-epoch deltas upstream).

    ``levels`` aggregates per consistency level: level value →
    ``[ok_ops, replica_timeouts, stale_copies_observed]``.
    """

    SCALARS = (
        "reads", "writes", "read_failures", "write_failures",
        "replica_timeouts", "replica_unreachable", "suspects_skipped",
        "stale_observed", "read_repairs", "handoff_writes",
        "hints_parked", "hints_drained", "hints_expired",
        "anti_entropy_partitions", "anti_entropy_keys",
        "anti_entropy_bytes",
    )

    def __init__(self) -> None:
        for name in self.SCALARS:
            setattr(self, name, 0)
        self.levels: Dict[str, List[int]] = {}

    def bump_level(self, level: Level, *, ok: int = 0, timeouts: int = 0,
                   stale: int = 0) -> None:
        # ``_value_`` is the plain attribute behind ``.value``, whose
        # descriptor costs a Python-level call per access (here and in
        # the per-replica ``attempts`` rows below).
        row = self.levels.setdefault(level._value_, [0, 0, 0])
        row[0] += ok
        row[1] += timeouts
        row[2] += stale

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.SCALARS}

    def level_rows(self) -> Dict[str, Tuple[int, int, int]]:
        return {lv: tuple(row) for lv, row in self.levels.items()}


class QuorumKVStore:
    """Per-replica versioned store with quorum operations."""

    def __init__(self, cloud: Cloud, rings: RingSet,
                 catalog: ReplicaCatalog, *,
                 membership=None,
                 hints: Optional[HintStore] = None,
                 track_catalog: bool = False,
                 router: Optional[Router] = None) -> None:
        self._cloud = cloud
        self._rings = rings
        self._catalog = catalog
        self._membership = (
            membership if membership is not None else OracleMembership(cloud)
        )
        self._reachable = getattr(self._membership, "reachable", None)
        # Route-less calls resolve through the overlay's own Router (one
        # per overlay); a standalone store builds its own.
        self._router = router if router is not None else Router(
            cloud, rings, catalog, membership=self._membership
        )
        self._hints = hints
        self.stats = DataPlaneStats()
        self._epoch = 0
        self._ae_cursor = 0
        # (server, partition) -> key -> Versioned
        self._copies: Dict[Tuple[int, PartitionId], Dict[bytes, Versioned]] = {}
        self._next_version: Dict[Tuple[PartitionId, bytes], int] = {}
        #: Read plans compiled (every other read replayed one).
        self.read_plan_compiles = 0
        if track_catalog:
            catalog.add_listener(_CopyMirror(self))

    @property
    def hints(self) -> Optional[HintStore]:
        return self._hints

    def begin_epoch(self, epoch: int) -> None:
        """Advance the store's clock (hint TTL / backoff timebase)."""
        self._epoch = epoch

    # -- plumbing ------------------------------------------------------------

    def _route(self, app_id: int, ring_id: int, key: Key) -> PartitionId:
        return self._router.partition_of(app_id, ring_id, key).pid

    def _resolve(self, app_id: int, ring_id: int, key: Key,
                 client: Optional[Location],
                 route: Optional[Route]) -> Tuple[PartitionId, ContactOrder]:
        """What one operation acts on, beyond its key: the partition and
        its :class:`ContactOrder`, resolved against the catalog.

        The ring lookup and catalog walk happen here unless the caller
        hands over the :class:`Route` it resolved; the catalog's replica
        list and the suspects skipped (believed-dead replicas that would
        have answered) are compiled once per order, counted per call.
        """
        if route is None:
            pid = self._route(app_id, ring_id, key)
            order = ContactOrder(
                *self._router.believed_replicas(pid, client)
            )
        else:
            pid, order = route.pid, route.order
            if order is None:
                order = route.order = ContactOrder(
                    route.replicas, route.distances
                )
        if order.all_replicas is None:
            all_replicas = tuple(self._catalog.replica_servers(pid))
            believed = order.believed
            if len(believed) < len(all_replicas):
                responds = self._membership.responds
                order.suspects = sum(
                    1 for sid in all_replicas
                    if sid not in believed and responds(sid)
                )
            order.all_replicas = all_replicas
        self.stats.suspects_skipped += order.suspects
        return pid, order

    def _contact(self, coordinator: Optional[int],
                 sid: int) -> ReplicaOutcome:
        """Physically try one believed-live replica."""
        if not self._membership.responds(sid):
            return ReplicaOutcome.TIMEOUT
        if (
            coordinator is not None
            and coordinator != sid
            and self._reachable is not None
            and not self._reachable(coordinator, sid)
        ):
            return ReplicaOutcome.UNREACHABLE
        return ReplicaOutcome.OK

    def _copy(self, sid: int, pid: PartitionId) -> Dict[bytes, Versioned]:
        return self._copies.setdefault((sid, pid), {})

    # -- operations -----------------------------------------------------------

    def put(self, app_id: int, ring_id: int, key: Key, value: bytes, *,
            level: Level = Level.QUORUM,
            client: Optional[Location] = None,
            route: Optional[Route] = None) -> QuorumWriteResult:
        """Write ``value``; succeeds when ``level`` many replicas ack.

        Replicas that miss the write (believed dead, timed out, or
        unreachable) stay stale until hinted handoff, read repair or
        anti-entropy reaches them — the divergence window the
        consistency-cost model charges for.  With a
        :class:`~repro.store.hints.HintStore` attached, a parked hint
        counts toward the quorum (sloppy quorum).  ``route`` is the
        caller's own resolution of this key's partition and client —
        fresh, or remembered by the Router under its window contract
        (a route kept past a membership change carries stale plans).
        """
        if not isinstance(value, bytes):
            raise TypeError(f"value must be bytes, got {type(value).__name__}")
        return self._write(app_id, ring_id, key, value, level, client, route)

    def delete(self, app_id: int, ring_id: int, key: Key, *,
               level: Level = Level.QUORUM,
               client: Optional[Location] = None) -> QuorumWriteResult:
        """Tombstone ``key`` under the same quorum rules as a write."""
        return self._write(app_id, ring_id, key, None, level, client)

    def _write(self, app_id: int, ring_id: int, key: Key,
               value: Optional[bytes], level: Level,
               client: Optional[Location],
               route: Optional[Route] = None) -> QuorumWriteResult:
        pid, order = self._resolve(app_id, ring_id, key, client, route)
        kb = key_bytes(key)
        believed, all_replicas = order.believed, order.all_replicas
        need = level.required(len(all_replicas))
        stats = self.stats
        if self._hints is None and len(believed) < need:
            # Strict quorum: refuse before consuming a version, so a
            # rejected write leaves no trace.  (With hints attached,
            # diverted writes may still assemble a sloppy quorum.)
            stats.write_failures += 1
            raise QuorumError(
                f"write quorum {need}/{len(all_replicas)} unreachable "
                f"for {pid}: only {len(believed)} believed-live replicas"
            )
        vkey = (pid, kb)
        version = self._next_version.get(vkey, 0) + 1
        self._next_version[vkey] = version
        stamped = Versioned(value=value, version=version)
        acked: List[int] = []
        attempts: List[Tuple[int, str]] = []
        coordinator: Optional[int] = None
        for sid in believed:
            outcome = self._contact(coordinator, sid)
            attempts.append((sid, outcome._value_))
            if outcome is ReplicaOutcome.OK:
                if coordinator is None:
                    coordinator = sid
                self._copy(sid, pid)[kb] = stamped
                acked.append(sid)
            elif outcome is ReplicaOutcome.TIMEOUT:
                stats.replica_timeouts += 1
                stats.bump_level(level, timeouts=1)
            else:
                stats.replica_unreachable += 1
        acked_set = set(acked)
        missed = tuple(sid for sid in all_replicas if sid not in acked_set)
        hinted: Tuple[int, ...] = ()
        if self._hints is not None and missed:
            hinted = self._park_hints(
                pid, kb, stamped, missed, client, coordinator
            )
        if len(acked) + len(hinted) < need:
            stats.write_failures += 1
            raise QuorumError(
                f"write quorum {need}/{len(all_replicas)} failed for "
                f"{pid}: {len(acked)} acks + {len(hinted)} hints"
            )
        stats.writes += 1
        stats.bump_level(level, ok=1)
        if hinted and len(acked) < need:
            stats.handoff_writes += 1
        return QuorumWriteResult(
            version=version, acked=tuple(acked), missed=missed,
            hinted=hinted, attempts=tuple(attempts),
        )

    def _park_hints(self, pid: PartitionId, kb: bytes, stamped: Versioned,
                    targets: Tuple[int, ...], client: Optional[Location],
                    coordinator: Optional[int]) -> Tuple[int, ...]:
        """Divert a missed write to hints on healthy non-replica holders."""
        assert self._hints is not None
        replicas = set(self._catalog.servers_of(pid))
        holders = [
            sid for sid in self._membership.believed_ids()
            if sid not in replicas
        ]
        if client is not None:
            holders.sort(
                key=lambda sid: diversity(
                    client, self._cloud.server(sid).location
                )
            )
        holder: Optional[int] = None
        for sid in holders:
            if self._contact(coordinator, sid) is ReplicaOutcome.OK:
                holder = sid
                break
        if holder is None:
            return ()
        hinted: List[int] = []
        for target in targets:
            self._hints.park(
                target=target, holder=holder, pid=pid, key=kb,
                value=stamped.value, version=stamped.version,
                epoch=self._epoch,
            )
            self.stats.hints_parked += 1
            hinted.append(target)
        return tuple(hinted)

    def get(self, app_id: int, ring_id: int, key: Key, *,
            level: Level = Level.QUORUM,
            client: Optional[Location] = None,
            route: Optional[Route] = None) -> QuorumReadResult:
        """Read ``key`` from ``level`` many replicas; freshest wins.

        Contacted replicas holding older versions are updated in place
        (read repair, Dynamo-style).
        Believed-live replicas that fail to answer (ghosts) or cannot
        be reached push the coordinator further down the preference
        list; the quorum fails only when fewer than ``level`` replicas
        actually respond.  ``route`` as for :meth:`put`.

        Who is contacted and who answers does not depend on the key:
        that half is compiled once per :class:`ContactOrder`
        (:meth:`_compile_read`) and replayed — same stat increments,
        same error — by every read a remembered route brings back.
        Without a route the plan is compiled and thrown away.
        """
        pid, order = self._resolve(app_id, ring_id, key, client, route)
        plan = order.plan
        if plan is None or plan[0] is not level:
            plan = order.plan = self._compile_read(
                pid, order.believed, len(order.all_replicas), level
            )
        __, error, contacted, attempts, timeouts, unreachable = plan
        stats = self.stats
        if timeouts:
            stats.replica_timeouts += timeouts
            stats.bump_level(level, timeouts=timeouts)
        stats.replica_unreachable += unreachable
        if error is not None:
            stats.read_failures += 1
            raise QuorumError(error)
        kb = key_bytes(key)
        copies = self._copies
        freshest: Optional[Versioned] = None
        held: List[Optional[Versioned]] = []
        for sid in contacted:
            bucket = copies.get((sid, pid))
            copy = bucket.get(kb) if bucket else None
            held.append(copy)
            if copy is not None and (
                freshest is None or copy.version > freshest.version
            ):
                freshest = copy
        stats.reads += 1
        if freshest is None:
            stats.bump_level(level, ok=1)
            return QuorumReadResult(
                value=None, version=0,
                contacted=contacted, stale_replicas=(),
                attempts=attempts,
            )
        stale = tuple([
            sid for sid, copy in zip(contacted, held)
            if copy is None or copy.version < freshest.version
        ])
        stats.stale_observed += len(stale)
        stats.bump_level(level, ok=1, stale=len(stale))
        if stale:
            for sid in stale:
                self._copy(sid, pid)[kb] = freshest
            stats.read_repairs += len(stale)
        value = None if freshest.is_tombstone else freshest.value
        return QuorumReadResult(
            value=value,
            version=freshest.version,
            contacted=contacted,
            stale_replicas=stale,
            attempts=attempts,
        )

    def _compile_read(self, pid: PartitionId, believed: Tuple[int, ...],
                      n: int, level: Level):
        """The key-independent half of a read along one contact order:
        ``(level, error text or None, contacted, attempts, timeouts,
        unreachable)``.  A pure function of membership, catalog and link
        state, so :meth:`get` replays it for every key until the
        :class:`ContactOrder` it hangs off is dropped.
        """
        self.read_plan_compiles += 1
        need = level.required(n)
        if len(believed) < need:
            return (level, (
                f"read quorum {need}/{n} unreachable "
                f"for {pid}: only {len(believed)} believed-live replicas"
            ), (), (), 0, 0)
        contacted: List[int] = []
        attempts: List[Tuple[int, str]] = []
        timeouts = unreachable = 0
        coordinator: Optional[int] = None
        for sid in believed:
            if len(contacted) >= need:
                break
            outcome = self._contact(coordinator, sid)
            attempts.append((sid, outcome._value_))
            if outcome is ReplicaOutcome.OK:
                if coordinator is None:
                    coordinator = sid
                contacted.append(sid)
            elif outcome is ReplicaOutcome.TIMEOUT:
                timeouts += 1
            else:
                unreachable += 1
        error = None
        if len(contacted) < need:
            error = (
                f"read quorum {need}/{n} assembled only "
                f"{len(contacted)} responses for {pid}"
            )
        return (level, error, tuple(contacted), tuple(attempts),
                timeouts, unreachable)

    # -- repair ladder ---------------------------------------------------------

    def drain_hints(self, epoch: int) -> Tuple[int, int]:
        """Deliver due hints to rehabilitated targets.

        Returns ``(delivered, expired)``.  A hint delivers only when
        its holder still responds, its target is believed live *and*
        physically answers, and the holder→target path is open; a hint
        whose target is no longer a replica of the partition is
        dropped as obsolete.
        """
        if self._hints is None:
            return (0, 0)
        membership = self._membership

        def ready(hint) -> bool:
            if not membership.responds(hint.holder):
                return False
            if not (membership.believed(hint.target)
                    and membership.responds(hint.target)):
                return False
            return (
                self._reachable is None
                or self._reachable(hint.holder, hint.target)
            )

        def deliver(hint) -> bool:
            if not self._catalog.has_replica(hint.pid, hint.target):
                return False
            copy = self._copy(hint.target, hint.pid)
            held = copy.get(hint.key)
            if held is None or held.version < hint.version:
                copy[hint.key] = Versioned(
                    value=hint.value, version=hint.version
                )
            return True

        delivered, expired = self._hints.drain(
            epoch, ready=ready, deliver=deliver
        )
        self.stats.hints_drained += delivered
        self.stats.hints_expired += expired
        return delivered, expired

    def anti_entropy(self, *, max_partitions: int,
                     max_bytes: int) -> Tuple[int, int, int]:
        """One budget-capped digest-exchange pass over the catalog.

        Walks partitions round-robin from a persistent cursor; for
        each, the believed-live *responding* replicas exchange per-key
        version digests and every copy is patched up to the freshest
        version observed.  Stops after ``max_partitions`` partitions
        or once ``max_bytes`` of patch traffic has been sent (the
        partition in flight is finished, so the byte budget may
        overshoot by one partition).  Returns
        ``(partitions_scanned, keys_patched, bytes_sent)``.
        """
        pids = self._catalog.partitions()
        n = len(pids)
        if n == 0:
            return (0, 0, 0)
        membership = self._membership
        limit = min(n, max_partitions)
        scanned = patched = sent = 0
        start = self._ae_cursor % n
        for i in range(n):
            if scanned >= limit:
                break
            if sent >= max_bytes:
                break
            pid = pids[(start + i) % n]
            scanned += 1
            online = [
                sid for sid in self._catalog.servers_of(pid)
                if membership.believed(sid) and membership.responds(sid)
            ]
            if len(online) < 2:
                continue
            freshest: Dict[bytes, Versioned] = {}
            for sid in online:
                for kb, copy in self._copy(sid, pid).items():
                    best = freshest.get(kb)
                    if best is None or copy.version > best.version:
                        freshest[kb] = copy
            if not freshest:
                continue
            for sid in online:
                copy_map = self._copy(sid, pid)
                for kb, best in freshest.items():
                    held = copy_map.get(kb)
                    if held is None or held.version < best.version:
                        copy_map[kb] = best
                        patched += 1
                        payload = len(best.value) if best.value else 0
                        sent += payload + DIGEST_OVERHEAD_BYTES
        self._ae_cursor = (start + scanned) % n
        self.stats.anti_entropy_partitions += scanned
        self.stats.anti_entropy_keys += patched
        self.stats.anti_entropy_bytes += sent
        return (scanned, patched, sent)

    # -- introspection -----------------------------------------------------------

    def divergence(self, app_id: int, ring_id: int, key: Key) -> int:
        """Version gap between the freshest and stalest replica copy."""
        pid = self._route(app_id, ring_id, key)
        kb = key_bytes(key)
        versions = [
            (self._copy(sid, pid).get(kb).version
             if self._copy(sid, pid).get(kb) else -1)
            for sid in self._catalog.servers_of(pid)
        ]
        if not versions:
            return 0
        return max(versions) - min(versions)

    def surviving_version(self, app_id: int, ring_id: int,
                          key: Key) -> int:
        """Freshest version any replica copy *or parked hint* holds.

        The consistency audit's ground truth: a committed write is
        lost only when no surviving copy — including hints still
        awaiting delivery — carries a version at least as new.
        """
        pid = self._route(app_id, ring_id, key)
        kb = key_bytes(key)
        best = 0
        for sid in self._catalog.servers_of(pid):
            copy = self._copy(sid, pid).get(kb)
            if copy is not None and copy.version > best:
                best = copy.version
        if self._hints is not None:
            for hint in self._hints._hints.values():
                if hint.pid == pid and hint.key == kb \
                        and hint.version > best:
                    best = hint.version
        return best

    # -- catalog mirroring (track_catalog=True) --------------------------------

    def _mirror_replica_added(self, pid: PartitionId, server_id: int,
                              servers: Tuple[int, ...]) -> None:
        donor = None
        for sid in servers:
            if sid == server_id:
                continue
            copy_map = self._copies.get((sid, pid))
            if copy_map:
                donor = copy_map
                break
        if donor:
            self._copies[(server_id, pid)] = dict(donor)

    def _mirror_replica_removed(self, pid: PartitionId, server_id: int,
                                servers: Tuple[int, ...]) -> None:
        moved = self._copies.pop((server_id, pid), None)
        if not moved or not servers:
            return
        # Decommission drain: a planned removal hands its newer
        # versions to a surviving replica before vanishing — the first
        # one that answers, since a ghost's copies die with it.
        responds = self._membership.responds
        heir = next((sid for sid in servers if responds(sid)), servers[0])
        dst = self._copy(heir, pid)
        for kb, copy in moved.items():
            held = dst.get(kb)
            if held is None or held.version < copy.version:
                dst[kb] = copy

    def _mirror_server_dropped(self, server_id: int,
                               lost) -> None:
        # A crash loses the machine's bytes — no drain.
        for pid in lost:
            self._copies.pop((server_id, pid), None)
        if self._hints is not None:
            self._hints.drop_target(server_id)

    def _mirror_partition_split(self, parent: PartitionId,
                                low: PartitionId,
                                high: PartitionId) -> None:
        low_range = self._rings.partition(low).key_range

        def child_of(kb: bytes) -> PartitionId:
            return low if low_range.contains_position(hash_key(kb)) else high

        for sid, pid in [k for k in self._copies if k[1] == parent]:
            bucket = self._copies.pop((sid, parent))
            split: Dict[PartitionId, Dict[bytes, Versioned]] = {}
            for kb, copy in bucket.items():
                split.setdefault(child_of(kb), {})[kb] = copy
            for child, copies in split.items():
                self._copies[(sid, child)] = copies
        for vk in [k for k in self._next_version if k[0] == parent]:
            version = self._next_version.pop(vk)
            self._next_version[(child_of(vk[1]), vk[1])] = version
        if self._hints is not None:
            self._hints.rekey_partition(parent, child_of)


class _CopyMirror(CatalogListener):
    """Keeps a :class:`QuorumKVStore`'s copies aligned with the catalog."""

    def __init__(self, store: QuorumKVStore) -> None:
        self._store = store

    def replica_added(self, pid, server_id, servers) -> None:
        self._store._mirror_replica_added(pid, server_id, tuple(servers))

    def replica_removed(self, pid, server_id, servers) -> None:
        self._store._mirror_replica_removed(pid, server_id, tuple(servers))

    def server_dropped(self, server_id, lost) -> None:
        self._store._mirror_server_dropped(server_id, lost)

    def partition_split(self, parent, low, high, servers) -> None:
        self._store._mirror_partition_split(parent, low, high)
