"""The per-epoch virtual-node decision process (paper §II-C).

At the end of every epoch each virtual node:

1. checks its partition's availability (eq. 2) against the ring's
   threshold and **replicates** to the eq. 3 best server when short;
2. otherwise, with a *negative* balance for the last ``f`` epochs,
   **suicides** when availability stays satisfied without it, else
   **migrates** to a cheaper server closer to its clients;
3. with a *positive* balance for the last ``f`` epochs, **replicates**
   if its popularity compensates the added consistency cost and the
   candidate's rent;
4. otherwise does nothing.

Utilities are floored at the epoch's lowest virtual rent so unpopular
nodes stop migrating once they sit on the cheapest viable server.
All bookkeeping flows through the transfer engine (bandwidth budgets),
the replica catalog (storage) and the agent registry (balances), so a
decision that cannot be executed this epoch is simply retried later.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.topology import Cloud
from repro.core.agent import AgentRegistry, VNodeAgent
from repro.core.availability import AvailabilityIndex, availability, pair_gain
from repro.core.board import PriceBoard
from repro.core.economy import RentModel
from repro.core.placement import PlacementScorer
from repro.net.membership import OracleMembership
from repro.ring.partition import (
    Partition,
    PartitionId,
    gather_float,
    gather_int,
)
from repro.ring.virtualring import RingSet
from repro.store.consistency import DEFAULT_CONSISTENCY, ConsistencyModel
from repro.store.replica import CatalogListener, ReplicaCatalog
from repro.store.transfer import TransferEngine, TransferKind
from repro.workload.mix import EpochLoad

#: Epoch-kernel implementations accepted by :class:`DecisionEngine` and
#: :class:`repro.sim.config.SimConfig`.  ``"vectorized"`` is the default
#: production kernel (batched eq. 5 settlement + incremental eq. 2
#: availability); ``"scalar"`` is the straight-line reference the
#: property tests and the perf harness compare against.
KERNELS = ("vectorized", "scalar")


class PolicyError(ValueError):
    """Raised for invalid policy parameters."""


class KernelError(ValueError):
    """Raised for unknown epoch-kernel names."""


@dataclass(frozen=True)
class EconomicPolicy:
    """Tunable knobs of the §II-C decision process.

    ``hysteresis`` is the paper's ``f``: how many consecutive epochs of
    one-signed balance trigger an action.  ``revenue_per_query``
    normalises query utility to monetary units (eq. 5's u).
    ``utility_floor_to_min_rent`` implements the anti-thrashing rule;
    ``repair_iterations`` bounds how many replicas an SLA repair may add
    in a single epoch; ``max_replicas`` is an optional hard cap on the
    economically chosen replication degree (SLA repairs ignore it).
    """

    hysteresis: int = 3
    revenue_per_query: float = 0.01
    utility_floor_to_min_rent: bool = True
    repair_iterations: int = 8
    rent_weight: float = 1.0
    migration_margin: float = 0.05
    storage_headroom: float = 0.1
    move_large_via_replication: bool = True
    max_replicas: Optional[int] = None
    consistency: ConsistencyModel = DEFAULT_CONSISTENCY

    def __post_init__(self) -> None:
        if self.hysteresis < 1:
            raise PolicyError(
                f"hysteresis must be >= 1, got {self.hysteresis}"
            )
        if self.revenue_per_query < 0:
            raise PolicyError(
                f"revenue_per_query must be >= 0, got {self.revenue_per_query}"
            )
        if self.repair_iterations < 1:
            raise PolicyError(
                f"repair_iterations must be >= 1, got {self.repair_iterations}"
            )
        if self.rent_weight < 0:
            raise PolicyError(
                f"rent_weight must be >= 0, got {self.rent_weight}"
            )
        if not 0.0 <= self.migration_margin < 1.0:
            raise PolicyError(
                f"migration_margin must be in [0, 1), got "
                f"{self.migration_margin}"
            )
        if not 0.0 <= self.storage_headroom < 1.0:
            raise PolicyError(
                f"storage_headroom must be in [0, 1), got "
                f"{self.storage_headroom}"
            )
        if self.max_replicas is not None and self.max_replicas < 1:
            raise PolicyError(
                f"max_replicas must be >= 1, got {self.max_replicas}"
            )


@dataclass
class DecisionStats:
    """What the decision pass did in one epoch."""

    repairs: int = 0
    economic_replications: int = 0
    migrations: int = 0
    suicides: int = 0
    deferred: int = 0
    unsatisfied_partitions: int = 0
    lost_partitions: int = 0

    @property
    def total_actions(self) -> int:
        return (
            self.repairs
            + self.economic_replications
            + self.migrations
            + self.suicides
        )


@dataclass
class _FlatState:
    """Slot-ordered live replica/agent incidence (vectorized kernel).

    ``pids[p]`` owns replicas ``offsets[p]:offsets[p+1]`` of the
    parallel per-replica arrays, in catalog placement order, restricted
    to live servers.  ``rep_rows`` are the owning agents' ledger rows
    (−1 where the registry rows could not be aligned with the catalog's
    member order; ``aligned[p]`` aggregates that per partition).
    ``pid_slots[p]`` is segment ``p``'s dense
    :class:`~repro.ring.partition.PartitionIndex` slot and
    ``seg_by_slot`` the inverse scatter (−1 for unrepresented slots), so
    per-partition vectors (query counts, availability) gather straight
    into segment order.  Valid while the (catalog, registry, cloud,
    membership-view) version key holds — i.e. until any membership
    mutation or belief flip — so steady-state epochs reuse it whole.
    """

    key: Tuple[int, ...]
    pids: List[PartitionId]
    pid_slots: np.ndarray
    seg_by_slot: np.ndarray
    offsets: np.ndarray
    counts: np.ndarray
    rep_slots: np.ndarray
    rep_sids: np.ndarray
    rep_rows: np.ndarray
    aligned: np.ndarray
    all_aligned: bool
    n_slots: int


class _IncidenceJournal(CatalogListener):
    """Catalog-delta journal feeding the incremental incidence splice.

    Accumulates, between two alignment snapshots, which partitions'
    replica segments changed — and whether anything *structural*
    happened that invalidates the cached segment layout wholesale: a
    partition appearing or vanishing (the catalog's pid order shifts),
    a server drop, a split, or simply more touched partitions than the
    cap (at which point a full rebuild is cheaper anyway).  ``events``
    counts callbacks seen, so the consumer can prove the journal covers
    every catalog version bump since its anchor.
    """

    __slots__ = ("touched", "structural", "events", "_cap")

    def __init__(self, cap: int = 512) -> None:
        self.touched: set = set()
        self.structural = False
        self.events = 0
        self._cap = cap

    def _touch(self, pid: PartitionId) -> None:
        touched = self.touched
        if len(touched) < self._cap:
            touched.add(pid)
        else:
            self.structural = True

    def replica_added(self, pid, server_id, servers) -> None:
        self.events += 1
        if len(servers) == 1:
            # First replica: a new pid key changes the view's segment
            # order — the cached layout no longer applies.
            self.structural = True
        else:
            self._touch(pid)

    def replica_removed(self, pid, server_id, servers) -> None:
        self.events += 1
        if not servers:
            self.structural = True
        else:
            self._touch(pid)

    def server_dropped(self, server_id, lost) -> None:
        self.events += 1
        self.structural = True

    def partition_split(self, parent, low, high, servers) -> None:
        self.events += 1
        self.structural = True

    def rebase(self) -> None:
        """Forget everything — a fresh alignment snapshot was taken."""
        self.touched.clear()
        self.structural = False
        self.events = 0


@dataclass
class _AlignCache:
    """One catalog↔ledger alignment snapshot (shared-index path).

    ``key`` is ``(catalog.version, registry.version, registry
    compactions)`` — deliberately *excluding* the cloud and membership
    versions: the row alignment depends only on catalog member order
    and ledger rows, so pure churn epochs (server arrivals, belief
    flips) reuse the arrays wholesale.  ``slot_to_seg`` scatters a
    partition-index slot to its segment position in the snapshot's
    ``view.pids`` order; ``reg_pos`` anchors the registry's mutation
    journal.
    """

    key: Tuple[int, int, int]
    rows_all: np.ndarray
    aligned_all: np.ndarray
    cat_slots: np.ndarray
    offsets_all: np.ndarray
    slot_to_seg: np.ndarray
    reg_pos: int


class DecisionEngine:
    """Runs settlement (eq. 5) and decisions (§II-C) for the whole cloud."""

    def __init__(self, cloud: Cloud, rings: RingSet,
                 catalog: ReplicaCatalog, registry: AgentRegistry,
                 transfers: TransferEngine,
                 policy: EconomicPolicy,
                 rent_model: Optional[RentModel] = None,
                 kernel: str = "vectorized",
                 avail_index: Optional[AvailabilityIndex] = None,
                 membership=None) -> None:
        if kernel not in KERNELS:
            raise KernelError(
                f"kernel must be one of {KERNELS}, got {kernel!r}"
            )
        self._rent_model = rent_model if rent_model is not None else RentModel()
        self._cloud = cloud
        # The MembershipView seam: every liveness read below goes
        # through ``self._membership`` — the oracle default delegates
        # straight to the cloud (pre-existing behavior, byte-for-byte),
        # a gossip-backed service substitutes *believed* columns.
        self._membership = (
            membership if membership is not None
            else OracleMembership(cloud)
        )
        self._rings = rings
        self._catalog = catalog
        self._registry = registry
        self._transfers = transfers
        self._policy = policy
        self._kernel = kernel
        # Eq. 2 memo keyed by the sorted live replica set (scalar kernel
        # only).  Valid for the lifetime of the engine: server ids are
        # never reused and pairwise diversity/confidence are immutable,
        # so a replica set's availability can never change value.
        self._avail_memo: Dict[Tuple[int, ...], float] = {}
        self._live_ids: frozenset = frozenset()
        self._index: Optional[AvailabilityIndex] = None
        if kernel == "vectorized":
            self._index = (
                avail_index if avail_index is not None
                else AvailabilityIndex(cloud, catalog)
            )
        # Incremental incidence maintenance (vectorized kernel): the
        # alignment snapshot plus the catalog-delta journal that lets
        # mutation epochs splice touched segments instead of re-sorting
        # the whole ledger.  Counters and the cross-check flag are the
        # test surface for the splice-vs-rebuild equivalence contract.
        self._align_cache: Optional[_AlignCache] = None
        self._cat_journal = _IncidenceJournal()
        if kernel == "vectorized":
            catalog.add_listener(self._cat_journal)
        self.align_splices = 0
        self.align_rebuilds = 0
        self.align_reuses = 0
        #: When True, every splice is immediately verified against a
        #: full rebuild (tests; far too slow for production epochs).
        self.align_check = False
        # Vectorized-kernel caches: the flat replica/agent incidence
        # structure (valid while catalog, registry and cloud versions
        # hold), the rings' work list, and the confidence vector.
        self._flat_cache: Optional[_FlatState] = None
        self._work_cache: Optional[
            Tuple[object, List[Tuple[Partition, float]],
                  Dict[PartitionId, float]]
        ] = None
        self._work_slots_cache: Optional[np.ndarray] = None
        self._thr_by_slot_cache: Optional[np.ndarray] = None
        self._conf_cache: Optional[Tuple[int, np.ndarray]] = None
        # Repair-wavefront exhaustion proofs, keyed by partition size:
        # the surviving destinations (mask-feasible slots whose batched
        # replication budget still fits the bytes), computed as one
        # grouped vector pass and revalidated by (batch reservation
        # count, scorer enable clock) — the only events that can move
        # them.  Reset at every decision pass.
        self._exhausted_repair: Dict[int, Tuple] = {}
        #: Run totals of the per-epoch scorers' floor counters: skip
        #: queries the §II-C pass put to :meth:`PlacementScorer.
        #: rent_floor` (migration hunts + expansions) and how many the
        #: floor proved fruitless; the difference went on to an eq. 3
        #: scan.
        self.floor_asks = 0
        self.floor_proofs = 0
        #: Run totals of the scorers' ceiling counters, and migration
        #: hunts put to / refused by :meth:`_refused_at_source`.
        self.ceil_asks = self.ceil_proofs = self.ceil_builds = 0
        self.source_first_asks = self.source_first_proofs = 0
        #: Per-slot query totals of the last batched settlement and the
        #: cloud version they were computed under — the eq. 1 query-load
        #: handoff consumed by :class:`repro.core.economy.CloudCostIndex`.
        self.query_totals: Optional[np.ndarray] = None
        self.query_totals_version: int = -1

    @property
    def kernel(self) -> str:
        return self._kernel

    @property
    def avail_index(self) -> Optional[AvailabilityIndex]:
        """The incremental eq. 2 cache (None under the scalar kernel)."""
        return self._index

    # -- settlement (eq. 5) --------------------------------------------------

    def settle(self, load: EpochLoad, board: PriceBoard,
               g_of_app: Optional[Dict[int, np.ndarray]] = None) -> None:
        """Charge queries to servers and record every agent's balance.

        Under the uniform geography of §III-A a partition's epoch
        queries are split equally among its live replicas.  With a
        discrete client geography, replicas attract queries in
        proportion to their eq. 4 proximity weight g — clients route
        to nearby copies — so close replicas both serve more traffic
        and earn more per query.  Each agent's utility is floored at
        the epoch's minimum rent (§II-C anti-thrashing) and its
        server's posted price is charged as rent.
        """
        if self._kernel == "vectorized":
            self._settle_batched(load, board, g_of_app)
        else:
            self._settle_scalar(load, board, g_of_app)

    def _settle_scalar(self, load: EpochLoad, board: PriceBoard,
                       g_of_app: Optional[Dict[int, np.ndarray]] = None
                       ) -> None:
        """Reference eq. 5 settlement: one Python pass per replica."""
        floor = (
            board.scan_min_price()
            if self._policy.utility_floor_to_min_rent else 0.0
        )
        for pid in self._catalog.partitions():
            servers = self._live_replicas(pid)
            if not servers:
                continue
            queries = load.queries_for(pid)
            g_vec = None
            if g_of_app is not None:
                g_vec = g_of_app.get(pid.app_id)
            if g_vec is None:
                shares = [queries / len(servers)] * len(servers)
                gs = [1.0] * len(servers)
            else:
                gs = [
                    float(g_vec[self._cloud.slot(sid)]) for sid in servers
                ]
                g_total = sum(gs)
                if g_total <= 0:
                    shares = [queries / len(servers)] * len(servers)
                else:
                    shares = [queries * g / g_total for g in gs]
            for sid, share, g in zip(servers, shares, gs):
                server = self._cloud.server(sid)
                if share:
                    server.record_queries(share)
                utility = self._policy.revenue_per_query * share * g
                utility = max(utility, floor)
                rent = board.price(sid)
                agent = self._registry.get(pid, sid)
                agent.record(utility, rent)

    def _flat_state(self) -> _FlatState:
        """The epoch kernel's live replica/agent incidence, cached.

        Rebuilt only when the catalog, registry, cloud or membership
        view's version moved (any membership mutation or belief flip);
        mutation-free epochs — the steady state — reuse the whole
        structure.
        """
        key = (
            self._catalog.version,
            self._registry.version,
            self._cloud.version,
            self._membership.version,
        )
        cached = self._flat_cache
        if cached is not None and cached.key == key:
            return cached
        cloud = self._cloud
        view = self._catalog.flat_view()
        ids = cloud.server_ids
        n_slots = len(ids)
        n_all = len(view.server_ids)
        if not n_slots or not n_all:
            flat = _FlatState(
                key=key, pids=[],
                pid_slots=np.zeros(0, dtype=np.intp),
                seg_by_slot=np.zeros(0, dtype=np.intp),
                offsets=np.zeros(1, dtype=np.intp),
                counts=np.zeros(0, dtype=np.intp),
                rep_slots=np.zeros(0, dtype=np.intp),
                rep_sids=np.zeros(0, dtype=np.int64),
                rep_rows=np.zeros(0, dtype=np.intp),
                aligned=np.zeros(0, dtype=bool),
                all_aligned=True, n_slots=n_slots,
            )
            self._flat_cache = flat
            return flat
        max_id = max(ids)
        id_to_slot = np.full(max_id + 2, -1, dtype=np.int64)
        id_to_slot[np.asarray(ids, dtype=np.int64)] = np.arange(n_slots)
        alive = self._membership.believed_vector()
        sids_all = np.asarray(view.server_ids, dtype=np.int64)
        slots_all = id_to_slot[np.minimum(sids_all, max_id + 1)]
        known = slots_all >= 0
        live_rep = known & alive[np.where(known, slots_all, 0)]
        offsets_all = np.asarray(view.offsets, dtype=np.intp)
        counts_all = np.diff(offsets_all)
        kept = np.add.reduceat(live_rep.astype(np.intp), offsets_all[:-1])
        # Registry ledger rows aligned with the catalog's member order.
        # Rows carry their partition's dense index slot and a
        # spawn/rehome sequence, so the alignment is reconstructed in
        # row space — one lexsort plus block gathers, no Python
        # iteration per partition.  Any segment whose row block cannot
        # be matched 1:1 (and, below, any row whose server disagrees
        # with the catalog) is routed to the keyed fallback.
        rows_all, aligned_all, cat_slots = self._aligned_rows(
            view, offsets_all, counts_all, n_all
        )
        sid_of_row = self._registry.ledger.server_id_vector()
        valid = rows_all >= 0
        row_sid = np.where(
            valid, sid_of_row[np.where(valid, rows_all, 0)], -1
        )
        rep_ok = valid & (row_sid == sids_all)
        part_ok = aligned_all & np.logical_and.reduceat(
            rep_ok | ~live_rep, offsets_all[:-1]
        )
        live_part = kept > 0
        pids = [
            pid
            for pid, keep in zip(view.pids, live_part.tolist())
            if keep
        ]
        counts = kept[live_part]
        offsets = np.zeros(len(pids) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        aligned = part_ok[live_part]
        rows = np.where(rep_ok, rows_all, -1)
        if self._index is not None:
            pindex = self._index.partition_index
            pid_slots = (
                cat_slots[live_part].astype(np.intp)
                if cat_slots is not None
                else pindex.slots_of(pids)
            )
            seg_by_slot = np.full(len(pindex), -1, dtype=np.intp)
            seg_by_slot[pid_slots] = np.arange(len(pids), dtype=np.intp)
        else:
            pid_slots = np.zeros(0, dtype=np.intp)
            seg_by_slot = np.zeros(0, dtype=np.intp)
        flat = _FlatState(
            key=key,
            pids=pids,
            pid_slots=pid_slots,
            seg_by_slot=seg_by_slot,
            offsets=offsets,
            counts=counts,
            rep_slots=slots_all[live_rep],
            rep_sids=sids_all[live_rep],
            rep_rows=rows[live_rep],
            aligned=aligned,
            all_aligned=bool(aligned.all()),
            n_slots=n_slots,
        )
        self._flat_cache = flat
        return flat

    def _aligned_rows(self, view, offsets_all: np.ndarray,
                      counts_all: np.ndarray, n_all: int
                      ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Ledger rows in catalog replica order, plus per-segment flags
        (and, on the vectorized path, every catalog pid's index slot).

        Vectorized path, incrementally maintained: the alignment is
        cached against (catalog version, registry version, ledger
        compactions) — notably *not* the cloud/membership versions, so
        pure churn epochs reuse it untouched.  When the versions moved
        but the catalog/registry journals prove the delta was a small
        set of touched partitions, only those segments are rebuilt
        (from the registry's maintained row mirror) and the untouched
        regions are spliced across as contiguous block copies.  The
        full (slot, spawn-sequence) lexsort — whose per-partition block
        order mirrors the catalog's placement order because spawn
        appends and rehome re-sequences to the end, the same mutations
        in the same order the catalog's member lists saw — survives in
        :meth:`_rebuild_alignment` as the structural/fallback path, and
        is what splices are cross-checked against in the tests.  A
        segment whose row block cannot be matched 1:1 with the catalog
        is flagged misaligned (−1 rows) on every path alike.  The slow
        keyed path — one Python lookup per partition — serves
        registries without a shared partition index.
        """
        registry = self._registry
        pindex = (
            self._index.partition_index if self._index is not None else None
        )
        if pindex is not None and registry.partition_index is pindex:
            cache = self._align_cache
            key = (
                self._catalog.version, registry.version,
                registry.compactions,
            )
            if cache is not None and cache.key == key:
                # Pure cloud/membership movement: the alignment depends
                # on neither, so churn epochs reuse the arrays whole.
                self.align_reuses += 1
                return cache.rows_all, cache.aligned_all, cache.cat_slots
            spliced = None
            if cache is not None:
                touched = self._splice_touched(cache)
                if touched is not None:
                    spliced = self._splice_alignment(
                        cache, touched, view, offsets_all, counts_all,
                        n_all, key,
                    )
            if spliced is not None:
                self.align_splices += 1
                if self.align_check:
                    self._verify_alignment(
                        spliced, view, offsets_all, counts_all, n_all, key
                    )
                cache = spliced
            else:
                cache = self._rebuild_alignment(
                    view, offsets_all, counts_all, n_all, key
                )
                self.align_rebuilds += 1
            self._align_cache = cache
            self._cat_journal.rebase()
            return cache.rows_all, cache.aligned_all, cache.cat_slots
        rows_all = np.empty(n_all, dtype=np.intp)
        aligned_all = np.ones(len(counts_all), dtype=bool)
        rows_of = registry.rows_of
        counts_list = counts_all.tolist()
        pos = 0
        for i, pid in enumerate(view.pids):
            n = counts_list[i]
            rows = rows_of(pid)
            if rows is not None and len(rows) == n:
                rows_all[pos:pos + n] = rows
            else:
                rows_all[pos:pos + n] = -1
                aligned_all[i] = False
            pos += n
        return rows_all, aligned_all, None

    def _splice_touched(self, cache: _AlignCache) -> Optional[set]:
        """The touched-partition set, when the journals prove the delta.

        None routes to the full rebuild: something structural happened
        (pid order shifted, server drop, split, compaction, journal
        overflow) or a version bump is unaccounted for — the splice
        must never run on an incomplete delta.
        """
        journal = self._cat_journal
        if journal.structural:
            return None
        registry = self._registry
        cat_version, reg_version, compactions = cache.key
        if registry.compactions != compactions:
            return None
        if self._catalog.version - cat_version != journal.events:
            return None
        reg_touched = registry.mutations_since(cache.reg_pos)
        if reg_touched is None:
            return None
        if len(reg_touched) != registry.version - reg_version:
            return None
        touched = set(journal.touched)
        touched.update(reg_touched)
        return touched

    def _splice_alignment(self, cache: _AlignCache, touched: set,
                          view, offsets_all: np.ndarray,
                          counts_all: np.ndarray, n_all: int,
                          key: Tuple[int, int, int]
                          ) -> Optional[_AlignCache]:
        """Rebuild only the touched segments; block-copy the rest.

        The non-structural guarantee means the view's pid order — and
        therefore the segment layout — is unchanged, so every untouched
        region is one contiguous slice in both the old and new
        per-replica arrays.  Touched segments re-read the registry's
        row mirror, with exactly the slow path's length check deciding
        the per-segment aligned flag.  Any inconsistency (unknown pid,
        shifted gap length) returns None — rebuild instead.
        """
        registry = self._registry
        pindex = self._index.partition_index
        slot_to_seg = cache.slot_to_seg
        n_segs = len(counts_all)
        if n_segs != len(cache.offsets_all) - 1:
            return None
        segs = set()
        for pid in touched:
            slot = pindex.get(pid)
            if slot is None or not 0 <= slot < len(slot_to_seg):
                return None
            seg = int(slot_to_seg[slot])
            if seg < 0:
                return None
            segs.add(seg)
        rows_all = np.empty(n_all, dtype=np.intp)
        aligned_all = cache.aligned_all.copy()
        old_rows = cache.rows_all
        old_off = cache.offsets_all
        rows_of = registry.rows_of
        pids = view.pids
        prev = 0
        for seg in sorted(segs) + [n_segs]:
            if seg > prev:
                o0, o1 = old_off[prev], old_off[seg]
                b0, b1 = offsets_all[prev], offsets_all[seg]
                if o1 - o0 != b1 - b0:
                    return None
                rows_all[b0:b1] = old_rows[o0:o1]
            if seg == n_segs:
                break
            lo, hi = offsets_all[seg], offsets_all[seg + 1]
            rows = rows_of(pids[seg])
            if rows is not None and len(rows) == hi - lo:
                rows_all[lo:hi] = rows
                aligned_all[seg] = True
            else:
                rows_all[lo:hi] = -1
                aligned_all[seg] = False
            prev = seg + 1
        return _AlignCache(
            key=key,
            rows_all=rows_all,
            aligned_all=aligned_all,
            cat_slots=cache.cat_slots,
            offsets_all=offsets_all.copy(),
            slot_to_seg=slot_to_seg,
            reg_pos=registry.mutation_position,
        )

    def _rebuild_alignment(self, view, offsets_all: np.ndarray,
                           counts_all: np.ndarray, n_all: int,
                           key: Tuple[int, int, int]) -> _AlignCache:
        """Full alignment from scratch — the sanctioned lexsort site.

        Live rows sorted by (partition slot, spawn sequence) form
        contiguous per-partition blocks; each catalog segment gathers
        its block by slot.  This is the splice's ground truth and the
        structural-event fallback; the lint gate pins the decision
        pass's only ``np.lexsort`` here.
        """
        registry = self._registry
        pindex = self._index.partition_index
        ledger = registry.ledger
        slot_rows = ledger.pid_slot_vector()
        live = np.flatnonzero(slot_rows >= 0)
        aligned_all = np.ones(len(counts_all), dtype=bool)
        rows_all = np.full(n_all, -1, dtype=np.intp)
        cat_slots = pindex.slots_of(view.pids)
        if len(live):
            order = live[np.lexsort(
                (ledger.seq_vector()[live], slot_rows[live])
            )]
            blocks = slot_rows[order]
            starts = np.flatnonzero(
                np.r_[True, blocks[1:] != blocks[:-1]]
            )
            lens = np.diff(np.r_[starts, len(blocks)])
            uniq = blocks[starts]
            pos = np.searchsorted(uniq, cat_slots)
            pos_c = np.minimum(pos, len(uniq) - 1)
            has = uniq[pos_c] == cat_slots
            seg_ok = has & (lens[pos_c] == counts_all)
            aligned_all &= seg_ok
            if seg_ok.any():
                base = np.where(seg_ok, starts[pos_c], 0)
                within = (
                    np.arange(n_all, dtype=np.intp)
                    - np.repeat(offsets_all[:-1], counts_all)
                )
                take = np.repeat(base, counts_all) + within
                ok_rep = np.repeat(seg_ok, counts_all)
                rows_all[ok_rep] = order[take[ok_rep]]
        slot_to_seg = np.full(len(pindex), -1, dtype=np.intp)
        if len(cat_slots):
            slot_to_seg[cat_slots] = np.arange(
                len(counts_all), dtype=np.intp
            )
        return _AlignCache(
            key=key,
            rows_all=rows_all,
            aligned_all=aligned_all,
            cat_slots=cat_slots,
            offsets_all=offsets_all.copy(),
            slot_to_seg=slot_to_seg,
            reg_pos=registry.mutation_position,
        )

    def _verify_alignment(self, spliced: _AlignCache, view,
                          offsets_all: np.ndarray, counts_all: np.ndarray,
                          n_all: int, key: Tuple[int, int, int]) -> None:
        """Cross-check a splice against the ground-truth rebuild."""
        truth = self._rebuild_alignment(
            view, offsets_all, counts_all, n_all, key
        )
        if not (
            np.array_equal(spliced.rows_all, truth.rows_all)
            and np.array_equal(spliced.aligned_all, truth.aligned_all)
            and np.array_equal(spliced.cat_slots, truth.cat_slots)
        ):
            raise KernelError(
                "incremental incidence splice diverged from the full "
                f"rebuild at key {key}"
            )

    def _settle_batched(self, load: EpochLoad, board: PriceBoard,
                        g_of_app: Optional[Dict[int, np.ndarray]] = None
                        ) -> None:
        """Slot-ordered numpy eq. 5 settlement over the flat incidence.

        Bit-identical to :meth:`_settle_scalar`: every elementwise
        operation maps one-to-one onto the scalar arithmetic, and the
        two order-sensitive accumulations — the per-partition proximity
        normaliser ``Σ g`` and the per-server query counters — keep the
        scalar visit order (``np.bincount`` accumulates its weights
        sequentially in data order, i.e. the same left fold; per-server
        counters start each epoch at exactly 0.0, so adding the folded
        total once is the same float computation).  Agent balances land
        through one vectorized ledger column write
        (:meth:`AgentRegistry.record_batch`) instead of a per-replica
        Python pass.
        """
        cloud = self._cloud
        registry = self._registry
        policy = self._policy
        floor = board.min_price() if policy.utility_floor_to_min_rent else 0.0
        flat = self._flat_state()
        self.query_totals = np.zeros(flat.n_slots, dtype=np.float64)
        self.query_totals_version = cloud.version
        n_parts = len(flat.pids)
        n_rep = len(flat.rep_slots)
        if not n_rep:
            return

        if (
            self._index is not None
            and load.index is self._index.partition_index
        ):
            # Dense path: the load's counts live in the same slot space
            # as the flat state — one gather replaces P dict lookups.
            q_part = load.counts_at(flat.pid_slots).astype(np.float64)
        else:
            queries_for = load.queries_for
            q_part = np.fromiter(
                (queries_for(pid) for pid in flat.pids), dtype=np.float64,
                count=n_parts,
            )
        counts = flat.counts
        q_rep = np.repeat(q_part, counts)
        count_rep = np.repeat(counts.astype(np.float64), counts)
        g_rep = np.ones(n_rep, dtype=np.float64)
        uniform_rep = np.ones(n_rep, dtype=bool)
        if g_of_app is not None and any(
            vec is not None for vec in g_of_app.values()
        ):
            gtot_rep = np.empty(n_rep, dtype=np.float64)
            get_g = g_of_app.get
            offsets = flat.offsets.tolist()
            for p, pid in enumerate(flat.pids):
                g_vec = get_g(pid.app_id)
                if g_vec is None:
                    continue
                lo, hi = offsets[p], offsets[p + 1]
                gs = g_vec[flat.rep_slots[lo:hi]]
                # Strict left fold, matching the scalar ``sum(gs)``.
                total = 0.0
                for value in gs.tolist():
                    total += value
                # g enters the utility term even when the share
                # computation falls back to the uniform split
                # (degenerate Σg <= 0).
                g_rep[lo:hi] = gs
                if total > 0:
                    gtot_rep[lo:hi] = total
                    uniform_rep[lo:hi] = False
        shares = np.empty(n_rep, dtype=np.float64)
        shares[uniform_rep] = q_rep[uniform_rep] / count_rep[uniform_rep]
        prox = ~uniform_rep
        if prox.any():
            shares[prox] = q_rep[prox] * g_rep[prox] / gtot_rep[prox]
        utilities = np.maximum(
            policy.revenue_per_query * shares * g_rep, floor
        )
        rents = board.price_vector(cloud.server_ids)[flat.rep_slots]

        # Per-server query counters: one sequential (left-fold) bincount
        # in replica visit order, then one vectorized column add onto
        # the server table (counters start each epoch at exactly 0.0,
        # so the elementwise ``+=`` is the same float computation as
        # the per-server ``record_queries`` fold).
        totals = np.bincount(
            flat.rep_slots, weights=shares, minlength=flat.n_slots
        )
        touched = np.flatnonzero(totals)
        if touched.size:
            cloud.record_queries_at(touched, totals[touched])
        self.query_totals = totals

        # Agent ledger: one vectorized column write for the aligned
        # rows; keyed fallback for any misaligned partition.
        if flat.all_aligned:
            registry.record_batch(flat.rep_rows, utilities, rents)
        else:
            ok = np.repeat(flat.aligned, counts)
            registry.record_batch(
                flat.rep_rows[ok], utilities[ok], rents[ok]
            )
            get_agent = registry.get
            offsets = flat.offsets
            for p in np.flatnonzero(~flat.aligned).tolist():
                pid = flat.pids[p]
                for j in range(int(offsets[p]), int(offsets[p + 1])):
                    agent = get_agent(pid, int(flat.rep_sids[j]))
                    agent.record(float(utilities[j]), float(rents[j]))

    # -- decisions (§II-C) ------------------------------------------------------

    def decide(self, board: PriceBoard, load: EpochLoad,
               rng: np.random.Generator,
               g_of_app: Optional[Dict[int, np.ndarray]] = None
               ) -> DecisionStats:
        """One full decision pass over every partition of every ring."""
        stats = DecisionStats()
        scorer = self._make_scorer(board)
        # Liveness is fixed for the whole decision pass (failures land
        # between epochs, belief flips in the membership phase); one
        # set build serves every partition.  The believed column
        # replaces the per-server attribute walk (and in the
        # overwhelmingly common all-alive case, the compress too).
        ids = self._cloud.server_ids
        alive = self._membership.believed_vector()
        if alive.all():
            self._live_ids = frozenset(ids)
        else:
            self._live_ids = frozenset(
                itertools.compress(ids, alive.tolist())
            )
        work, thresholds = self._work_list()
        order = rng.permutation(len(work))
        if self._index is None:
            for idx in order:
                partition, threshold = work[idx]
                g_vec = None
                if g_of_app is not None:
                    g_vec = g_of_app.get(partition.pid.app_id)
                self._decide_partition(
                    partition, threshold, board, scorer, load, g_vec,
                    stats,
                )
            return stats
        # Vectorized kernel: pre-triage every partition with one array
        # pass.  A partition is *skipped* only when the per-agent §II-C
        # walk would provably do nothing — its SLA holds and every
        # streaked agent fails the same suicide/migration precheck the
        # inline loop applies — which depends solely on that partition's
        # own membership and the epoch-static price board, so actions on
        # earlier-visited partitions cannot invalidate the mask.  The
        # mask is applied to the permutation as one vector filter, so
        # the Python loop below only ever touches partitions that act
        # (or whose incidence could not be verified).
        flat, visit, repairing = self._build_triage(board)
        if visit.size:
            seg_of_work = gather_int(
                flat.seg_by_slot, self._work_slots(), fill=-1
            )
            visit_work = np.where(
                seg_of_work >= 0, visit[np.maximum(seg_of_work, 0)], True
            )
            order = order[visit_work[order]]
        # Grouped repair kernel, wave 0: every SLA-short partition's
        # first eq. 3 argmax will be asked for inside its repair chain
        # below; score them all now as grouped array ops and hand the
        # scorer certified top-k shortlists, so the chains read k slots
        # instead of each paying a full cloud scan.  Pure precompute —
        # decisions, order and stats are untouched (the shortlist path
        # is provably-exact or falls back).
        self._exhausted_repair = {}
        if repairing.size:
            self._preload_repair_shortlists(
                flat, repairing, scorer, g_of_app
            )
        # Every §II-C action of the pass queues into one shared transfer
        # batch: its pending-resource mirrors are the pass's shared
        # budget/storage vectors (each intent sees real state minus all
        # earlier intents — exactly what an immediate executor would
        # see), and the single commit applies the epoch's transfers as
        # one grouped application.
        batch = self._transfers.open_batch()
        for idx in order.tolist():
            partition, threshold = work[idx]
            g_vec = None
            if g_of_app is not None:
                g_vec = g_of_app.get(partition.pid.app_id)
            self._decide_partition(
                partition, threshold, board, scorer, load, g_vec, stats,
                batch,
            )
        batch.commit()
        self.floor_asks += scorer.floor_asks
        self.floor_proofs += scorer.floor_proofs
        self.ceil_asks += scorer.ceil_asks
        self.ceil_proofs += scorer.ceil_proofs
        self.ceil_builds += scorer.ceil_builds
        return stats

    def _work_list(self) -> Tuple[
        List[Tuple[Partition, float]], Dict[PartitionId, float]
    ]:
        """(partition, threshold) work items, cached per ring state.

        Ring versions only track partition-set changes, so the cache
        key also carries each ring's (immutable, replaceable) level —
        an elasticity event swapping a ring's SLA tier mid-run
        invalidates the cached thresholds instead of being ignored.
        """
        key = (
            self._rings.versions(),
            tuple(ring.level for ring in self._rings),
        )
        cached = self._work_cache
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]
        work: List[Tuple[Partition, float]] = []
        thresholds: Dict[PartitionId, float] = {}
        for ring in self._rings:
            threshold = ring.level.threshold
            for partition in ring:
                work.append((partition, threshold))
                thresholds[partition.pid] = threshold
        self._work_cache = (key, work, thresholds)
        # Dense companions (vectorized kernel only): each work item's
        # partition-index slot, and the thresholds scattered over the
        # slot space (np.inf where no ring claims the slot — the same
        # default the dict lookup applied).  Slots never change once
        # assigned, so both stay valid for the cache's lifetime.
        self._work_slots_cache = None
        self._thr_by_slot_cache = None
        return work, thresholds

    def _work_slots(self) -> np.ndarray:
        """Partition-index slots of the cached work list, in order."""
        cached = self._work_slots_cache
        if cached is None:
            work = self._work_cache[1]
            cached = self._index.partition_index.slots_of(
                [partition.pid for partition, __ in work]
            )
            self._work_slots_cache = cached
        return cached

    def _thresholds_by_slot(self) -> np.ndarray:
        """Ring thresholds scattered over the partition-index slots."""
        cached = self._thr_by_slot_cache
        if cached is None:
            thresholds = self._work_cache[2]
            slots = self._work_slots()
            pindex = self._index.partition_index
            cached = np.full(len(pindex), np.inf, dtype=np.float64)
            cached[slots] = np.fromiter(
                (thr for __, thr in self._work_cache[1]),
                dtype=np.float64, count=len(thresholds),
            )
            self._thr_by_slot_cache = cached
        return cached

    def _confidence_vector(self) -> np.ndarray:
        cached = self._conf_cache
        version = self._cloud.version
        if cached is not None and cached[0] == version:
            return cached[1]
        conf = self._cloud.confidence_vector()
        self._conf_cache = (version, conf)
        return conf

    def _batched_contributions(self, flat: _FlatState) -> np.ndarray:
        """Every live replica's eq. 2 pair-term total, in one pass.

        Mirrors :meth:`AvailabilityIndex.contribution` for all replicas
        at once, batched by replication degree so each group is a dense
        (partitions × R × R) diversity gather.  Under the evaluation's
        conf ≡ 1.0 model every value is an exact small integer in
        float64, hence bit-identical to the scalar accumulation; with
        fractional confidences it shares the incremental kernel's
        documented ulp-drift caveat.
        """
        contrib = np.zeros(len(flat.rep_slots), dtype=np.float64)
        if not len(flat.rep_slots):
            return contrib
        conf = self._confidence_vector()
        matrix = self._cloud.diversity_matrix()
        counts = flat.counts
        for degree in np.unique(counts).tolist():
            if degree < 2:
                continue
            seg = np.flatnonzero(counts == degree)
            starts = flat.offsets[seg]
            idx = starts[:, None] + np.arange(degree)[None, :]
            slots = flat.rep_slots[idx]
            conf_r = conf[slots]
            pair = (
                matrix[slots[:, :, None], slots[:, None, :]]
                * conf_r[:, None, :]
            )
            contrib[idx] = conf_r * pair.sum(axis=2)
        return contrib

    def _build_triage(self, board: PriceBoard
                      ) -> Tuple[_FlatState, np.ndarray, np.ndarray]:
        """Per-partition visit mask for the §II-C pass (one array pass).

        Reproduces, vectorized, exactly the checks the inline loop runs
        for the no-action case: full-window streak flags from the agent
        ledger, the suicide feasibility test ``avail − contribution ≥
        threshold`` and the migration floor ``price · (1 − margin) >
        min_price``.  Partitions whose replicas all land in "no action"
        (and whose SLA holds) are skipped without touching their agents.
        Availability and thresholds are gathered from the dense
        partition-index stores — no per-partition Python lookups.

        Also returns the *repair wavefront*: the flat-segment indices
        of every partition whose eq. 2 availability sits below its
        ring's threshold — exactly the partitions whose visit will open
        a §II-C repair chain — so the decision pass can precompute
        their grouped eq. 3 shortlists before the chain loop runs.
        """
        flat = self._flat_state()
        if not flat.pids:
            empty = np.zeros(0, dtype=np.intp)
            return flat, np.zeros(0, dtype=bool), empty
        index = self._index
        avail = index.availability_at(flat.pid_slots)
        thr = gather_float(
            self._thresholds_by_slot(), flat.pid_slots, fill=np.inf
        )
        window = self._registry.window
        neg_run, pos_run = self._registry.ledger.streak_run_vectors()
        rows = flat.rep_rows
        valid = rows >= 0
        safe = np.where(valid, rows, 0)
        neg_rep = valid & (neg_run[safe] >= window)
        pos_rep = valid & (pos_run[safe] >= window)
        offsets = flat.offsets[:-1]
        if neg_rep.any():
            contrib = self._batched_contributions(flat)
            avail_rep = np.repeat(avail, flat.counts)
            thr_rep = np.repeat(thr, flat.counts)
            prices = board.price_vector(self._cloud.server_ids)[
                flat.rep_slots
            ]
            one_minus_margin = 1.0 - self._policy.migration_margin
            min_price = board.min_price()
            act_neg = neg_rep & (
                (avail_rep - contrib >= thr_rep)
                | (prices * one_minus_margin > min_price)
            )
            act_rep = pos_rep | act_neg
        else:
            act_rep = pos_rep
        any_act = np.logical_or.reduceat(act_rep, offsets)
        short = avail < thr
        visit = short | any_act | ~flat.aligned
        repairing = np.flatnonzero(short & np.isfinite(thr))
        return flat, visit, repairing

    def _preload_repair_shortlists(self, flat: _FlatState,
                                   repairing: np.ndarray,
                                   scorer: PlacementScorer,
                                   g_of_app: Optional[
                                       Dict[int, np.ndarray]
                                   ]) -> None:
        """Wave 0 of the grouped repair kernel (§II-C maintenance).

        Collects every repairing partition's live replica set — the
        flat incidence segments are exactly the catalog-order,
        live-filtered lists :meth:`_decide_partition` will rebuild at
        visit time — under the same ``(pid, tuple(servers))`` key the
        chain's first :meth:`PlacementScorer.best` call passes, and
        asks the scorer to build all their shortlists in one grouped
        pass.  Skipped when the scorer's shortlist fast path is off
        (small clouds) or its ``best`` is impure (the random ablation
        never scores), and for *storm-sized*
        waves: a wave executing more transfers than a window holds
        sweeps its anticipated-rent bumps straight past the epoch-start
        bounds, so nearly every window would come back inconclusive —
        the storms are carried by the batched exhaustion proof
        (:meth:`_repair_blocked_everywhere`) instead.  Either way the
        chains score exactly as before.
        """
        k = scorer.shortlist_k
        if not scorer.best_is_pure or not k or len(repairing) > k:
            return
        offsets = flat.offsets
        get_g = g_of_app.get if g_of_app is not None else None
        entries = []
        for seg in repairing.tolist():
            pid = flat.pids[seg]
            lo, hi = int(offsets[seg]), int(offsets[seg + 1])
            key = (pid, tuple(flat.rep_sids[lo:hi].tolist()))
            g = get_g(pid.app_id) if get_g is not None else None
            entries.append((key, flat.rep_slots[lo:hi], g))
        scorer.preload_shortlists(entries)

    def _make_scorer(self, board: PriceBoard) -> PlacementScorer:
        """Build the epoch's placement scorer; ablations override this."""
        return PlacementScorer(
            self._cloud, board,
            rent_weight=self._policy.rent_weight,
            storage_alpha=self._rent_model.alpha,
            epochs_per_month=self._rent_model.epochs_per_month,
            alive_override=self._membership.believed_vector(),
        )

    # -- per-partition logic ------------------------------------------------------

    def _live_replicas(self, pid: PartitionId) -> List[int]:
        believed = self._membership.believed
        return [
            sid
            for sid in self._catalog.servers_of(pid)
            if believed(sid)
        ]

    def _availability_set(self, servers: Sequence[int]) -> float:
        pred = self._membership.predicate
        key: Tuple = tuple(sorted(servers))
        if pred is not None:
            # Belief flips change a set's value; the view version keys
            # the memo only while a non-physical belief is active, so
            # the oracle path keeps the engine-lifetime keys untouched.
            key = (self._membership.version, key)
        cached = self._avail_memo.get(key)
        if cached is None:
            cached = availability(self._cloud, servers, is_alive=pred)
            self._avail_memo[key] = cached
        return cached

    def _avail_of(self, pid: PartitionId, servers: Sequence[int]) -> float:
        """Eq. 2 availability of ``pid`` — incremental cache or memo."""
        if self._index is not None:
            return self._index.availability_of(pid)
        return self._availability_set(servers)

    def _avail_without(self, pid: PartitionId, servers: Sequence[int],
                       excluded: int) -> float:
        """The §II-C suicide test: availability minus one replica.

        The incremental kernel subtracts the excluded replica's pair
        terms from the cached sum (O(R)); the scalar kernel recomputes
        the remaining set's O(R²) pair sum through the memo.
        """
        if self._index is not None:
            return (
                self._index.availability_of(pid)
                - self._index.contribution(pid, excluded, servers)
            )
        return self._availability_set(
            [sid for sid in servers if sid != excluded]
        )

    def _decide_partition(self, partition: Partition, threshold: float,
                          board: PriceBoard, scorer: PlacementScorer,
                          load: EpochLoad, g_vec: Optional[np.ndarray],
                          stats: DecisionStats,
                          batch=None) -> None:
        pid = partition.pid
        # ``servers`` is threaded through the action helpers below and
        # kept an exact mirror of the catalog's (live) replica list, so
        # one build per partition replaces the per-agent rebuilds the
        # scalar engine paid for.
        if self._index is not None:
            live = self._live_ids
            servers = [
                sid
                for sid in self._catalog.replica_servers(pid)
                if sid in live
            ]
        else:
            servers = self._live_replicas(pid)
        if not servers:
            stats.lost_partitions += 1
            return
        avail = self._avail_of(pid, servers)
        if avail < threshold:
            self._repair(
                partition, threshold, avail, scorer, g_vec, stats, servers,
                batch,
            )
            return
        # Availability satisfied: each agent optimises its own cost.
        if self._index is None:
            for agent in list(self._registry.of_partition(pid)):
                if agent.negative_streak:
                    self._shed(partition, threshold, agent, board, scorer,
                               g_vec, stats, servers)
                elif agent.positive_streak:
                    self._expand(partition, agent, board, scorer, load,
                                 g_vec, stats, servers)
            return
        # Vectorized kernel: same decisions, with the overwhelmingly
        # common no-action case triaged inline.  At economic equilibrium
        # most agents carry a negative streak, cannot suicide (their
        # replica is load-bearing for the SLA) and sit too close to the
        # epoch's minimum rent to migrate — that triple check is the
        # epoch kernel's innermost loop, so it runs without the helper
        # call; :meth:`_shed` re-derives the same (memoised) quantities
        # on the rare action path.  Availability is threaded *locally*
        # through the helpers (mirroring the exact eq. 2 deltas the
        # deferred batch will apply at commit) because the shared
        # batch's catalog mutations are not visible to the index until
        # the pass ends.
        one_minus_margin = 1.0 - self._policy.migration_margin
        min_price = board.min_price()
        price = board.price
        contribution = self._index.contribution
        # O(1) streak reads: the ledger keeps the flag lists current
        # through every record/reset/spawn/retire, so indexing them is
        # the same boolean the ``negative_streak``/``positive_streak``
        # properties would compute from the window.
        neg_flags, pos_flags = self._registry.streak_flags()
        # ``of_partition`` already snapshots the agent list.
        for agent in self._registry.of_partition(pid):
            row = agent.row
            if neg_flags[row]:
                sid = agent.server_id
                if sid not in servers:
                    continue
                if avail - contribution(pid, sid, servers) < threshold:
                    # No suicide; migration needs a meaningfully
                    # cheaper host to exist at all.
                    if price(sid) * one_minus_margin <= min_price:
                        continue
                avail = self._shed(partition, threshold, agent, board,
                                   scorer, g_vec, stats, servers,
                                   avail=avail, batch=batch)
            elif pos_flags[row]:
                avail = self._expand(partition, agent, board, scorer, load,
                                     g_vec, stats, servers,
                                     avail=avail, batch=batch)

    def _repair_blocked_everywhere(self, scorer: PlacementScorer, batch,
                                   partition: Partition,
                                   servers: List[int]) -> bool:
        """Grouped §II-C repair feasibility: prove the blocked outcome.

        During a repair storm most servers' batched replication budgets
        are drained by their own *outgoing* transfers — state the
        scorer's candidate mask deliberately does not see (matching the
        sequential reference, whose scorer also tracks destinations
        only).  The chain would then score the whole cloud, pick the
        eq. 3 argmax, and have the batch refuse it.  Whenever every
        mask-feasible slot whose batched budget still fits the bytes is
        one of the partition's *own replicas* (the argmax excludes
        those — typically just the chain's source), the refusal is
        already decided: whatever slot the argmax picks has a drained
        budget, so ``add_replication`` returns ``NO_DEST_BANDWIDTH``.

        The proof needs ``feasible count > len(servers)`` (so the
        argmax provably returns *some* candidate rather than None,
        whose stats differ), plus the surviving-destination set — one
        grouped ``mask ∧ (batched budget ≥ size)`` pass over the
        batch's mirrored budget vector, cached per partition size and
        revalidated only when a reservation landed or storage was
        freed (the scorer's enable clock).  Frame-observable state is
        untouched: the skipped scan only fed a failure record, whose
        destination id no frame ever sees (the record carries the −1
        "no destination" sentinel instead).
        """
        if not scorer.best_is_pure:
            return False
        size = partition.size
        mask, count = scorer.feasible_mask(size, "replication", 0.0)
        if count <= len(servers):
            return False
        state = (batch.reserve_count, scorer.enable_clock)
        cached = self._exhausted_repair.get(size)
        if cached is None or cached[0] != state:
            avail = batch.budget_available_vector(
                TransferKind.REPLICATION
            )
            ok = np.flatnonzero(mask & (avail >= size))
            # Large surviving sets cannot be swallowed by any replica
            # list; remember only that the proof is out of reach.
            cached = (state, ok.tolist() if len(ok) <= 64 else None)
            self._exhausted_repair[size] = cached
        ok = cached[1]
        if ok is None or len(ok) > len(servers):
            return False
        slot = self._cloud.slot
        replica_slots = {slot(sid) for sid in servers}
        return all(s in replica_slots for s in ok)

    def _refused_at_source(self, scorer: PlacementScorer, batch,
                           partition: Partition, src: int,
                           servers: List[int], rent_cap: float,
                           budget_kind: str) -> bool:
        """Source-first refusal: a move ``src`` cannot ship needs no hunt.

        The batch checks the source's budget before the destination's,
        so a short mirrored budget at ``src`` ends the intent in
        ``NO_SOURCE_BANDWIDTH`` whatever the eq. 3 argmax is — provided
        the hunt finds *some* candidate (None has different stats) and
        the scorer is pure (the caller's check).  Never under ``net``:
        there the liveness and reachability outcomes come first and
        feed the retry queue and the wasted-transfer tally.
        """
        if (
            self._membership.predicate is not None
            or self._transfers.reachability is not None
        ):
            return False
        self.source_first_asks += 1
        kind = TransferKind(budget_kind)
        if batch.budget_available(src, kind) >= partition.size or (
            not scorer.cheaper_host_exists(
                rent_cap, partition.size, budget_kind,
                self._policy.storage_headroom, servers,
            )
        ):
            return False
        self.source_first_proofs += 1
        batch.refuse_at_source(partition, src, kind)
        return True

    def _pick_source(self, servers: Sequence[int], nbytes: int,
                     batch=None) -> Optional[int]:
        """A live replica whose replication budget can ship ``nbytes``.

        With a pending :class:`~repro.store.transfer.TransferBatch`,
        availability is read through its mirror (real budget minus the
        chain's queued reservations) — the same value the server object
        would show had the queued transfers already executed.
        """
        read = batch.budget_available if batch is not None else (
            lambda sid: self._cloud.server(sid).replication_budget.available
        )
        best, headroom = None, -1
        for sid in servers:
            avail = read(sid)
            if avail >= nbytes and avail > headroom:
                best, headroom = sid, avail
        return best

    def _repair(self, partition: Partition, threshold: float, avail: float,
                scorer: PlacementScorer, g_vec: Optional[np.ndarray],
                stats: DecisionStats, servers: List[int],
                batch=None) -> None:
        """Replicate until the SLA is met (bounded per epoch).

        The vectorized kernel queues the repair chain into the decision
        pass's shared :class:`~repro.store.transfer.TransferBatch` —
        feasibility is checked against the batch's exact pending
        mirrors, the chain's availability is advanced with the same
        ``pair_gain`` expression the catalog listener applies at
        execution, and the whole pass's transfers then run as one
        grouped application.  Decisions, stats and post-commit state
        are identical to the one-at-a-time reference path.
        """
        pid = partition.pid
        if self._index is None:
            # Reference kernel: rebuild the live set per iteration and
            # execute transfers immediately, as pre-refactor.
            for __ in range(self._policy.repair_iterations):
                servers = self._live_replicas(pid)
                if avail >= threshold:
                    return
                source = self._pick_source(servers, partition.size)
                if source is None:
                    stats.deferred += 1
                    stats.unsatisfied_partitions += 1
                    return
                candidate = scorer.best(
                    servers, need_bytes=partition.size, g=g_vec,
                    budget="replication",
                )
                if candidate is None:
                    stats.unsatisfied_partitions += 1
                    return
                result = self._transfers.replicate(
                    partition, source, candidate.server_id
                )
                if not result.ok:
                    stats.deferred += 1
                    stats.unsatisfied_partitions += 1
                    return
                scorer.consume_budget(
                    candidate.server_id, partition.size, "replication"
                )
                self._registry.spawn(pid, candidate.server_id)
                servers.append(candidate.server_id)
                stats.repairs += 1
                avail = self._avail_of(pid, servers)
            if avail < threshold:
                stats.unsatisfied_partitions += 1
            return
        satisfied = False
        for __ in range(self._policy.repair_iterations):
            if avail >= threshold:
                satisfied = True
                break
            source = self._pick_source(servers, partition.size, batch)
            if source is None:
                stats.deferred += 1
                stats.unsatisfied_partitions += 1
                return
            if self._repair_blocked_everywhere(
                scorer, batch, partition, servers
            ):
                # Grouped exhaustion proof: the eq. 3 scan would pick a
                # candidate the batch must refuse — same stats, no scan.
                batch.defer_without_destination(partition, source)
                stats.deferred += 1
                stats.unsatisfied_partitions += 1
                return
            # Shared-argmax memo: the query is fully determined by
            # (replica *set*, size, proximity vector) plus scorer
            # state the memo's touch clocks track — the eq. 3 gain
            # sums over the set and the knockouts are the set, so the
            # key sorts it, letting partitions sharing a replica set
            # (bootstrap siblings on one seed server, whatever their
            # placement order) and repeated attempts between state
            # changes resolve to one scan.  Impure scorers (the random
            # ablation draws rng per call) must never memoize.
            memo_key = (
                (
                    tuple(sorted(servers)), partition.size,
                    id(g_vec) if g_vec is not None else 0,
                )
                if scorer.best_is_pure else None
            )
            candidate = scorer.best(
                servers, need_bytes=partition.size, g=g_vec,
                budget="replication",
                cache_key=(pid, tuple(servers)),
                memo_key=memo_key,
            )
            if candidate is None:
                stats.unsatisfied_partitions += 1
                return
            blocked = batch.add_replication(
                partition, source, candidate.server_id
            )
            if blocked is not None:
                stats.deferred += 1
                stats.unsatisfied_partitions += 1
                return
            scorer.consume_budget(
                candidate.server_id, partition.size, "replication"
            )
            self._registry.spawn(pid, candidate.server_id)
            # Same expression (and operand order) as the availability
            # index's replica_added listener applies at commit, so the
            # chain-local value stays bit-identical to the post-commit
            # cached sum the next reader sees.
            avail = avail + pair_gain(
                self._cloud, servers, candidate.server_id,
                is_alive=self._membership.predicate,
            )
            servers.append(candidate.server_id)
            stats.repairs += 1
        if not satisfied and avail < threshold:
            stats.unsatisfied_partitions += 1

    def _shed(self, partition: Partition, threshold: float,
              agent: VNodeAgent, board: PriceBoard,
              scorer: PlacementScorer, g_vec: Optional[np.ndarray],
              stats: DecisionStats, servers: List[int],
              avail: float = 0.0, batch=None) -> float:
        """Negative streak: suicide if safe, else migrate somewhere cheaper.

        Under the vectorized kernel the caller threads the partition's
        current eq. 2 availability through ``avail`` (the shared batch
        defers catalog commits, so the index would read stale sums
        mid-pass); the return value is the availability after whatever
        action was taken, advanced with the exact pair-term deltas the
        batch's commit will apply.  The scalar reference ignores both.
        """
        pid = partition.pid
        # One read: ``agent.server_id`` is a two-hop ledger property and
        # stays the *source* id until ``rehome`` at the very end.
        src = agent.server_id
        if self._index is None:
            # Reference kernel: per-agent rebuild, as pre-refactor.
            servers = self._live_replicas(pid)
            if src not in servers:
                return avail
            remaining = self._avail_without(pid, servers, src)
        else:
            if src not in servers:
                return avail
            remaining = avail - self._index.contribution(
                pid, src, servers
            )
        if remaining >= threshold:
            self._transfers.suicide(partition, src)
            self._registry.retire(pid, src)
            scorer.release_storage(src, partition.size)
            servers.remove(src)
            stats.suicides += 1
            return remaining
        # Require a *meaningfully* cheaper host.  At equilibrium, posted
        # prices differ only by small usage terms; without this margin
        # every vnode above the epoch's minimum price migrates forever,
        # which is exactly the thrashing the paper's utility floor is
        # meant to prevent.
        current_rent = board.price(src)
        rent_cap = current_rent * (1.0 - self._policy.migration_margin)
        min_price = (
            board.min_price() if self._index is not None
            else board.scan_min_price()
        )
        if rent_cap <= min_price:
            # No server can be priced below the cap — skip the scoring
            # pass entirely (this is where cold vnodes settle).
            return avail
        # A partition larger than the migration budget can never move on
        # that budget (the paper's own parameters allow this: 256 MB
        # partitions vs 100 MB/epoch migration).  With the policy flag
        # set, such moves ride the roomier replication budget instead:
        # replicate to the target, then suicide the source copy.
        budget_kind = "migration"
        if (
            self._policy.move_large_via_replication
            and partition.size
            > self._cloud.server(src).migration_budget.capacity
        ):
            budget_kind = "replication"
        if self._index is not None and scorer.best_is_pure:
            if scorer.no_cheaper_host(
                rent_cap, partition.size, budget_kind,
                self._policy.storage_headroom,
            ):
                # Every still-feasible destination already charges at
                # least the cap (earlier moves of this pass filled or
                # repriced the cheap ones): the scan would come back empty.
                return avail
            if self._refused_at_source(
                scorer, batch, partition, src, servers, rent_cap, budget_kind
            ):
                stats.deferred += 1
                return avail
        others = [sid for sid in servers if sid != src]
        candidate = scorer.best(
            others,
            need_bytes=partition.size,
            g=g_vec,
            max_rent=rent_cap,
            exclude=(src,),
            budget=budget_kind,
            headroom_fraction=self._policy.storage_headroom,
            cache_key=(
                (pid, tuple(others)) if self._index is not None else None
            ),
        )
        if candidate is None:
            return avail
        if budget_kind == "migration":
            if self._index is not None:
                # Vectorized kernel: queue the move into the pass's
                # shared intent batch — the mirrors make its checks
                # (and deferred/failure stats) identical to an
                # immediate call, and the grouped commit applies it
                # before the next state read outside the pass.
                blocked = batch.add_migration(
                    partition, src, candidate.server_id
                )
                if blocked is not None:
                    stats.deferred += 1
                    return avail
                # Local eq. 2 ledger: add dst against the pre-move set,
                # then remove src against the post-move set — the exact
                # deltas (and operand order) the catalog listener
                # applies when the queued move commits.
                self._index.invalidate_contribution(pid)
                pred = self._membership.predicate
                avail = avail + pair_gain(
                    self._cloud, servers, candidate.server_id,
                    is_alive=pred,
                )
                avail = avail - pair_gain(
                    self._cloud, others + [candidate.server_id],
                    src, is_alive=pred,
                )
            else:
                result = self._transfers.migrate(
                    partition, src, candidate.server_id
                )
                if not result.ok:
                    stats.deferred += 1
                    return avail
        else:
            if self._index is not None:
                blocked = batch.add_replication(
                    partition, src, candidate.server_id
                )
                if blocked is not None:
                    stats.deferred += 1
                    return avail
                # The source copy dies now (its catalog event fires
                # immediately); the queued destination copy lands at
                # commit.  Mirror that chronology on the local sum.
                self._index.invalidate_contribution(pid)
                self._transfers.suicide(partition, src)
                pred = self._membership.predicate
                avail = avail - pair_gain(
                    self._cloud, others, src, is_alive=pred
                )
                avail = avail + pair_gain(
                    self._cloud, others, candidate.server_id,
                    is_alive=pred,
                )
            else:
                result = self._transfers.replicate(
                    partition, src, candidate.server_id
                )
                if not result.ok:
                    stats.deferred += 1
                    return avail
                self._transfers.suicide(partition, src)
        scorer.consume_budget(
            candidate.server_id, partition.size, budget_kind
        )
        scorer.release_storage(src, partition.size)
        # Mirror the catalog's list order before ``rehome`` re-points
        # the agent at its destination: dst was appended, src removed.
        servers.remove(src)
        servers.append(candidate.server_id)
        self._registry.rehome(pid, src, candidate.server_id)
        stats.migrations += 1
        return avail

    def _expand(self, partition: Partition, agent: VNodeAgent,
                board: PriceBoard, scorer: PlacementScorer,
                load: EpochLoad, g_vec: Optional[np.ndarray],
                stats: DecisionStats, servers: List[int],
                avail: float = 0.0, batch=None) -> float:
        """Positive streak: replicate when popularity funds the new copy.

        Vectorized kernel: the transfer queues into the pass's shared
        batch and the partition's availability is advanced locally (see
        :meth:`_shed`); returns the post-action availability.
        """
        pid = partition.pid
        if self._index is None:
            # Reference kernel: per-agent rebuild, as pre-refactor.
            servers = self._live_replicas(pid)
        n = len(servers)
        if self._policy.max_replicas is not None and n >= self._policy.max_replicas:
            return avail
        queries = load.queries_for(pid)
        predicted_utility = (
            self._policy.revenue_per_query * queries / (n + 1)
        )
        sync_cost = self._policy.consistency.marginal_cost(queries, n)
        if (
            self._index is not None
            and scorer.best_is_pure
            and scorer.no_fundable_host(
                predicted_utility, sync_cost, partition.size,
                "replication", self._policy.storage_headroom,
            )
        ):
            # No still-feasible candidate could be funded right now, so
            # the eq. 3 scoring pass is skipped — provably the same
            # outcome as scoring and then failing the funding test below
            # (or finding no candidate at all).
            return avail
        candidate = scorer.best(
            servers, need_bytes=partition.size, g=g_vec,
            budget="replication",
            headroom_fraction=self._policy.storage_headroom,
            cache_key=(
                (pid, tuple(servers)) if self._index is not None else None
            ),
        )
        if candidate is None:
            return avail
        # The candidate's rent will rise once this replica's bytes land
        # there (§II-C: "the potentially increased virtual rent of the
        # candidate server after replication").
        predicted_rent = candidate.rent + scorer.anticipated_rent_bump(
            candidate.server_id, partition.size
        )
        if predicted_utility < predicted_rent + sync_cost:
            return avail
        if self._index is not None:
            blocked = batch.add_replication(
                partition, agent.server_id, candidate.server_id
            )
            if blocked is not None:
                stats.deferred += 1
                return avail
            self._index.invalidate_contribution(pid)
            avail = avail + pair_gain(
                self._cloud, servers, candidate.server_id,
                is_alive=self._membership.predicate,
            )
        else:
            result = self._transfers.replicate(
                partition, agent.server_id, candidate.server_id
            )
            if not result.ok:
                stats.deferred += 1
                return avail
        scorer.consume_budget(
            candidate.server_id, partition.size, "replication"
        )
        spawned = self._registry.spawn(pid, candidate.server_id)
        spawned.reset_history()
        agent.reset_history()
        servers.append(candidate.server_id)
        stats.economic_replications += 1
        return avail
