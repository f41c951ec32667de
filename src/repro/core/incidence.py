"""The catalog↔ledger incidence the vectorized epoch kernel reads.

Batched eq. 5 settlement and the §II-C pass's pre-triage both want the
same data format: every live replica in catalog placement order, its
cloud slot, and the ledger row of the agent that owns it.  The
:class:`Incidence` object owns that format end to end — the cached
:class:`_FlatState`, the catalog↔ledger row alignment behind it
(maintained incrementally: a catalog-delta journal lets mutation epochs
splice the touched segments instead of re-sorting the whole ledger),
the splice counters and cross-check flag, and the triage arrays built
over it.  docs/ARCHITECTURE.md, "Incremental incidence maintenance",
states the splice-vs-rebuild contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.topology import Cloud
from repro.core.agent import AgentRegistry
from repro.core.availability import AvailabilityIndex
from repro.core.board import PriceBoard
from repro.core.policy import KernelError
from repro.ring.partition import PartitionId, gather_float
from repro.ring.virtualring import RingSet
from repro.store.replica import CatalogListener, ReplicaCatalog


@dataclass
class _FlatState:
    """Slot-ordered live replica/agent incidence (vectorized kernel).

    ``pids[p]`` owns replicas ``offsets[p]:offsets[p+1]`` of the
    parallel per-replica arrays, in catalog placement order, restricted
    to live servers.  ``rep_rows`` are the owning agents' ledger rows.
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
    rep_rows: np.ndarray
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
    """One catalog↔ledger alignment snapshot.

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


class Incidence:
    """The live replica/agent incidence and the triage arrays over it.

    One per decider.  ``index`` is the incremental eq. 2 store (None
    under the scalar kernel, which reads none of this); the registry's
    ledger rows must carry slots of its partition index.
    ``align_splices`` / ``align_rebuilds`` / ``align_reuses`` count how
    each alignment request was served; ``align_check = True`` verifies
    every splice against a full rebuild in-line (tests; far too slow
    for production epochs) and raises :class:`KernelError` on the first
    divergence.
    """

    def __init__(self, cloud: Cloud, rings: RingSet,
                 catalog: ReplicaCatalog, registry: AgentRegistry,
                 membership, index: Optional[AvailabilityIndex]) -> None:
        if index is not None and (
            registry.partition_index is not index.partition_index
        ):
            raise KernelError(
                "the vectorized kernel needs the agent registry built on "
                "the availability index's partition index"
            )
        self._cloud = cloud
        self._rings = rings
        self._catalog = catalog
        self._registry = registry
        self._membership = membership
        self._index = index
        # The alignment snapshot plus the catalog-delta journal that
        # lets mutation epochs splice touched segments instead of
        # re-sorting the whole ledger.
        self._align_cache: Optional[_AlignCache] = None
        self._cat_journal = _IncidenceJournal()
        if index is not None:
            catalog.add_listener(self._cat_journal)
        self.align_splices = 0
        self.align_rebuilds = 0
        self.align_reuses = 0
        self.align_check = False
        # The flat replica/agent incidence structure (valid while
        # catalog, registry and cloud versions hold).
        self._flat_cache: Optional[_FlatState] = None

    # -- the flat incidence ---------------------------------------------------

    def flat_state(self) -> _FlatState:
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
        n_slots = len(cloud)
        n_all = len(view.server_ids)
        if not n_slots or not n_all:
            flat = _FlatState(
                key=key, pids=[],
                pid_slots=np.zeros(0, dtype=np.intp),
                seg_by_slot=np.zeros(0, dtype=np.intp),
                offsets=np.zeros(1, dtype=np.intp),
                counts=np.zeros(0, dtype=np.intp),
                rep_slots=np.zeros(0, dtype=np.intp),
                rep_rows=np.zeros(0, dtype=np.intp),
                n_slots=n_slots,
            )
            self._flat_cache = flat
            return flat
        id_to_slot = cloud.slot_lookup()
        alive = self._membership.believed_vector()
        sids_all = np.asarray(view.server_ids, dtype=np.int64)
        slots_all = id_to_slot[np.minimum(sids_all, len(id_to_slot) - 1)]
        known = slots_all >= 0
        live_rep = known & alive[np.where(known, slots_all, 0)]
        offsets_all = np.asarray(view.offsets, dtype=np.intp)
        counts_all = np.diff(offsets_all)
        kept = np.add.reduceat(live_rep.astype(np.intp), offsets_all[:-1])
        # Registry ledger rows aligned with the catalog's member order.
        # Rows carry their partition's dense index slot and a
        # spawn/rehome sequence, so the alignment is reconstructed in
        # row space — one lexsort plus block gathers, no Python
        # iteration per partition.  Every live replica's row must own
        # it: a segment whose row block cannot be matched 1:1, or a row
        # whose server disagrees with the catalog, is a ledger the
        # catalog no longer mirrors.
        rows_all, aligned_all, cat_slots = self._aligned_rows(
            view, offsets_all, counts_all, n_all
        )
        sid_of_row = self._registry.ledger.server_id_vector()
        valid = rows_all >= 0
        row_sid = np.where(
            valid, sid_of_row[np.where(valid, rows_all, 0)], -1
        )
        rep_ok = valid & (row_sid == sids_all)
        live_part = kept > 0
        bad = live_part & ~(aligned_all & np.logical_and.reduceat(
            rep_ok | ~live_rep, offsets_all[:-1]
        ))
        if bad.any():
            raise KernelError(
                f"partition {view.pids[int(np.argmax(bad))]}: its catalog "
                f"replicas and agent ledger rows disagree"
            )
        pids = [
            pid
            for pid, keep in zip(view.pids, live_part.tolist())
            if keep
        ]
        counts = kept[live_part]
        offsets = np.zeros(len(pids) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        pid_slots = cat_slots[live_part].astype(np.intp)
        seg_by_slot = np.full(
            len(self._index.partition_index), -1, dtype=np.intp
        )
        seg_by_slot[pid_slots] = np.arange(len(pids), dtype=np.intp)
        flat = _FlatState(
            key=key,
            pids=pids,
            pid_slots=pid_slots,
            seg_by_slot=seg_by_slot,
            offsets=offsets,
            counts=counts,
            rep_slots=slots_all[live_rep],
            rep_rows=rows_all[live_rep],
            n_slots=n_slots,
        )
        self._flat_cache = flat
        return flat

    # -- catalog↔ledger alignment ---------------------------------------------

    def _aligned_rows(self, view, offsets_all: np.ndarray,
                      counts_all: np.ndarray, n_all: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ledger rows in catalog replica order, per-segment match
        flags, and every catalog pid's index slot.

        Incrementally maintained: the alignment is cached against
        (catalog version, registry version, ledger compactions) —
        notably *not* the cloud/membership versions, so pure churn
        epochs reuse it untouched.  When the versions moved but the
        catalog/registry journals prove the delta was a small set of
        touched partitions, only those segments are rebuilt (from the
        registry's maintained row mirror) and the untouched regions are
        spliced across as contiguous block copies.  The full (slot,
        spawn-sequence) lexsort — whose per-partition block order
        mirrors the catalog's placement order because spawn appends and
        rehome re-sequences to the end, the same mutations in the same
        order the catalog's member lists saw — survives in
        :meth:`_rebuild_alignment` as the structural path, and is what
        splices are cross-checked against in the tests.  A segment whose
        row block cannot be matched 1:1 with the catalog is flagged
        (−1 rows) on every path alike.
        """
        registry = self._registry
        cache = self._align_cache
        key = (
            self._catalog.version, registry.version, registry.compactions,
        )
        if cache is not None and cache.key == key:
            # Pure cloud/membership movement: the alignment depends on
            # neither, so churn epochs reuse the arrays whole.
            self.align_reuses += 1
            return cache.rows_all, cache.aligned_all, cache.cat_slots
        spliced = None
        if cache is not None:
            touched = self._splice_touched(cache)
            if touched is not None:
                spliced = self._splice_alignment(
                    cache, touched, view, offsets_all, counts_all, n_all,
                    key,
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
        row mirror, with a length check deciding the per-segment match
        flag.  Any inconsistency (unknown pid,
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
        structural-event path; the lint gate pins the module's only
        ``np.lexsort`` here.
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

    # -- the triage arrays ------------------------------------------------------

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
        conf = self._cloud.confidence_vector()
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
                self._cloud.diversity_between(
                    slots[:, :, None], slots[:, None, :]
                )
                * conf_r[:, None, :]
            )
            contrib[idx] = conf_r * pair.sum(axis=2)
        return contrib

    def build_triage(self, board: PriceBoard, migration_margin: float
                     ) -> Tuple[_FlatState, np.ndarray]:
        """Per-partition visit mask for the §II-C pass (one array pass).

        Reproduces, vectorized, exactly the checks the inline loop runs
        for the no-action case: full-window streak flags from the agent
        ledger, the suicide feasibility test ``avail − contribution ≥
        threshold`` and the migration floor ``price · (1 − margin) >
        min_price``.  Partitions whose replicas all land in "no action"
        (and whose SLA holds) are skipped without touching their agents.
        Availability and thresholds are gathered from the dense
        partition-index stores — no per-partition Python lookups.
        """
        flat = self.flat_state()
        if not flat.pids:
            return flat, np.zeros(0, dtype=bool)
        index = self._index
        avail = index.availability_at(flat.pid_slots)
        thr = gather_float(
            self._rings.layout().threshold_by_slot, flat.pid_slots,
            fill=np.inf,
        )
        window = self._registry.window
        neg_run, pos_run = self._registry.ledger.streak_run_vectors()
        rows = flat.rep_rows
        neg_rep = neg_run[rows] >= window
        pos_rep = pos_run[rows] >= window
        offsets = flat.offsets[:-1]
        if neg_rep.any():
            contrib = self._batched_contributions(flat)
            avail_rep = np.repeat(avail, flat.counts)
            thr_rep = np.repeat(thr, flat.counts)
            prices = board.price_vector(self._cloud.server_ids)[
                flat.rep_slots
            ]
            one_minus_margin = 1.0 - migration_margin
            min_price = board.min_price()
            act_neg = neg_rep & (
                (avail_rep - contrib >= thr_rep)
                | (prices * one_minus_margin > min_price)
            )
            act_rep = pos_rep | act_neg
        else:
            act_rep = pos_rep
        any_act = np.logical_or.reduceat(act_rep, offsets)
        visit = (avail < thr) | any_act
        return flat, visit
