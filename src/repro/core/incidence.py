"""The live replica/agent incidence the vectorized epoch kernel reads.

Batched eq. 5 settlement and the §II-C pass's pre-triage both want the
same data format: every live replica in catalog placement order, its
cloud slot, and the ledger row of the agent that owns it.  The catalog
keeps each replica's row beside its server id (docs/ARCHITECTURE.md,
"One replica table"), so its flat view already carries the rows in
catalog order; :class:`Incidence` restricts that view to believed-live
servers, caches the result, and builds the triage arrays over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.topology import Cloud
from repro.core.availability import AvailabilityIndex
from repro.core.board import PriceBoard
from repro.ring.partition import PartitionId, gather_float
from repro.ring.virtualring import RingSet
from repro.store.replica import FlatReplicaView, ReplicaCatalog


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
    into segment order.  ``view`` is the catalog's flat view it was cut
    from (ghost replicas included) and ``view_segs[p]`` segment ``p``'s
    position in it.  Valid while the (catalog, cloud, membership-view)
    version key holds — i.e. until any membership mutation, compaction
    or belief flip — so steady-state epochs reuse it whole.
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
    view: FlatReplicaView
    view_segs: np.ndarray


@dataclass
class Triage:
    """:meth:`Incidence.build_triage`'s result, per segment of ``flat``:
    the visit mask and the partition proof's terms.  ``walk``: the SLA
    is short or an agent can suicide.  A *hunter* has a negative streak,
    cannot suicide and caps ``price · (1 − margin)`` above the minimum
    price; ``mig_min`` / ``mig_max`` bound its server's migration-budget
    capacity.  An *expander* has a positive streak, no negative one."""

    flat: _FlatState
    visit: np.ndarray
    walk: np.ndarray
    hunters: np.ndarray
    cap_max: np.ndarray
    mig_min: np.ndarray
    mig_max: np.ndarray
    expanders: np.ndarray


class Incidence:
    """The live replica/agent incidence and the triage arrays over it.

    One per decider.  ``index`` is the incremental eq. 2 store (None
    under the scalar kernel, which reads none of this); its partition
    index is the slot space the incidence's per-partition arrays use.
    """

    def __init__(self, cloud: Cloud, rings: RingSet,
                 catalog: ReplicaCatalog, membership,
                 index: Optional[AvailabilityIndex]) -> None:
        self._cloud = cloud
        self._rings = rings
        self._catalog = catalog
        self._membership = membership
        self._index = index
        # The flat replica/agent incidence structure (valid while
        # catalog, cloud and membership versions hold), and the
        # partition slots of a flat view's ``pids`` tuple (valid while
        # the catalog hands out the same tuple).
        self._flat_cache: Optional[_FlatState] = None
        self._view_slots: Optional[Tuple[tuple, np.ndarray]] = None

    # -- the flat incidence ---------------------------------------------------

    def flat_state(self) -> _FlatState:
        """The epoch kernel's live replica/agent incidence, cached.

        Rebuilt only when the catalog, cloud or membership view's
        version moved (any membership mutation, compaction or belief
        flip); mutation-free epochs — the steady state — reuse the
        whole structure.
        """
        key = (
            self._catalog.version,
            self._cloud.version,
            self._membership.version,
        )
        cached = self._flat_cache
        if cached is not None and cached.key == key:
            return cached
        cloud = self._cloud
        view = self._catalog.flat_view()
        n_slots = len(cloud)
        if not n_slots or not len(view.rows):
            empty = np.zeros(0, dtype=np.intp)
            flat = _FlatState(
                key=key, pids=[], pid_slots=empty, seg_by_slot=empty,
                offsets=np.zeros(1, dtype=np.intp), counts=empty,
                rep_slots=empty, rep_rows=empty, n_slots=n_slots,
                view=view, view_segs=empty,
            )
            self._flat_cache = flat
            return flat
        id_to_slot = cloud.slot_lookup()
        alive = self._membership.believed_vector()
        slots_all = id_to_slot[
            np.minimum(view.server_ids, len(id_to_slot) - 1)
        ]
        known = slots_all >= 0
        live_rep = known & alive[np.where(known, slots_all, 0)]
        kept = np.add.reduceat(live_rep.astype(np.intp), view.offsets[:-1])
        view_segs = np.flatnonzero(kept)
        all_pids = view.pids
        pids = [all_pids[seg] for seg in view_segs.tolist()]
        counts = kept[view_segs]
        offsets = np.zeros(len(pids) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        pindex = self._index.partition_index
        cached = self._view_slots
        if cached is None or cached[0] is not all_pids:
            cached = self._view_slots = (all_pids, pindex.slots_of(all_pids))
        pid_slots = cached[1][view_segs]
        seg_by_slot = np.full(len(pindex), -1, dtype=np.intp)
        seg_by_slot[pid_slots] = np.arange(len(pids), dtype=np.intp)
        flat = _FlatState(
            key=key,
            pids=pids,
            pid_slots=pid_slots,
            seg_by_slot=seg_by_slot,
            offsets=offsets,
            counts=counts,
            rep_slots=slots_all[live_rep],
            rep_rows=view.rows[live_rep],
            n_slots=n_slots,
            view=view,
            view_segs=view_segs,
        )
        self._flat_cache = flat
        return flat

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
                     ) -> Triage:
        """Per-partition visit mask and proof terms (one array pass).

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
        index = self._index
        avail = index.availability_at(flat.pid_slots)
        thr = gather_float(
            self._rings.layout().threshold_by_slot, flat.pid_slots,
            fill=np.inf,
        )
        ledger = self._catalog.ledger
        window = ledger.window
        neg_run, pos_run = ledger.streak_run_vectors()
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
            caps = prices * (1.0 - migration_margin)
            suicidal = neg_rep & (avail_rep - contrib >= thr_rep)
            hunter = neg_rep & ~suicidal & (caps > board.min_price())
        else:
            caps = 0.0
            suicidal = hunter = neg_rep
        # Expanders are counted over every replica of the partition: the
        # walk offers an agent on a believed-dead server an expansion too.
        expanders = np.zeros(0, dtype=np.intp)
        if len(flat.view_segs):
            all_rows = flat.view.rows
            expanders = np.add.reduceat(
                ((pos_run[all_rows] >= window)
                 & (neg_run[all_rows] < window)).astype(np.intp),
                flat.view.offsets[:-1],
            )[flat.view_segs]
        short = avail < thr
        visit = short | np.logical_or.reduceat(
            pos_rep | suicidal | hunter, offsets
        )
        mig = self._cloud.migration_capacity_vector()[flat.rep_slots]
        big = np.iinfo(mig.dtype).max
        return Triage(
            flat=flat,
            visit=visit,
            walk=short | np.logical_or.reduceat(suicidal, offsets),
            hunters=np.add.reduceat(hunter.astype(np.intp), offsets),
            cap_max=np.maximum.reduceat(
                np.where(hunter, caps, -np.inf), offsets
            ),
            mig_min=np.minimum.reduceat(np.where(hunter, mig, big), offsets),
            mig_max=np.maximum.reduceat(np.where(hunter, mig, -1), offsets),
            expanders=expanders,
        )
