"""Partition availability from geographic diversity — eq. 2.

Estimating real per-server failure probabilities would need historical
and private data, so the paper approximates a partition's availability
by the confidence-weighted geographic diversity of its replica set:

    avail_i = Σ_{j} Σ_{k>j} conf_j · conf_k · diversity(s_j, s_k)

A single replica has availability 0 (no pair), two same-rack replicas
barely register (diversity 1), and replicas spread across continents
dominate — matching the §I observation that a PDU or rack failure kills
colocated machines together.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.cluster.location import (
    CROSS_COUNTRY_DIVERSITY,
    MAX_DIVERSITY,
    diversity,
)
from repro.cluster.topology import Cloud
from repro.ring.partition import (
    PartitionIndex,
    gather_float,
    gather_int,
)


class AvailabilityError(ValueError):
    """Raised for invalid availability queries."""


#: Optional liveness override: maps a server id to whether the caller
#: *believes* it alive.  ``None`` means physical liveness (the
#: pre-existing inline path, kept byte-identical).
LivenessPredicate = Callable[[int], bool]


def availability(cloud: Cloud, server_ids: Sequence[int],
                 is_alive: Optional[LivenessPredicate] = None) -> float:
    """Eq. 2 availability of a replica set.

    Dead or unknown servers contribute nothing: a replica on a failed
    machine is lost, so only live replicas count toward the estimate.
    ``is_alive`` substitutes a *believed* liveness column for the
    physical one (the stale-membership seam); servers unknown to the
    cloud are always excluded (their locations are gone).
    """
    if is_alive is None:
        live = [
            sid
            for sid in server_ids
            if sid in cloud and cloud.server(sid).alive
        ]
    else:
        live = [
            sid
            for sid in server_ids
            if sid in cloud and is_alive(sid)
        ]
    if len(set(live)) != len(live):
        raise AvailabilityError(f"duplicate servers in replica set: {server_ids}")
    if len(live) < 2:
        return 0.0
    total = 0.0
    for i, a in enumerate(live):
        server_a = cloud.server(a)
        conf_a = server_a.confidence
        for b in live[i + 1:]:
            server_b = cloud.server(b)
            total += conf_a * server_b.confidence * diversity(
                server_a.location, server_b.location
            )
    return total


def availability_without(cloud: Cloud, server_ids: Sequence[int],
                         excluded: int,
                         is_alive: Optional[LivenessPredicate] = None
                         ) -> float:
    """Availability if ``excluded`` dropped its replica — the suicide test."""
    remaining = [sid for sid in server_ids if sid != excluded]
    if len(remaining) == len(server_ids):
        raise AvailabilityError(
            f"server {excluded} not in replica set {server_ids}"
        )
    return availability(cloud, remaining, is_alive=is_alive)


def pair_gain(cloud: Cloud, server_ids: Sequence[int],
              candidate: int,
              is_alive: Optional[LivenessPredicate] = None) -> float:
    """Availability added by replicating onto ``candidate`` (eq. 2 delta).

    Liveness and confidence are read off the cloud's server columns
    (row ≡ slot) rather than through per-server row views; the sum is
    accumulated in ``server_ids`` order as
    ``cand_conf · conf_k · div(cand, k)``, left to right — the operand
    order every chain-local availability ledger in the decision pass
    relies on to stay bit-identical to the catalog listener.
    """
    if candidate in server_ids:
        raise AvailabilityError(f"candidate {candidate} already hosts a replica")
    cand_slot = cloud.slot(candidate)
    table = cloud.table
    alive = table.alive
    if is_alive is None:
        if not alive[cand_slot]:
            return 0.0
    elif not is_alive(candidate):
        return 0.0
    conf = table.confidence
    cand_conf = float(conf[cand_slot])
    locs = cloud.locations
    cand_loc = locs[cand_slot]
    slot_of = cloud.slot_map.get
    gain = 0.0
    for sid in server_ids:
        slot = slot_of(sid)
        if slot is not None and (
            alive[slot] if is_alive is None else is_alive(sid)
        ):
            gain += cand_conf * float(conf[slot]) * diversity(
                cand_loc, locs[slot]
            )
    return gain


def max_availability(replicas: int,
                     pair_diversity: int = MAX_DIVERSITY,
                     confidence: float = 1.0) -> float:
    """Upper bound of eq. 2 for ``replicas`` copies at given dispersion."""
    if replicas < 0:
        raise AvailabilityError(f"replicas must be >= 0, got {replicas}")
    return comb(replicas, 2) * pair_diversity * confidence * confidence


def strict_threshold(replicas: int, confidence: float = 1.0) -> float:
    """Smallest threshold that *cannot* be met by ``replicas - 1`` copies.

    Any placement of ``replicas - 1`` replicas — even one per continent —
    stays strictly below this value, so an agent must hold at least
    ``replicas`` copies to satisfy it.
    """
    if replicas < 1:
        raise AvailabilityError(f"replicas must be >= 1, got {replicas}")
    return max_availability(replicas - 1, MAX_DIVERSITY, confidence) + 1.0


def dispersed_threshold(replicas: int,
                        pair_diversity: int = CROSS_COUNTRY_DIVERSITY
                        ) -> float:
    """Threshold asking for ``replicas`` copies in distinct countries.

    ``C(replicas, 2) · pair_diversity`` — reachable by ``replicas``
    cross-country copies, generally *not* by fewer unless they are far
    more dispersed.  This is the natural reading of the paper's "one
    availability level satisfied by 2, 3, 4 replicas".
    """
    if replicas < 1:
        raise AvailabilityError(f"replicas must be >= 1, got {replicas}")
    return float(comb(replicas, 2) * pair_diversity)


def paper_thresholds() -> Dict[int, float]:
    """Per-ring thresholds for the evaluation's 2/3/4-replica levels.

    Values sit between what n well-dispersed replicas achieve and what
    n−1 replicas can reach even at maximal dispersion, so the replica
    count the economy converges to is exactly the paper's:

    * ring 0 (2 replicas): 20 < 31 (one cross-country pair) — one pair
      beyond-datacenter required; a single replica scores 0.
    * ring 1 (3 replicas): 80 > 63 (two-replica maximum), < 93 (three
      cross-country replicas).
    * ring 2 (4 replicas): 250 > 189 (three-replica maximum), < 314
      (four cross-country replicas under the paper layout).
    """
    return {2: 20.0, 3: 80.0, 4: 250.0}


class AvailabilityIndex:
    """Incrementally maintained eq. 2 availability of every partition.

    The scalar engine recomputes the O(R²) pair sum from scratch every
    time a partition's availability is consulted — in the decision pass
    *and* again in metrics collection.  This index instead subscribes to
    the replica catalog and folds every membership change into a cached
    per-partition pair sum:

    * replicate onto ``s``:  ``S += Σ_k conf_s · conf_k · div(s, k)``;
    * suicide / drop of ``s``:  ``S -= `` the same pair gain;
    * migration: the add and the remove, in catalog order;
    * partition split: children inherit the parent's replica set, so
      they inherit ``S`` verbatim;
    * server death: the lost partitions are recomputed from their
      surviving replicas (the dead server's location is gone from the
      cloud, so its pair terms cannot be subtracted — and deaths are
      rare enough that an O(R²) rebuild per lost partition is free).

    Exactness: under the evaluation's confidence model (conf ≡ 1.0, the
    default of :func:`repro.cluster.topology.build_cloud`) every pair
    term is a small integer, so the float64 pair sum is *exact* and the
    delta-maintained value is bit-identical to the scalar double loop
    regardless of accumulation order.  With fractional confidences the
    cached value can drift from the scalar loop by rounding ulps; callers
    needing the scalar anchor there should use :func:`availability`.
    """

    def __init__(self, cloud: Cloud, catalog=None,
                 partitions: Optional[PartitionIndex] = None) -> None:
        self._cloud = cloud
        self._catalog = None
        self._partitions = (
            partitions if partitions is not None else PartitionIndex()
        )
        # Dense per-partition stores in the partition index's slot
        # space: the eq. 2 pair sum and the replica count.  Slots of
        # partitions that left the catalog hold the "absent" values
        # (0.0 / 0), which is exactly what the dict-backed reads
        # returned for them.
        self._avail = np.zeros(0, dtype=np.float64)
        self._counts = np.zeros(0, dtype=np.int64)
        # Per-(partition, server) pair-term totals for the suicide test,
        # memoised until the partition's membership changes.  Negative
        # streaks persist across epochs while membership rarely moves,
        # so the hit rate in steady state is high.
        self._contrib: Dict[object, Dict[int, float]] = {}
        # Optional believed-liveness override for every internal eq. 2
        # evaluation (the stale-membership seam).  ``None`` keeps the
        # physical paths bit-identical.  Callers that flip a belief must
        # refresh the affected partitions (:meth:`refresh_server`) —
        # the delta accounting assumes sums reflect the current column.
        self._liveness: Optional[LivenessPredicate] = None
        if catalog is not None:
            self.bind(catalog)

    # -- wiring ------------------------------------------------------------

    @property
    def partition_index(self) -> PartitionIndex:
        """The dense slot space the vector reads are addressed in."""
        return self._partitions

    def bind(self, catalog) -> None:
        """Subscribe to ``catalog`` and bootstrap from its current state."""
        self._catalog = catalog
        catalog.add_listener(self)
        self.rebuild(catalog)

    def set_liveness(self,
                     predicate: Optional[LivenessPredicate]) -> None:
        """Install (or clear) the believed-liveness override.

        The caller owns coherence: on every belief *flip* for a server,
        call :meth:`refresh_server` so the cached pair sums are
        recomputed under the new column.
        """
        self._liveness = predicate

    def refresh_partition(self, pid) -> None:
        """Recompute one partition's pair sum under the current column."""
        catalog = self._catalog
        servers = catalog.servers_of(pid) if catalog is not None else ()
        self._contrib.pop(pid, None)
        slot = self._slot(pid)
        self._counts[slot] = len(servers)
        self._avail[slot] = (
            availability(self._cloud, servers, is_alive=self._liveness)
            if servers else 0.0
        )

    def refresh_server(self, server_id: int) -> None:
        """Recompute every partition hosting ``server_id`` (belief flip)."""
        catalog = self._catalog
        if catalog is None:
            return
        for pid in catalog.partitions_on(server_id):
            self.refresh_partition(pid)

    def rebuild(self, catalog) -> None:
        """Recompute every partition's pair sum from catalog state."""
        self._contrib = {}
        slot_of = self._partitions.slot_of
        pairs = []
        for pid in catalog.partitions():
            servers = catalog.servers_of(pid)
            pairs.append(
                (slot_of(pid),
                 availability(self._cloud, servers,
                              is_alive=self._liveness),
                 len(servers))
            )
        self._avail = np.zeros(len(self._partitions), dtype=np.float64)
        self._counts = np.zeros(len(self._partitions), dtype=np.int64)
        for slot, avail, count in pairs:
            self._avail[slot] = avail
            self._counts[slot] = count

    def _slot(self, pid) -> int:
        """The partition's slot, with the vectors grown to cover it."""
        slot = self._partitions.slot_of(pid)
        if slot >= self._avail.size:
            grown = max(64, 2 * self._avail.size, slot + 1)
            avail = np.zeros(grown, dtype=np.float64)
            avail[: self._avail.size] = self._avail
            counts = np.zeros(grown, dtype=np.int64)
            counts[: self._counts.size] = self._counts
            self._avail = avail
            self._counts = counts
        return slot

    # -- queries -----------------------------------------------------------

    def availability_of(self, pid) -> float:
        """Cached eq. 2 availability (0.0 for unknown / lost partitions)."""
        slot = self._partitions.get(pid)
        if slot is None or slot >= self._avail.size:
            return 0.0
        return float(self._avail[slot])

    def availability_at(self, slots: np.ndarray) -> np.ndarray:
        """Eq. 2 availability gathered at index ``slots`` (0.0 unknown)."""
        return gather_float(self._avail, slots)

    def replica_counts_at(self, slots: np.ndarray) -> np.ndarray:
        """Catalog replica counts gathered at index ``slots`` (0 unknown).

        Mirrors ``catalog.replica_count(pid)`` — all replicas, live or
        not — maintained from the same membership events as the pair
        sums, so metrics collection reads one vector instead of P
        catalog lookups.
        """
        return gather_int(self._counts, slots)

    def invalidate_contribution(self, pid) -> None:
        """Drop the pair-term memo for one partition.

        The decision pass calls this when it *queues* a membership
        change for ``pid`` into a deferred transfer batch: the catalog
        event that would clear the memo only fires at commit, but later
        suicide prechecks within the same pass already reason over the
        post-queue replica set.
        """
        self._contrib.pop(pid, None)

    def contribution(self, pid, server_id: int,
                     servers: Sequence[int]) -> float:
        """Pair terms ``server_id`` contributes to its partition's sum.

        ``availability_of(pid) - contribution(...)`` is the §II-C
        suicide test ("does availability stay satisfied without me?")
        in O(R) instead of O(R²) — and usually O(1): the value is
        memoised per (partition, server) until the partition's
        membership changes.  ``servers`` must be the partition's current
        live replica set (the memo is keyed on membership events, not on
        the argument).
        """
        cache = self._contrib.get(pid)
        if cache is None:
            cache = {}
            self._contrib[pid] = cache
        else:
            cached = cache.get(server_id)
            if cached is not None:
                return cached
        cloud = self._cloud
        pred = self._liveness
        total = 0.0
        slot_of = cloud.slot_map.get
        me_slot = slot_of(server_id)
        if me_slot is not None:
            # Column reads (row ≡ slot) instead of per-server row views;
            # same terms, same left-to-right operand order.
            table = cloud.table
            alive = table.alive
            conf = table.confidence
            if alive[me_slot] if pred is None else pred(server_id):
                me_conf = float(conf[me_slot])
                locs = cloud.locations
                me_loc = locs[me_slot]
                for sid in servers:
                    if sid == server_id:
                        continue
                    slot = slot_of(sid)
                    if slot is not None and (
                        alive[slot] if pred is None else pred(sid)
                    ):
                        total += me_conf * float(conf[slot]) * diversity(
                            me_loc, locs[slot]
                        )
        cache[server_id] = total
        return total

    # -- CatalogListener callbacks ------------------------------------------

    def replica_added(self, pid, server_id: int,
                      servers: Sequence[int]) -> None:
        self._contrib.pop(pid, None)
        others = [sid for sid in servers if sid != server_id]
        gain = 0.0
        if others:
            gain = pair_gain(self._cloud, others, server_id,
                             is_alive=self._liveness)
        slot = self._slot(pid)
        self._avail[slot] = self._avail[slot] + gain
        self._counts[slot] = len(servers)

    def replica_removed(self, pid, server_id: int,
                        servers: Sequence[int]) -> None:
        self._contrib.pop(pid, None)
        slot = self._slot(pid)
        self._counts[slot] = len(servers)
        if not servers:
            self._avail[slot] = 0.0
            return
        pred = self._liveness
        counts = (
            server_id in self._cloud
            and (
                self._cloud.server(server_id).alive
                if pred is None else pred(server_id)
            )
        )
        if counts:
            loss = pair_gain(self._cloud, servers, server_id,
                             is_alive=pred)
        else:
            # The server is gone from the cloud (death path without the
            # bulk drop): its pair terms cannot be derived, recompute.
            self._avail[slot] = availability(self._cloud, servers,
                                             is_alive=pred)
            return
        self._avail[slot] = self._avail[slot] - loss

    def server_dropped(self, server_id: int, lost: Sequence) -> None:
        # The dead server's location left the cloud with it, so its
        # pair terms cannot be subtracted; recompute each affected
        # partition's pair sum over the survivors (exact, and deaths are
        # rare enough that the O(R²) rebuild per lost partition is free).
        catalog = self._catalog
        for pid in lost:
            self._contrib.pop(pid, None)
            servers = catalog.servers_of(pid) if catalog is not None else ()
            slot = self._slot(pid)
            self._counts[slot] = len(servers)
            if servers:
                self._avail[slot] = availability(
                    self._cloud, servers, is_alive=self._liveness
                )
            else:
                self._avail[slot] = 0.0

    def storage_changed(self, server_id: int, delta: int) -> None:
        """Byte accounting is irrelevant to eq. 2 — no-op."""

    def partition_split(self, parent, low, high,
                        servers: Sequence[int]) -> None:
        # Children inherit the parent's replica set verbatim, so both
        # the pair sum and the per-server pair terms carry over.
        contrib = self._contrib.pop(parent, None)
        if contrib is not None:
            self._contrib[low] = dict(contrib)
            self._contrib[high] = dict(contrib)
        n = len(servers)
        parent_slot = self._partitions.get(parent)
        known = parent_slot is not None and parent_slot < self._avail.size
        inherited = float(self._avail[parent_slot]) if known else 0.0
        if known:
            self._avail[parent_slot] = 0.0
            self._counts[parent_slot] = 0
        low_slot = self._slot(low)
        self._avail[low_slot] = inherited
        self._counts[low_slot] = n
        high_slot = self._slot(high)
        self._avail[high_slot] = inherited
        self._counts[high_slot] = n


def diversity_histogram(cloud: Cloud, server_ids: Sequence[int]
                        ) -> Dict[int, int]:
    """Count replica pairs per diversity value — dispersion diagnostics."""
    live = [sid for sid in server_ids if sid in cloud]
    hist: Dict[int, int] = {}
    for i, a in enumerate(live):
        for b in live[i + 1:]:
            d = cloud.diversity(a, b)
            hist[d] = hist.get(d, 0) + 1
    return hist
