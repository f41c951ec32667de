"""Replica placement: candidate scoring (eq. 3) and proximity (eq. 4).

When a virtual node must add or move a replica it scores every server

    score_j = Σ_k g_j · conf_j · diversity(s_k, s_j) − c_j         (eq. 3)

over its current replica locations s_k, where c_j is the candidate's
posted virtual rent and g_j the client-proximity preference

    g_j = Σ_l q_l / (1 + Σ_l q_l · diversity(l, s_j))              (eq. 4)

computed from the per-location query counts q_l of the node's
partition.  Diversity values are integers up to 63 while rents are
fractions of a dollar, so diversity dominates and the rent acts as the
cost tie-breaker among equally dispersed candidates — "availability is
increased as much as possible at the minimum cost" (§II-B).

Scoring is vectorised over the cloud's slot order; with N servers each
call is a handful of O(N) numpy operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.location import Location, diversity
from repro.cluster.topology import Cloud
from repro.core.board import PriceBoard
from repro.workload.clients import ClientGeography


class PlacementError(ValueError):
    """Raised for invalid placement queries."""


def proximity_weights(cloud: Cloud, geography: ClientGeography,
                      query_counts: Optional[Dict[Location, float]] = None
                      ) -> np.ndarray:
    """Eq. 4 preference weight of every server (cloud slot order).

    ``query_counts`` are the per-client-location query counts q_l of
    one partition; when omitted, the geography's long-run shares stand
    in for them.  The uniform geography yields g ≡ 1 exactly as the
    paper assumes (§III-A); discrete geographies are normalised by the
    maximum so g stays in (0, 1] and eq. 3's diversity scale is
    preserved.
    """
    n = len(cloud)
    if n == 0:
        raise PlacementError("empty cloud")
    if geography.is_uniform:
        return np.ones(n, dtype=np.float64)
    if query_counts is not None:
        weighted = [(loc, float(q)) for loc, q in query_counts.items() if q > 0]
    else:
        weighted = geography.weighted_sites()
    if not weighted:
        return np.ones(n, dtype=np.float64)
    servers = cloud.servers()
    total_q = sum(q for __, q in weighted)
    distance = np.zeros(n, dtype=np.float64)
    for site, q in weighted:
        site_div = np.array(
            [diversity(site, s.location) for s in servers], dtype=np.float64
        )
        distance += q * site_div
    raw = total_q / (1.0 + distance)
    peak = raw.max()
    if peak <= 0:
        return np.ones(n, dtype=np.float64)
    return raw / peak


@dataclass(frozen=True)
class Candidate:
    """A scored placement candidate."""

    server_id: int
    score: float
    diversity_gain: float
    rent: float


#: Sentinel returned by the ceiling certificate when it cannot prove
#: where the argmax lies (distinct from a proven None).
_INCONCLUSIVE = object()


class PlacementScorer:
    """Eq. 3 scorer bound to one epoch's cloud state and price board.

    ``best_is_pure`` declares that :meth:`best` has no side effects
    (no RNG draws, no state mutation), which is what entitles the
    decision engine to *skip* provably-fruitless calls (the
    :meth:`rent_floor` proofs).  Subclasses whose ``best`` consumes
    randomness — the random-placement ablation — must set it to False
    or their draw stream would depend on the skip.

    Instantiate once per epoch (the simulator does); individual calls
    then reuse the slot-ordered rent/confidence/storage vectors.

    Prices are *anticipated*: every transfer routed through
    :meth:`consume_budget` bumps the destination's cached rent by the
    eq. 1 storage term its bytes will add (the paper's "potentially
    increased virtual rent of the candidate server").  Without this,
    every agent in an epoch sees the same static board and herds onto
    the one argmax server until it is full.

    ``class_div_extends`` is always 0 — the one-server diversity-sum
    extension it counted is deleted; it is retained only because the
    frozen benchmark (``benchmarks/e2e``) reads it by name.
    """

    best_is_pure: bool = True
    class_div_extends: int = 0

    def __init__(self, cloud: Cloud, board: PriceBoard,
                 rent_weight: float = 1.0,
                 storage_alpha: float = 1.0,
                 epochs_per_month: int = 720,
                 alive_override: Optional[np.ndarray] = None) -> None:
        if rent_weight < 0:
            raise PlacementError(
                f"rent_weight must be >= 0, got {rent_weight}"
            )
        if storage_alpha < 0:
            raise PlacementError(
                f"storage_alpha must be >= 0, got {storage_alpha}"
            )
        if epochs_per_month <= 0:
            raise PlacementError(
                f"epochs_per_month must be > 0, got {epochs_per_month}"
            )
        self._cloud = cloud
        self._ids: List[int] = cloud.server_ids
        self._slot_of: Dict[int, int] = {
            sid: i for i, sid in enumerate(self._ids)
        }
        self._rents = board.price_vector(self._ids)
        self._conf = cloud.confidence_vector()
        self._storage = cloud.storage_available_vector()
        # Static per-server terms come from the cloud's version-cached
        # vectors; the division is one array op, bit-identical per
        # entry to the scalar ``monthly_rent / epochs_per_month``.
        self._capacity = cloud.capacity_vector()
        self._usage_price = (
            cloud.monthly_rent_vector() / float(epochs_per_month)
        )
        # ``alive_override`` is the faulty-network *believed* column;
        # candidates the board believes dead score as infeasible even
        # while physically up (and ghosts stay targetable until the
        # gossip layer detects them — the transfer engine then refuses
        # the copy with a typed network outcome).
        self._alive = (
            alive_override if alive_override is not None
            else cloud.alive_vector()
        )
        self._rent_weight = rent_weight
        self._storage_alpha = storage_alpha
        self._headroom: Dict[str, np.ndarray] = {}
        self._gain_cache: Dict[object, np.ndarray] = {}
        # Placement-class canonicalisation: eq. 3's gain depends only
        # on the *locations* of the replica set (diversity is a pure
        # location function), so the gain cache is keyed by the sorted
        # tuple of the cloud's interned location ids (equal locations ⇔
        # equal ids) — the set's placement class — via
        # :meth:`_class_key`.  Partitions sharing a replica set (or,
        # degenerately, sets whose servers share locations) then share
        # one gain row instead of building identical copies per
        # ``cache_key``.  Diversity sums are exact small-integer float64
        # vectors, which is what makes the sharing bit-identical to a
        # fresh per-set scan.
        self._class_keys: Dict[object, object] = {}
        self._loc_ids: List[int] = cloud.location_ids().tolist()
        self.class_gain_reuses = 0
        # Cached feasibility masks: the alive/storage/budget mask of
        # :meth:`best` depends only on (need_bytes, budget kind,
        # headroom) and the scorer's mutable storage/budget state.  It
        # is cached per key; when that state moves (consume_budget /
        # release_storage) only the touched server's slot is re-derived
        # in each cached mask — a transfer invalidates one slot, not
        # the cloud.  The pre-PR O(S) mask rebuild per ``best`` call
        # collapses to a dict hit for the whole epoch.
        self._mask_cache: Dict[
            Tuple[int, Optional[str], float], np.ndarray
        ] = {}
        # The monotonicity contract's clocks (docs/ARCHITECTURE.md):
        # anticipated rents only rise and masks only shrink — except
        # through :meth:`release_storage` — so a conclusion drawn at
        # tick t stays exact while no storage was released since (and,
        # for an argmax, its winning slot was not touched).  ``_touch``
        # records each slot's last mutation tick; ``_enable_clock`` the
        # last mask-enabling event.
        self._touch = np.full(len(self._ids), -1, dtype=np.int64)
        self._touch_clock = 0
        self._enable_clock = -1
        # Clocked feasibility floors (:meth:`rent_floor`): per
        # (feasibility key, bump bytes) a ``(tick, lower bound)`` pair,
        # plus the per-size eq. 1 bump vectors they add.  ``floor_asks``
        # / ``floor_proofs`` count the engine's skip queries and how
        # many of them the floor decided without an eq. 3 scan.
        self._floors: Dict[
            Tuple[int, Optional[str], float, int], Tuple[int, float]
        ] = {}
        self._bumps: Dict[int, np.ndarray] = {}
        self.floor_asks = 0
        self.floor_proofs = 0
        # Ceiling certificates (:meth:`_ceiling`): ``(tick, slot, winner)``
        # per (feasibility key, |B|, B's continents, g), slot -1 refused;
        # counted as queries / answers / O(S) entry builds.
        self._cont = cloud.continent_ids()
        self._cont_bit = [1 << c for c in self._cont.tolist()]
        self._n_cont = int(self._cont.max(initial=-1)) + 1
        self._ceil: Dict[tuple, Tuple[int, int, Optional[Candidate]]] = {}
        self.ceil_asks = self.ceil_proofs = self.ceil_builds = 0

    @property
    def server_ids(self) -> List[int]:
        return list(self._ids)

    def _class_key(self, replica_servers: Sequence[int],
                   cache_key: object) -> object:
        """The replica set's placement-class key, memoised per cache_key.

        Diversity is a pure function of server *locations*, so every
        set with the same location multiset scores identically — the
        class key ``("cls", sorted location ids)`` lets all of them
        share one cache entry.  A set containing a server the scorer's
        cloud no longer knows (raced removal) cannot be classed by
        location and falls back to the private ``("raw", cache_key)``
        key, which degrades to exactly the old per-key caching.  The
        memo is sound because every ``cache_key`` the engine mints
        embeds the replica tuple itself.
        """
        key = self._class_keys.get(cache_key)
        if key is None:
            cloud = self._cloud
            if all(sid in cloud for sid in replica_servers):
                key = ("cls", self._location_class(replica_servers))
            else:
                key = ("raw", cache_key)
            self._class_keys[cache_key] = key
        return key

    def _location_class(self, servers: Sequence[int]) -> Tuple[int, ...]:
        """Sorted interned location ids of ``servers`` (a multiset key).

        The ids are the cloud's level-5 prefix codes — equal locations
        ⇔ equal ids — so two sets share a tuple exactly when their
        sorted :class:`Location` tuples would be equal.
        """
        slot_of = self._slot_of
        loc_ids = self._loc_ids
        return tuple(sorted([loc_ids[slot_of[sid]] for sid in servers]))

    def _diversity_gain(self, replica_servers: Sequence[int],
                        cache_key: Optional[object] = None) -> np.ndarray:
        """Σ_k conf · diversity(s_k, ·) over the replica set, per slot.

        The expensive half of eq. 3 — an O(S) per-level count pass —
        depends only on the replica set, not on the scorer's mutable
        rent state, so callers scoring the same set repeatedly within
        one epoch (every expanding agent of a hot partition, each
        iteration of a §II-C repair chain) can pass a ``cache_key``
        identifying the set and pay for the rows once.  Keys are
        canonicalised to placement classes (:meth:`_class_key`), so
        "the same set" means the same location multiset — however many
        partitions share it.
        """
        if cache_key is not None:
            ckey = self._class_key(replica_servers, cache_key)
            cached = self._gain_cache.get(ckey)
            if cached is not None:
                self.class_gain_reuses += 1
                return cached
        slot_of = self._cloud.slot_map
        div_sum = self._cloud.diversity_sum(
            [slot_of[sid] for sid in replica_servers if sid in slot_of]
        )
        gain = div_sum * self._conf
        if cache_key is not None:
            self._gain_cache[ckey] = gain
        return gain

    def _gain_and_scores(self, replica_servers: Sequence[int],
                         g: Optional[np.ndarray],
                         cache_key: Optional[object]
                         ) -> Tuple[np.ndarray, np.ndarray]:
        gain = self._diversity_gain(replica_servers, cache_key)
        if g is None:
            return gain, gain - self._rent_weight * self._rents
        if len(g) != len(self._ids):
            raise PlacementError(
                f"g has {len(g)} entries for {len(self._ids)} servers"
            )
        return gain, gain * g - self._rent_weight * self._rents

    def best(self, replica_servers: Sequence[int], *,
             need_bytes: int = 0,
             g: Optional[np.ndarray] = None,
             max_rent: Optional[float] = None,
             exclude: Sequence[int] = (),
             budget: Optional[str] = None,
             headroom_fraction: float = 0.0,
             cache_key: Optional[object] = None) -> Optional[Candidate]:
        """Feasible argmax of eq. 3, or None when no server qualifies.

        Excluded are: current replica holders (a server holds at most
        one copy of a partition), dead servers, servers without
        ``need_bytes`` free storage, servers in ``exclude``, and — when
        ``max_rent`` is given (migration hunts for *cheaper* hosts) —
        servers at or above that rent.  With ``budget`` set to
        ``"replication"`` or ``"migration"``, destinations whose
        remaining per-epoch bandwidth budget of that class cannot absorb
        ``need_bytes`` are masked as well — without this, every agent in
        an epoch converges on the same argmax server and all but the
        first two transfers bounce off its budget.

        ``headroom_fraction`` reserves that share of each candidate's
        raw capacity on top of ``need_bytes``: cost-motivated moves
        (migration, economic replication) should not pack a destination
        to the brim, or the next insert there fails immediately.  SLA
        repairs pass 0 — protecting data beats placement hygiene.
        """
        if not 0.0 <= headroom_fraction < 1.0:
            raise PlacementError(
                f"headroom_fraction must be in [0, 1), got "
                f"{headroom_fraction}"
            )
        found = self._ceiling(
            replica_servers, need_bytes, g, max_rent, exclude, budget,
            headroom_fraction,
        )
        if found is _INCONCLUSIVE:
            found = self.scan(
                replica_servers, need_bytes, g, max_rent, exclude, budget,
                headroom_fraction, cache_key,
            )
        return found

    def scan(self, replica_servers: Sequence[int], need_bytes: int = 0,
             g: Optional[np.ndarray] = None,
             max_rent: Optional[float] = None, exclude: Sequence[int] = (),
             budget: Optional[str] = None, headroom_fraction: float = 0.0,
             cache_key: Optional[object] = None) -> Optional[Candidate]:
        """The full O(S) eq. 3 scan: what every shortcut of :meth:`best`
        must equal field for field (and what the tests hold them to)."""
        mask = self.feasible_mask(need_bytes, budget, headroom_fraction)
        if max_rent is not None:
            # The rent cap varies per caller (migration hunts under the
            # agent's own rent), so it stays out of the cached mask.
            mask = mask & (self._rents < max_rent)
        if not mask.any():
            # Budget/storage-exhausted epochs hit this constantly; skip
            # the eq. 3 gain/score work when no server qualifies.
            return None
        gain, scores = self._gain_and_scores(replica_servers, g, cache_key)
        scores = np.where(mask, scores, -np.inf)
        # Knock out current holders / exclusions by slot lookup — the
        # blocked set is a handful of servers, the cloud is hundreds
        # (and the cached mask must stay unmutated).
        slot_of = self._slot_of
        for sid in (*replica_servers, *exclude):
            slot = slot_of.get(sid)
            if slot is not None:
                scores[slot] = -np.inf
        idx = int(np.argmax(scores))
        if not np.isfinite(scores[idx]):
            return None
        return Candidate(
            server_id=self._ids[idx],
            score=float(scores[idx]),
            diversity_gain=float(gain[idx]),
            rent=float(self._rents[idx]),
        )

    def _ceiling(self, replica_servers: Sequence[int], need_bytes: int,
                 g: Optional[np.ndarray], max_rent: Optional[float],
                 exclude: Sequence[int], budget: Optional[str],
                 headroom_fraction: float):
        """The eq. 3 argmax read off the maximum-diversity ceiling.

        A slot on a continent no member of the n-server set B sits on
        scores ``V(j) = ((63n)·conf_j)[·g_j] − w·rent_j`` whatever B is;
        every other slot's diversity sum is at most 63n − 32.  So the
        first-index argmax ``c`` of ``V`` over the feasible off-continent
        slots is the scan's answer while ``V(c)`` strictly beats every
        feasible on-continent slot at that cap, until a release or a
        touch of ``c``, and under any ``exclude`` / ``max_rent`` that
        keeps ``c`` (docs/ARCHITECTURE.md, "ceiling certificate").
        """
        self.ceil_asks += 1
        slot_of, cont_bit = self._slot_of, self._cont_bit
        bits = 0
        for sid in replica_servers:
            slot = slot_of.get(sid)
            if slot is None:
                return _INCONCLUSIVE
            bits |= cont_bit[slot]
        n, n_cont = len(replica_servers), self._n_cont
        if bits + 1 == 1 << n_cont or (
            g is not None and len(g) != len(self._ids)
        ):
            return _INCONCLUSIVE
        key = (need_bytes, budget, headroom_fraction, n, bits,
               id(g) if g is not None else 0)
        tick, slot, found = self._ceil.get(key, (-2, -1, None))
        if self._enable_clock > tick or (
            slot >= 0 and self._touch[slot] > tick
        ):
            # One O(S) build, in the scan's own operation order.
            self.ceil_builds += 1
            mask = self.feasible_mask(need_bytes, budget, headroom_fraction)
            off = np.array(
                [not bits >> c & 1 for c in range(n_cont)]
            )[self._cont]
            gain = (63.0 * n) * self._conf
            capped = (63.0 * n - 32.0) * self._conf
            cost = self._rent_weight * self._rents
            if g is None:
                scores, capped = gain - cost, capped - cost
            else:
                scores, capped = gain * g - cost, capped * g - cost
            scores = np.where(mask & off, scores, -np.inf)
            slot, found = -1, None
            best = int(np.argmax(scores))
            if scores[best] > np.max(
                capped, where=mask & ~off, initial=-np.inf
            ):
                slot, found = best, Candidate(
                    self._ids[best], float(scores[best]),
                    float(gain[best]), float(self._rents[best]),
                )
            self._ceil[key] = (self._touch_clock, slot, found)
        if found is None or found.server_id in exclude or (
            max_rent is not None and not found.rent < max_rent
        ):
            return _INCONCLUSIVE
        self.ceil_proofs += 1
        return found

    def preload_shortlists(self, entries: Sequence) -> None:
        """Retired: the grouped wave-0 top-k shortlists are deleted.

        Kept as a name only because the frozen end-to-end benchmark
        (``benchmarks/e2e/bench_trace.py``) wraps this class attribute
        as the ``core.placement.preload_shortlists`` span site; nothing
        in ``src/`` calls it.  ROADMAP item 2(a) retires the name.
        """

    def feasible_mask(self, need_bytes: int, budget: Optional[str] = None,
                      headroom_fraction: float = 0.0) -> np.ndarray:
        """Alive ∧ storage ∧ budget feasibility, cached per key — exactly
        what :meth:`best` applies before scoring.

        Treat the returned array as read-only: it is shared across
        calls, with single-slot refreshes applied in place as storage
        or budget state moves (:meth:`_refresh_masks`).
        """
        key = (need_bytes, budget, headroom_fraction)
        cached = self._mask_cache.get(key)
        if cached is not None:
            return cached
        mask = self._alive.copy()
        if headroom_fraction > 0.0:
            reserve = (self._capacity * headroom_fraction).astype(np.int64)
            mask &= self._storage >= need_bytes + reserve
        else:
            mask &= self._storage >= need_bytes
        if budget is not None:
            mask &= self._budget_headroom(budget) >= need_bytes
        self._mask_cache[key] = mask
        return mask

    def _budget_headroom(self, kind: str) -> np.ndarray:
        """Remaining per-epoch bandwidth of every server, slot order.

        Built once per scorer (i.e. per epoch) and then maintained
        incrementally via :meth:`consume_budget` as transfers complete,
        which is what spreads simultaneous placements over distinct
        destinations without rescanning the cloud on every call.
        """
        cached = self._headroom.get(kind)
        if cached is not None:
            return cached
        if kind not in ("replication", "migration"):
            raise PlacementError(f"unknown budget kind {kind!r}")
        # One column-pair subtraction off the cloud's ServerTable —
        # values identical to the per-server budget walk.
        arr = self._cloud.budget_available_vector(kind)
        self._headroom[kind] = arr
        return arr

    def rent_floor(self, need_bytes: int, budget: Optional[str],
                   headroom_fraction: float, bump_bytes: int = 0,
                   fresh: bool = False) -> float:
        """Lower bound of ``rent + Δc(bump_bytes)`` over feasible slots.

        The bound is over the slots of the cached feasibility mask of
        ``(need_bytes, budget, headroom_fraction)`` — exactly what
        :meth:`best` scans — and ``+inf`` when that mask is empty.  It
        is stored with the touch clock it was computed at and rides the
        scorer's monotonicity contract (docs/ARCHITECTURE.md): rents
        only rise and masks only shrink, so the minimum can only grow,
        *except* through :meth:`release_storage`, which stamps the
        enable clock.  A stored value therefore stays a valid (possibly
        slack) bound while no release happened since; ``fresh=True``
        insists on the exact current minimum.  Nothing is maintained
        per transfer: a query is a dict hit, a recompute one masked
        ``min``.

        Float soundness: the vector ``rents + bumps`` is, per slot, the
        very addition ``candidate.rent + anticipated_rent_bump(...)``
        performs (the bump vector uses that method's operation order),
        and fp addition is monotone, so ``floor + c <= (rent_s +
        bump_s) + c`` for every slot ``s`` the scan could return — the
        bound never exceeds a true value by an ulp.
        """
        key = (need_bytes, budget, headroom_fraction, bump_bytes)
        hit = self._floors.get(key)
        clock = self._touch_clock
        if hit is not None and (
            hit[0] == clock
            or (not fresh and self._enable_clock <= hit[0])
        ):
            return hit[1]
        mask = self.feasible_mask(need_bytes, budget, headroom_fraction)
        rents = self._rents
        if bump_bytes:
            bumps = self._bumps.get(bump_bytes)
            if bumps is None:
                bumps = (
                    self._usage_price * self._storage_alpha * bump_bytes
                    / self._capacity
                )
                self._bumps[bump_bytes] = bumps
            rents = rents + bumps
        value = float(np.min(rents, where=mask, initial=np.inf))
        self._floors[key] = (clock, value)
        return value

    def no_cheaper_host(self, rent_cap: float, need_bytes: int,
                        budget: Optional[str],
                        headroom_fraction: float) -> bool:
        """Proof that ``best(max_rent=rent_cap, …)`` would return None.

        ``rent_cap <= floor`` leaves ``mask ∧ (rents < rent_cap)``
        empty whatever the replica set, exclusions or proximity vector
        are.  The (possibly stale) stored bound is tried first; only
        when it fails is the exact minimum consulted.
        """
        self.floor_asks += 1
        for fresh in (False, True):
            if rent_cap <= self.rent_floor(
                need_bytes, budget, headroom_fraction, fresh=fresh
            ):
                self.floor_proofs += 1
                return True
        return False

    def cheaper_host_exists(self, rent_cap: float, need_bytes: int,
                            budget: Optional[str],
                            headroom_fraction: float,
                            holders: Sequence[int]) -> bool:
        """Whether ``best(max_rent=rent_cap, …)`` would find a candidate:
        some feasible slot that is no holder (replicas plus exclusions)
        is priced under the cap.  One masked ``min``, no scoring."""
        ok = self.feasible_mask(need_bytes, budget, headroom_fraction).copy()
        ok[[self._slot(sid) for sid in holders]] = False
        return bool(np.min(self._rents, where=ok, initial=np.inf) < rent_cap)

    def no_fundable_host(self, utility: float, extra_cost: float,
                         need_bytes: int, budget: Optional[str],
                         headroom_fraction: float) -> bool:
        """Proof that no feasible host's predicted rent can be funded.

        ``utility < floor(rent + Δc(need_bytes)) + extra_cost`` means
        either no slot is feasible (:meth:`best` returns None) or every
        candidate the eq. 3 argmax could return fails the §II-C funding
        test ``utility < rent + Δc + extra_cost`` — same outcome,
        none of the scoring.  Stale bound first, exact on failure.
        """
        self.floor_asks += 1
        for fresh in (False, True):
            if utility < self.rent_floor(
                need_bytes, budget, headroom_fraction, need_bytes, fresh
            ) + extra_cost:
                self.floor_proofs += 1
                return True
        return False

    def anticipated_rent_bump(self, server_id: int, nbytes: int) -> float:
        """Eq. 1 rent increase ``nbytes`` would cause at a destination.

        ``Δc = up · α · nbytes / capacity`` — the storage term of the
        price function evaluated for the incoming replica's bytes.
        """
        idx = self._slot(server_id)
        return float(
            self._usage_price[idx]
            * self._storage_alpha
            * nbytes
            / self._capacity[idx]
        )

    def consume_budget(self, server_id: int, nbytes: int, kind: str) -> None:
        """Mirror a completed transfer into the cached headroom/storage.

        The caller (decision engine) invokes this for the destination of
        every successful transfer so later placements within the same
        epoch see the reduced budget and storage — and a correspondingly
        *higher* anticipated rent, which is what disperses simultaneous
        placements instead of herding them onto one argmax server.
        """
        idx = self._slot(server_id)
        headroom = self._headroom.get(kind)
        if headroom is not None:
            headroom[idx] = max(headroom[idx] - nbytes, 0)
        self._storage[idx] = max(self._storage[idx] - nbytes, 0)
        self._rents[idx] += self.anticipated_rent_bump(server_id, nbytes)
        self._refresh_masks(idx)
        self._touch_clock += 1
        self._touch[idx] = self._touch_clock

    def release_storage(self, server_id: int, nbytes: int) -> None:
        """Mirror freed bytes (migration source, suicide) into the cache."""
        idx = self._slot(server_id)
        self._storage[idx] += nbytes
        self._refresh_masks(idx)
        # Freed storage can *re-enable* masked candidates — the one
        # event that breaks the only-gets-worse monotonicity every
        # ceiling certificate and rent floor relies on.
        self._touch_clock += 1
        self._touch[idx] = self._touch_clock
        self._enable_clock = self._touch_clock

    def _refresh_masks(self, idx: int) -> None:
        """Re-derive slot ``idx`` of every cached feasibility mask.

        A transfer only moves one destination's (or source's) storage
        and budget state, so the cached masks stay valid everywhere
        else; each entry is recomputed with exactly the expressions
        :meth:`feasible_mask` evaluated — O(cached masks) per transfer
        instead of an O(S) rebuild per later ``best`` call.
        """
        storage = int(self._storage[idx])
        alive = bool(self._alive[idx])
        for (need, budget, headroom_fraction), mask in (
            self._mask_cache.items()
        ):
            ok = alive
            if ok:
                if headroom_fraction > 0.0:
                    reserve = np.int64(
                        self._capacity[idx] * headroom_fraction
                    )
                    ok = storage >= need + reserve
                else:
                    ok = storage >= need
            if ok and budget is not None:
                # The mask's construction built this headroom vector.
                ok = bool(self._headroom[budget][idx] >= need)
            mask[idx] = ok

    def _slot(self, server_id: int) -> int:
        try:
            return self._slot_of[server_id]
        except KeyError:
            raise PlacementError(f"unknown server {server_id}") from None
