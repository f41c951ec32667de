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
from repro.core.economy import DEFAULT_EPOCHS_PER_MONTH
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
                 storage_alpha: float = 1.0,
                 alive_override: Optional[np.ndarray] = None) -> None:
        if storage_alpha < 0:
            raise PlacementError(
                f"storage_alpha must be >= 0, got {storage_alpha}"
            )
        self._cloud = cloud
        self._ids: List[int] = cloud.server_ids
        self._slot_of: Dict[int, int] = {
            sid: i for i, sid in enumerate(self._ids)
        }
        # Posted rents, bumped in place by every queued transfer: eq. 3's
        # cost term for the scan and the ceiling build.
        self._rents = board.price_vector(self._ids)
        self._conf = cloud.confidence_vector()
        self._storage = cloud.storage_available_vector()
        self._capacity = cloud.capacity_vector()
        # One array op, bit-identical to eq. 1's per-server ``up``.
        self._usage_price = (
            cloud.monthly_rent_vector() / float(DEFAULT_EPOCHS_PER_MONTH)
        )
        # ``alive_override`` is the faulty-network *believed* column:
        # believed-dead candidates are infeasible, ghosts stay targetable
        # until detected (the transfer engine then refuses the copy).
        self._alive = (
            alive_override if alive_override is not None
            else cloud.alive_vector()
        )
        self._storage_alpha = storage_alpha
        self._headroom: Dict[str, np.ndarray] = {}
        self._gain_cache: Dict[object, np.ndarray] = {}
        # The gain cache is keyed by placement class (:meth:`_class_key`):
        # eq. 3's gain depends only on the replica set's locations, and
        # diversity sums are exact small-integer float64 vectors, so
        # sets sharing a location multiset share one row bit-identically.
        self._class_keys: Dict[object, object] = {}
        self._loc_ids: List[int] = cloud.location_ids().tolist()
        self.class_gain_reuses = 0
        # Feasibility masks per (need_bytes, budget kind, headroom): a
        # transfer re-derives only its slot in each (:meth:`_refresh_masks`).
        self._mask_cache: Dict[
            Tuple[int, Optional[str], float], np.ndarray
        ] = {}
        # The monotonicity contract's clocks (docs/ARCHITECTURE.md):
        # rents only rise and masks only shrink, except through
        # :meth:`release_storage`.  ``_touch`` is each slot's last
        # mutation tick, ``_enable_clock`` the last release's, and
        # ``_released`` every release as ``(tick, slot)``.
        self._touch = np.full(len(self._ids), -1, dtype=np.int64)
        self._touch_clock = 0
        self._enable_clock = -1
        self._released: List[Tuple[int, int]] = []
        # Clocked floors (:meth:`rent_floor`) per (feasibility key, bump
        # bytes), their eq. 1 bump vectors, and skip queries / proofs.
        self._floors: Dict[
            Tuple[int, Optional[str], float, int], Tuple[int, float]
        ] = {}
        self._bumps: Dict[int, np.ndarray] = {}
        self.floor_asks = 0
        self.floor_proofs = 0
        # Ceiling certificates (:meth:`_ceiling`): ``(tick, slot, winner)``
        # per (feasibility key, |B|, B's continents, g), slot -1 refused;
        # counted as queries / answers, and O(S) entry builds by cause:
        # a key's first use, its winner touched, a release threatening it.
        self._cont = cloud.continent_ids()
        self._cont_l = self._cont.tolist()
        self._n_cont = int(self._cont.max(initial=-1)) + 1
        self._conf_max = float(self._conf.max(initial=0.0))
        # Per continent c present in some B: the slots off c.
        self._not_on: Dict[int, np.ndarray] = {}
        self._ceil: Dict[tuple, Tuple[int, int, Optional[Candidate]]] = {}
        self.ceil_asks = self.ceil_proofs = 0
        self.ceil_builds_first = self.ceil_builds_winner = 0
        self.ceil_builds_release = 0

    @property
    def ceil_builds(self) -> int:
        """Every O(S) certificate build, whatever caused it."""
        return (self.ceil_builds_first + self.ceil_builds_winner
                + self.ceil_builds_release)

    @property
    def server_ids(self) -> List[int]:
        return list(self._ids)

    def _class_key(self, replica_servers: Sequence[int],
                   cache_key: object) -> object:
        """The replica set's placement-class key, memoised per cache_key:
        ``("cls", sorted location ids)``, or the private ``("raw",
        cache_key)`` when the set holds a server the scorer's cloud no
        longer knows.  Sound because every ``cache_key`` the engine
        mints embeds the replica tuple itself."""
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
        """Sorted level-5 prefix codes of ``servers`` (equal ⇔ equal
        locations): a location-multiset key."""
        slot_of = self._slot_of
        loc_ids = self._loc_ids
        return tuple(sorted([loc_ids[slot_of[sid]] for sid in servers]))

    def _diversity_gain(self, replica_servers: Sequence[int],
                        cache_key: Optional[object] = None) -> np.ndarray:
        """Σ_k conf · diversity(s_k, ·) over the replica set, per slot.

        The O(S) half of eq. 3 depends only on the replica set, so a
        caller scoring one set repeatedly in an epoch passes a
        ``cache_key`` and pays once per placement class.
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
            return gain, gain - self._rents
        if len(g) != len(self._ids):
            raise PlacementError(
                f"g has {len(g)} entries for {len(self._ids)} servers"
            )
        return gain, gain * g - self._rents

    def best(self, replica_servers: Sequence[int], *,
             need_bytes: int = 0,
             g: Optional[np.ndarray] = None,
             max_rent: Optional[float] = None,
             exclude: Sequence[int] = (),
             budget: Optional[str] = None,
             headroom_fraction: float = 0.0,
             cache_key: Optional[object] = None) -> Optional[Candidate]:
        """Feasible argmax of eq. 3, or None when no server qualifies.

        Excluded are: current replica holders, dead servers, servers
        without ``need_bytes`` free storage, servers in ``exclude``, with
        ``max_rent`` (migration hunts) servers at or above that rent,
        and with ``budget`` (``"replication"`` / ``"migration"``)
        servers whose remaining budget of that class cannot absorb
        ``need_bytes`` — else every agent herds onto one argmax server.
        ``headroom_fraction`` reserves that share of each candidate's
        capacity on top (cost-motivated moves; SLA repairs pass 0).
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
            # Per-caller rent cap: kept out of the cached mask.
            mask = mask & (self._rents < max_rent)
        if not mask.any():
            return None
        gain, scores = self._gain_and_scores(replica_servers, g, cache_key)
        scores = np.where(mask, scores, -np.inf)
        # Knock out holders / exclusions (the cached mask stays as is).
        slot_of = self._slot_of
        for sid in (*replica_servers, *exclude):
            slot = slot_of.get(sid)
            if slot is not None:
                scores[slot] = -np.inf
        idx = int(scores.argmax())
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
        scores ``V(j) = ((63n)·conf_j)[·g_j] − rent_j`` whatever B is;
        every other slot's diversity sum is at most 63n − 32.  So the
        first-index argmax ``c`` of ``V`` over the feasible off-continent
        slots is the scan's answer while ``V(c)`` strictly beats every
        feasible on-continent slot at that cap, until a touch of ``c`` or
        a release that lets a slot overtake it, and under any ``exclude``
        / ``max_rent`` that keeps ``c`` (docs/ARCHITECTURE.md, "ceiling
        certificate").
        """
        self.ceil_asks += 1
        slot_of, cont = self._slot_of, self._cont_l
        bits = 0
        for sid in replica_servers:
            slot = slot_of.get(sid)
            if slot is None:
                return _INCONCLUSIVE
            bits |= 1 << cont[slot]
        n = len(replica_servers)
        if bits + 1 == 1 << self._n_cont or (
            g is not None and len(g) != len(self._ids)
        ):
            return _INCONCLUSIVE
        key = (need_bytes, budget, headroom_fraction, n, bits,
               id(g) if g is not None else 0)
        entry = self._ceil.get(key)
        if entry is None:
            self.ceil_builds_first += 1
            found = self._build_ceiling(key, g)
        else:
            tick, slot, found = entry
            if slot >= 0 and self._touch[slot] > tick:
                self.ceil_builds_winner += 1
                found = self._build_ceiling(key, g)
            elif self._enable_clock > tick:
                if self._released_threat(key, g, tick, slot, found):
                    self.ceil_builds_release += 1
                    found = self._build_ceiling(key, g)
                else:
                    # What a build would find now: restamp the entry.
                    self._ceil[key] = (self._touch_clock, slot, found)
        if found is None or found.server_id in exclude or (
            max_rent is not None and not found.rent < max_rent
        ):
            return _INCONCLUSIVE
        self.ceil_proofs += 1
        return found

    def _build_ceiling(self, key: tuple,
                       g: Optional[np.ndarray]) -> Optional[Candidate]:
        """One O(S) certificate build, in the scan's own operation order."""
        need_bytes, budget, headroom_fraction, n, bits = key[:5]
        mask = self.feasible_mask(need_bytes, budget, headroom_fraction)
        off = mask  # → the feasible slots on no continent of B
        for c in range(self._n_cont):
            if bits >> c & 1:
                not_c = self._not_on.get(c)
                if not_c is None:
                    not_c = self._not_on[c] = self._cont != c
                off = off & not_c
        gain = (63.0 * n) * self._conf
        # Every capped score is at most ``cap − min(rent)``: fp multiply
        # and subtract are monotone on the non-negative conf and g.
        cap = (63.0 * n - 32.0) * self._conf_max
        if g is not None:
            gain, cap = gain * g, cap * float(g.max(initial=0.0))
        # Masked reductions as fills: ``where=`` reductions cost more.
        rents = self._rents
        scores = np.where(off, gain - rents, -np.inf)
        slot, found = -1, None
        best = int(scores.argmax())
        top = scores[best]
        if top > cap - rents.min(initial=np.inf) or top > self._capped(
            n, g, mask & ~off
        ):
            slot, found = best, Candidate(
                self._ids[best], float(top),
                float((63.0 * n) * self._conf[best]),
                float(rents[best]),
            )
        self._ceil[key] = (self._touch_clock, slot, found)
        return found

    def _capped(self, n: int, g: Optional[np.ndarray],
                where: np.ndarray) -> float:
        """Max over ``where`` of ``((63n − 32)·conf)[·g] − rent``."""
        capped = (63.0 * n - 32.0) * self._conf
        if g is not None:
            capped = capped * g
        return np.where(where, capped - self._rents, -np.inf).max(
            initial=-np.inf
        )

    def _released_threat(self, key: tuple, g: Optional[np.ndarray],
                         tick: int, slot: int,
                         found: Optional[Candidate]) -> bool:
        """Whether a release since ``tick`` can change the entry's build.

        A refused entry always rebuilds (a re-enabled slot may certify
        it).  A certified one is safe from every released slot that is
        infeasible now, or scores — with the build's own expressions —
        below ``V(c)`` (off-continent: or ties it at a higher index) or,
        capped, strictly below ``V(c)`` (on-continent).
        """
        if slot < 0:
            return True
        need_bytes, budget, headroom_fraction, n, bits = key[:5]
        mask = self.feasible_mask(need_bytes, budget, headroom_fraction)
        cont, conf, rents = self._cont_l, self._conf, self._rents
        score = found.score
        for at, r in reversed(self._released):
            if at <= tick:
                return False
            if not mask[r]:
                continue
            off = not bits >> cont[r] & 1
            v = (63.0 * n if off else 63.0 * n - 32.0) * conf[r]
            if g is not None:
                v = v * g[r]
            v = v - rents[r]
            if v > score or v == score and (not off or r < slot):
                return True
        return False

    def preload_shortlists(self, entries: Sequence) -> None:
        """Retired: a name only, wrapped as a span site by the frozen
        ``benchmarks/e2e/bench_trace.py``; nothing in ``src/`` calls it.
        ROADMAP item 2(a) retires the name."""

    def feasible_mask(self, need_bytes: int, budget: Optional[str] = None,
                      headroom_fraction: float = 0.0) -> np.ndarray:
        """Alive ∧ storage ∧ budget feasibility, cached per key — exactly
        what :meth:`best` applies before scoring.  Read-only: shared,
        and refreshed in place (:meth:`_refresh_masks`)."""
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
        """Remaining per-epoch bandwidth per slot: built once per scorer
        off the cloud's table, then debited by :meth:`consume_budget`."""
        cached = self._headroom.get(kind)
        if cached is not None:
            return cached
        if kind not in ("replication", "migration"):
            raise PlacementError(f"unknown budget kind {kind!r}")
        arr = self._cloud.budget_available_vector(kind)
        self._headroom[kind] = arr
        return arr

    def rent_floor(self, need_bytes: int, budget: Optional[str],
                   headroom_fraction: float, bump_bytes: int = 0,
                   fresh: bool = False) -> float:
        """Lower bound of ``rent + Δc(bump_bytes)`` over feasible slots.

        Over the cached feasibility mask's slots (``+inf`` if none),
        stored with its touch clock: rents only rise and masks only
        shrink except through :meth:`release_storage`, so a stored value
        stays a valid (possibly slack) bound while no release happened
        since; ``fresh=True`` insists on the exact current minimum.
        ``rents + bumps`` is per slot the very addition
        ``candidate.rent + anticipated_rent_bump(...)`` performs, and fp
        addition is monotone, so the bound is sound to the ulp.
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
        value = float(np.where(mask, rents, np.inf).min())
        self._floors[key] = (clock, value)
        return value

    def no_cheaper_host(self, rent_cap: float, need_bytes: int,
                        budget: Optional[str],
                        headroom_fraction: float, asks: int = 1) -> bool:
        """Proof that ``best(max_rent=rent_cap, …)`` would return None:
        ``rent_cap <= floor`` (stale bound first, exact on failure).
        Counts ``asks`` skip queries, and as many proofs on success."""
        self.floor_asks += asks
        for fresh in (False, True):
            if rent_cap <= self.rent_floor(
                need_bytes, budget, headroom_fraction, fresh=fresh
            ):
                self.floor_proofs += asks
                return True
        return False

    def cheaper_host_exists(self, rent_cap: float, need_bytes: int,
                            budget: Optional[str],
                            headroom_fraction: float,
                            holders: Sequence[int]) -> bool:
        """Whether ``best(max_rent=rent_cap, …)`` would find a candidate:
        some feasible slot that is no holder (replicas plus exclusions)
        is priced under the cap.  One masked ``min``, no scoring, and
        no copy of the cached mask."""
        rents = np.where(
            self.feasible_mask(need_bytes, budget, headroom_fraction),
            self._rents, np.inf,
        )
        rents[[self._slot(sid) for sid in holders]] = np.inf
        return bool(rents.min() < rent_cap)

    def no_fundable_host(self, utility: float, extra_cost: float,
                         need_bytes: int, budget: Optional[str],
                         headroom_fraction: float, asks: int = 1) -> bool:
        """Proof that no feasible host's predicted rent can be funded:
        ``utility < floor(rent + Δc(need_bytes)) + extra_cost`` fails
        the §II-C funding test for every candidate, or there is none.
        Stale bound first, exact on failure; ``asks`` as above."""
        self.floor_asks += asks
        for fresh in (False, True):
            if utility < self.rent_floor(
                need_bytes, budget, headroom_fraction, need_bytes, fresh
            ) + extra_cost:
                self.floor_proofs += asks
                return True
        return False

    def anticipated_rent_bump(self, server_id: int, nbytes: int) -> float:
        """Eq. 1 rent increase ``nbytes`` would cause at a destination.

        ``Δc = up · α · nbytes / capacity`` — the storage term of the
        price function evaluated for the incoming replica's bytes.
        """
        idx = self._slot(server_id)
        return float(self._usage_price[idx] * self._storage_alpha * nbytes
                     / self._capacity[idx])

    def consume_budget(self, server_id: int, nbytes: int, kind: str) -> None:
        """Mirror a queued transfer's destination into the scorer: less
        budget and storage, and a higher anticipated rent, which is what
        disperses simultaneous placements.  One slot, in place."""
        idx = self._slot(server_id)
        headroom = self._headroom.get(kind)
        if headroom is not None:
            headroom[idx] = max(headroom[idx] - nbytes, 0)
        storage = self._storage
        storage[idx] = max(storage[idx] - nbytes, 0)
        # anticipated_rent_bump's expression, inlined.
        self._rents[idx] += float(
            self._usage_price[idx] * self._storage_alpha * nbytes
            / self._capacity[idx]
        )
        self._refresh_masks(idx)

    def release_storage(self, server_id: int, nbytes: int) -> None:
        """Mirror freed bytes (migration source, suicide) into the cache.

        Freed storage can *re-enable* masked candidates — the one event
        that breaks the only-gets-worse monotonicity every ceiling
        certificate and rent floor relies on — so it is logged.
        """
        idx = self._slot(server_id)
        self._storage[idx] += nbytes
        self._refresh_masks(idx)
        self._enable_clock = self._touch_clock
        self._released.append((self._touch_clock, idx))

    def _refresh_masks(self, idx: int) -> None:
        """Re-derive slot ``idx`` of every cached mask with
        :meth:`feasible_mask`'s expressions, and stamp its touch."""
        storage = int(self._storage[idx])
        alive = bool(self._alive[idx])
        capacity = int(self._capacity[idx])
        rooms = {kind: int(v[idx]) for kind, v in self._headroom.items()}
        for (need, budget, headroom_fraction), mask in (
            self._mask_cache.items()
        ):
            # ``int`` truncates like the mask build's ``astype``.
            reserve = (
                int(capacity * headroom_fraction)
                if headroom_fraction > 0.0 else 0
            )
            mask[idx] = alive and storage >= need + reserve and (
                budget is None or rooms[budget] >= need
            )
        self._touch_clock += 1
        self._touch[idx] = self._touch_clock

    def _slot(self, server_id: int) -> int:
        try:
            return self._slot_of[server_id]
        except KeyError:
            raise PlacementError(f"unknown server {server_id}") from None
