"""Message-count-accurate gossip fabrics over the faulty network.

Two implementations of the same surface:

* :class:`GossipFabric` ("full") — a per-observer age matrix
  (observer × subject, int32 rounds-since-heard).  Heartbeat and price
  rounds run through one round kernel that still models every push as
  a message — drawn targets, liveness and reachability, loss roll,
  delayed unknown-aware min-merge — but pays for what a round shares
  (link state, candidate lists, counters) once per round.  Membership
  verdicts (believed dead, false suspects, staleness) are read from
  the *board observer's* row — the lowest physically-live registered
  id, i.e. the election winner, which costs zero extra messages
  because every node derives it from its own view.  O(N²) state,
  capped at :data:`~repro.net.model.FULL_FABRIC_MAX_NODES` nodes.

* :class:`CountingFabric` ("counting") — no per-pair state.  Message
  counts are sampled push-for-push (binomial draws over the same
  target distribution), so totals match the full fabric in
  distribution, but membership and price verdicts are *oracle*
  (detection after ``ceil(dead_rounds / rounds_per_epoch)`` epochs,
  prices current).  This is what makes the 100× control-plane
  overhead row measurable at all; PERFORMANCE.md says so explicitly.

Both fabrics draw every random choice from the ``gossip`` seed
stream, so faulty-network runs reproduce from one ``SimConfig.seed``.

**The full fabric's draw-order contract.**  Every golden, named digest
and benchmark counter of a faulty-net run depends on the kernel
replaying these three clauses draw for draw; they are why its sender
loop is sequential and must not be batched across senders
(``tests/net/test_fabric_differential.py`` holds the per-message loop
it replaced as the oracle, generator states included):

1. ``gossip`` stream — one ``choice(len(cand), size=k, replace=False)``
   per live sender turn, senders in ascending row order, where
   ``cand`` is the sender's known subjects minus itself *as of that
   turn* (a push delivered earlier in the same round may have taught
   it a member) and ``k = min(fanout, len(cand))``; a sender with no
   candidate draws nothing.  When ``delay_max > 0`` each *delivered*
   heartbeat also draws one ``integers(delay_max + 1)``, right after
   its loss roll and before its merge.
2. ``net`` stream — one ``NetworkModel.lost()`` roll per push that
   survived the liveness and reachability checks, in push order
   (sender row, then target row ascending); none when ``loss == 0``.
3. Merges and version bumps apply in that same push order, in place:
   a row updated by one push is what the next push from that row
   carries, because in-round multi-hop propagation is behaviour.
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.topology import Cloud
from repro.net.model import (
    FULL_FABRIC_MAX_NODES,
    HEARTBEAT,
    LOST_LIVE_NODE,
    NEW_NODE,
    PRICE,
    LinkState,
    NetConfig,
    NetError,
    NetworkModel,
)

#: Sentinel age for "observer has never heard of this subject".
UNKNOWN_AGE = -1

#: The same sentinel read through an unsigned view of the int32 age
#: matrix: the largest value there is, so one ``np.minimum`` over two
#: viewed rows *is* the unknown-aware merge — learn what the receiver
#: did not know, keep the fresher of what both know, ignore what the
#: sender does not know.
_UNKNOWN_U32 = np.uint32(UNKNOWN_AGE & 0xFFFFFFFF)


def _unreachable_from(row: int, down: np.ndarray,
                      link: LinkState) -> np.ndarray:
    """Target rows a push from ``row`` cannot connect to this round.

    ``link`` is :meth:`NetworkModel.link_state` over the registered
    rows; ``down`` marks the physically dead ones.
    """
    flapped, cuts = link
    if flapped[row]:
        return np.ones_like(down)
    out = down | flapped
    for in_a, asymmetric in cuts:
        if not in_a[row]:
            out |= in_a  # B→A always drops
        elif not asymmetric:
            out |= ~in_a
    return out


class GossipFabric:
    """Full-state push gossip: one age row per registered server."""

    def __init__(self, config: NetConfig, net: NetworkModel,
                 cloud: Cloud, rng: np.random.Generator) -> None:
        self._config = config
        self._net = net
        self._cloud = cloud
        self._rng = rng
        self._ids: List[int] = []
        self._row: Dict[int, int] = {}
        self._age = np.zeros((0, 0), dtype=np.int32)
        self._ver = np.zeros(0, dtype=np.int64)
        self._pending_bootstrap: List[int] = []
        # Per observer row: how many subjects it has never heard of,
        # and its cached push candidates (None = rebuild on next turn).
        self._unknown: List[int] = []
        self._cand: List[Optional[List[int]]] = []

    # -- registration ------------------------------------------------------

    def _check_capacity(self, n: int) -> None:
        if n > FULL_FABRIC_MAX_NODES:
            raise NetError(
                f"full fabric capped at {FULL_FABRIC_MAX_NODES} nodes "
                f"(requested {n}); use NetConfig(fabric='counting')"
            )

    def _rows_changed(self) -> None:
        """Registration re-shaped the matrix: recount, drop candidates."""
        self._unknown = np.count_nonzero(self._age < 0, axis=1).tolist()
        self._cand = [None] * len(self._ids)

    def register_initial(self, server_ids: List[int]) -> None:
        """Bootstrap a converged membership (everyone knows everyone)."""
        self._check_capacity(len(server_ids))
        self._ids = list(server_ids)
        self._row = {sid: i for i, sid in enumerate(self._ids)}
        n = len(self._ids)
        self._age = np.zeros((n, n), dtype=np.int32)
        self._ver = np.full(n, -1, dtype=np.int64)
        self._rows_changed()

    def register_join(self, sid: int) -> None:
        """A new server joins: known to itself, learned epidemically.

        The joiner bootstraps by contacting the board observer (one
        NEW_NODE each way: the joiner announces itself, the board
        returns its membership snapshot).  If the contact is currently
        unreachable it is retried every round until it lands.
        """
        if sid in self._row:
            return
        n = len(self._ids)
        self._check_capacity(n + 1)
        # Exact-size rebuild: joins arrive in rare event batches, so a
        # fresh (n+1)² copy per join beats keeping doubling slack.
        age = np.full((n + 1, n + 1), UNKNOWN_AGE, dtype=np.int32)
        age[:n, :n] = self._age
        age[n, n] = 0
        self._age = age
        ver = np.full(n + 1, -1, dtype=np.int64)
        ver[:n] = self._ver
        self._ver = ver
        self._row[sid] = n
        self._ids.append(sid)
        self._rows_changed()
        self._pending_bootstrap.append(sid)
        self._attempt_bootstrap(sid)

    def unregister(self, sid: int) -> None:
        """Remove a detected-dead server's row/column entirely."""
        row = self._row.pop(sid, None)
        if row is None:
            return
        self._age = np.delete(np.delete(self._age, row, 0), row, 1)
        self._ver = np.delete(self._ver, row)
        self._ids.pop(row)
        self._row = {s: i for i, s in enumerate(self._ids)}
        self._rows_changed()
        if sid in self._pending_bootstrap:
            self._pending_bootstrap.remove(sid)

    # -- helpers -----------------------------------------------------------

    def _alive_rows(self) -> np.ndarray:
        """Physical liveness per registered row, read at call time.

        One gather on the cloud's alive column (kills and joins land
        between rounds, so nothing here outlives the call); a
        registered id the cloud no longer holds reads as down.
        """
        slot_of = self._cloud.slot_map
        slots = np.array(
            [slot_of.get(sid, -1) for sid in self._ids], dtype=np.intp
        )
        return np.append(self._cloud.alive_vector(), False)[slots]

    def _board_row(self, alive: Optional[np.ndarray] = None
                   ) -> Optional[int]:
        if alive is None:
            alive = self._alive_rows()
        sid = min(compress(self._ids, alive.tolist()), default=None)
        return None if sid is None else self._row[sid]

    def board_observer(self) -> Optional[int]:
        """The election winner: lowest physically-live registered id.

        Derived by every node from its own view at zero message cost
        (the ELECTION code never increments — by construction).
        """
        row = self._board_row()
        return None if row is None else self._ids[row]

    def _learned(self, row: int) -> int:
        """``row`` may have learned members: recount, drop its candidates.

        Returns how many subjects it learned since the last count.
        """
        still = int(np.count_nonzero(self._age[row] < 0))
        learned = self._unknown[row] - still
        if learned:
            self._unknown[row] = still
            self._cand[row] = None
        return learned

    def _attempt_bootstrap(self, sid: int) -> bool:
        board = self.board_observer()
        if board is None or board == sid:
            self._pending_bootstrap = [
                s for s in self._pending_bootstrap if s != sid
            ]
            return True
        stats = self._net.stats
        stats.record(NEW_NODE, sent=2)
        if not self._net.reachable(sid, board):
            stats.record(NEW_NODE, dropped_partition=2)
            return False
        if self._config.loss and self._net.lost():
            stats.record(NEW_NODE, dropped_loss=2)
            return False
        stats.record(NEW_NODE, delivered=2)
        i, b = self._row[sid], self._row[board]
        self._age[b, i] = 0
        # Membership snapshot: the joiner adopts the board's view.
        views = self._age.view(np.uint32)
        np.minimum(views[i], views[b], out=views[i])
        self._age[i, i] = 0
        self._learned(i)
        self._learned(b)
        self._ver[i] = max(self._ver[i], self._ver[b])
        self._pending_bootstrap = [
            s for s in self._pending_bootstrap if s != sid
        ]
        return True

    def _candidates(self, observer_row: int) -> List[int]:
        # Candidates are every *known* subject, dead-believed included
        # (SWIM-style): if declared-dead peers were never probed again,
        # two sides of a healed partition — each believing the other
        # dead — would never exchange another message and the split
        # brain would be permanent.  Pushes addressed to a host that is
        # physically down simply drop (counted as partition drops), so
        # real ghosts still age out and are unregistered on detection.
        cand = np.flatnonzero(self._age[observer_row] >= 0).tolist()
        cand.remove(observer_row)
        self._cand[observer_row] = cand
        return cand

    # -- rounds ------------------------------------------------------------

    def membership_round(self) -> None:
        """One heartbeat round: age, refresh self, push fanout views."""
        age = self._age
        age += age >= 0
        alive = self._alive_rows()
        live = np.flatnonzero(alive)
        age[live, live] = 0
        for sid in list(self._pending_bootstrap):
            self._attempt_bootstrap(sid)
        self._round(HEARTBEAT, alive)

    def price_round(self) -> None:
        """One price-dissemination round: versions ride fanout pushes."""
        self._round(PRICE, self._alive_rows())

    def _round(self, code: str, alive: np.ndarray) -> None:
        """The round kernel both message codes share (one push loop).

        Everything that is the same for every push of the round is
        built once — liveness and link columns, row views, bound
        methods — and the outcome counters are local, so a push costs
        one list lookup, at most one loss roll and, when delivered, one
        ufunc.  The loop itself stays sequential and in (sender row,
        target row) order: see the draw-order contract in the module
        docstring.
        """
        heartbeat = code == HEARTBEAT
        config = self._config
        fanout = config.fanout
        loss = config.loss
        delay_max = config.delay_max if heartbeat else 0
        choice = self._rng.choice
        integers = self._rng.integers
        lost = self._net.lost
        candidates = self._cand
        learned_by = self._learned
        unknown = self._unknown
        link = self._net.link_state(self._ids)
        down = ~alive
        # With no cut or flap active a push can only fail to connect
        # because its target is down: every sender shares one column.
        blocked = down.tolist()
        views = list(self._age.view(np.uint32))
        ver = self._ver.tolist()
        sent = delivered = dropped_loss = dropped_partition = learned = 0
        for i in np.flatnonzero(alive).tolist():
            if not heartbeat and ver[i] < 0:
                continue
            cand = candidates[i]
            if cand is None:
                cand = self._candidates(i)
            if not cand:
                continue
            k = min(fanout, len(cand))
            picks = choice(len(cand), size=k, replace=False).tolist()
            sent += k
            if link is not None:
                blocked = _unreachable_from(i, down, link).tolist()
            for j in sorted([cand[p] for p in picks]):
                if blocked[j]:
                    dropped_partition += 1
                    continue
                if loss and lost():
                    dropped_loss += 1
                    continue
                delivered += 1
                if not heartbeat:
                    if ver[i] > ver[j]:
                        ver[j] = ver[i]
                    continue
                incoming = views[i]
                if delay_max:
                    d = int(integers(delay_max + 1))
                    if d:
                        # Age a copy; the unknown sentinel stays put.
                        incoming = np.where(
                            incoming == _UNKNOWN_U32,
                            incoming, incoming + np.uint32(d),
                        )
                np.minimum(views[j], incoming, out=views[j])
                if unknown[j]:
                    # The push may have taught the receiver previously
                    # unknown members (id + believed rent ride along).
                    learned += learned_by(j)
        stats = self._net.stats
        stats.record(
            code, sent=sent, delivered=delivered,
            dropped_loss=dropped_loss,
            dropped_partition=dropped_partition,
        )
        if learned:
            stats.record(NEW_NODE, sent=learned, delivered=learned)
        if not heartbeat:
            self._ver[:] = ver

    def publish_version(self, version: int) -> None:
        row = self._board_row()
        if row is not None:
            self._ver[row] = max(self._ver[row], version)

    # -- verdicts (board observer's view) ----------------------------------

    def believed_dead(self) -> List[int]:
        """Registered subjects the board observer believes dead."""
        row = self._board_row()
        if row is None:
            return []
        ages = self._age[row]
        dead = ages >= self._config.dead_rounds
        return [self._ids[i] for i in np.flatnonzero(dead)]

    def suspected(self) -> List[int]:
        """Subjects at suspect age (inclusive) in the board's view."""
        row = self._board_row()
        if row is None:
            return []
        ages = self._age[row]
        sus = ages >= self._config.suspect_rounds
        return [self._ids[i] for i in np.flatnonzero(sus)]

    def staleness(self) -> Tuple[float, int]:
        """(mean, max) board-view age over physically-live subjects."""
        alive = self._alive_rows()
        row = self._board_row(alive)
        if row is None:
            return 0.0, 0
        ages = self._age[row]
        # Never empty: the board is alive and knows itself.
        vals = ages[alive & (ages >= 0)]
        return float(vals.mean()), int(vals.max())

    def effective_version(self, believed_live: List[int]) -> int:
        """Oldest newest-version among believed-live registered nodes.

        −1 when some believed-live node has never heard any board
        broadcast (callers clamp to the earliest snapshot they hold).
        """
        best: Optional[int] = None
        for sid in believed_live:
            row = self._row.get(sid)
            if row is None:
                continue
            v = int(self._ver[row])
            if best is None or v < best:
                best = v
        return -1 if best is None else best

    def record_tombstones(self, believed_live_count: int) -> None:
        """The board's reliable LOST_LIVE_NODE broadcast on detection."""
        n = max(0, believed_live_count - 1)
        self._net.stats.record(LOST_LIVE_NODE, sent=n, delivered=n)


class CountingFabric:
    """Stateless-per-pair fabric: exact sampled counts, oracle verdicts."""

    def __init__(self, config: NetConfig, net: NetworkModel,
                 cloud: Cloud, rng: np.random.Generator) -> None:
        self._config = config
        self._net = net
        self._cloud = cloud
        self._rng = rng
        self._ids: List[int] = []
        self._known = set()

    # -- registration (id bookkeeping only) --------------------------------

    def register_initial(self, server_ids: List[int]) -> None:
        self._ids = list(server_ids)
        self._known = set(server_ids)

    def register_join(self, sid: int) -> None:
        if sid in self._known:
            return
        self._ids.append(sid)
        self._known.add(sid)
        self._net.stats.record(NEW_NODE, sent=2, delivered=2)

    def unregister(self, sid: int) -> None:
        if sid in self._known:
            self._known.remove(sid)
            self._ids.remove(sid)

    def _phys_alive(self, sid: int) -> bool:
        cloud = self._cloud
        return sid in cloud and cloud.server(sid).alive

    def board_observer(self) -> Optional[int]:
        live = [sid for sid in self._ids if self._phys_alive(sid)]
        return min(live) if live else None

    # -- rounds ------------------------------------------------------------

    def _round_counts(self, code: str) -> None:
        """Sample one round's pushes without per-pair state.

        Each live node pushes to ``min(fanout, live−1)`` uniform
        targets; cut-crossing and lost pushes are binomial draws over
        the same distribution the full fabric samples push-by-push.
        """
        live = [sid for sid in self._ids if self._phys_alive(sid)]
        n = len(live)
        if n < 2:
            return
        per_node = min(self._config.fanout, n - 1)
        sent = n * per_node
        stats = self._net.stats
        stats.record(code, sent=sent)
        dropped_cut = 0
        flapped, cuts = self._net.link_state(live) or ((), ())
        for in_a, asymmetric in cuts:
            a = int(np.count_nonzero(in_a))
            b = n - a
            if a == 0 or b == 0:
                continue
            # B→A pushes always drop across the cut; A→B only when the
            # cut is symmetric.
            p_hit_a = a / (n - 1)
            dropped_cut += int(self._rng.binomial(b * per_node, p_hit_a))
            if not asymmetric:
                p_hit_b = b / (n - 1)
                dropped_cut += int(
                    self._rng.binomial(a * per_node, p_hit_b)
                )
        for _ in range(int(np.count_nonzero(flapped))):
            # All of the flapped node's own pushes drop, plus every
            # push that drew it as a target.
            dropped_cut += per_node
            dropped_cut += int(
                self._rng.binomial((n - 1) * per_node, 1.0 / (n - 1))
            )
        dropped_cut = min(dropped_cut, sent)
        remaining = sent - dropped_cut
        dropped_loss = 0
        if self._config.loss and remaining:
            dropped_loss = int(
                self._rng.binomial(remaining, self._config.loss)
            )
        stats.record(
            code,
            delivered=sent - dropped_cut - dropped_loss,
            dropped_loss=dropped_loss,
            dropped_partition=dropped_cut,
        )

    def membership_round(self) -> None:
        self._round_counts(HEARTBEAT)

    def price_round(self) -> None:
        self._round_counts(PRICE)

    def publish_version(self, version: int) -> None:
        """Oracle prices: the counting fabric never lags the board."""

    # -- verdicts: oracle --------------------------------------------------

    def believed_dead(self) -> List[int]:
        """Detection is handled by the membership service's age rule."""
        return []

    def suspected(self) -> List[int]:
        return []

    def staleness(self) -> Tuple[float, int]:
        return 0.0, 0

    def effective_version(self, believed_live: List[int]) -> int:
        return -2  # sentinel: "current" — the service uses the real board

    def record_tombstones(self, believed_live_count: int) -> None:
        n = max(0, believed_live_count - 1)
        self._net.stats.record(LOST_LIVE_NODE, sent=n, delivered=n)
