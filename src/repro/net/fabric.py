"""Message-count-accurate gossip fabric over the faulty network.

:class:`GossipFabric` keeps a per-observer age matrix (observer ×
subject, int32 rounds-since-heard).  Heartbeat and price rounds run
through one round kernel that still models every push as a message —
drawn targets, liveness and reachability, loss roll, unknown-aware
min-merge — but pays for what a round shares (link state, candidate
lists, counters) once per round.  Membership verdicts
(believed dead, staleness) are read from the *board observer's* row —
the lowest physically-live registered id, i.e. the election winner,
which costs zero extra messages because every node derives it from its
own view.  O(N²) state, capped at
:data:`~repro.net.model.FULL_FABRIC_MAX_NODES` nodes.

Every random choice is drawn from the ``gossip`` seed stream, so
faulty-network runs reproduce from one ``SimConfig.seed``.

**The draw-order contract.**  Every golden, named digest and
benchmark counter of a faulty-net run depends on the kernel replaying
these three clauses draw for draw; they are why its sender loop is
sequential and must not be batched across senders
(``tests/net/test_fabric_differential.py`` holds the per-message loop
it replaced as the oracle, generator states included):

1. ``gossip`` stream — one ``choice(len(cand), size=k, replace=False)``
   per live sender turn, senders in ascending row order, where
   ``cand`` is the sender's known subjects minus itself *as of that
   turn* (a push delivered earlier in the same round may have taught
   it a member) and ``k = min(GOSSIP_FANOUT, len(cand))``; a sender
   with no candidate draws nothing.
2. ``net`` stream — one ``NetworkModel.lost()`` roll per push that
   survived the liveness and reachability checks, in push order
   (sender row, then target row ascending); none when ``loss == 0``.
3. Merges and version bumps apply in that same push order, in place:
   a row updated by one push is what the next push from that row
   carries, because in-round multi-hop propagation is behaviour.

Clauses 1 and 2 fix values, order and ``bit_generator.state``, not how
they are read: a round reads each stream from one prefetched block
(PCG64 ``random_raw`` halves for ``gossip``, one ``random(m) < loss``
for ``net``) and rewinds it at round end to exactly the words it used,
buffered half included — so both streams must be PCG64.
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

#: Sentinel age for "observer has never heard of this subject".  Read
#: through an unsigned view of the int32 age matrix it is the largest
#: value there is, so one ``np.minimum`` over two viewed rows *is* the
#: unknown-aware merge — learn what the receiver did not know, keep the
#: fresher of what both know, ignore what the sender does not know.
UNKNOWN_AGE = -1

#: Targets each live sender pushes its view to per round (fewer when
#: it knows fewer other subjects).
GOSSIP_FANOUT = 3


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


_MASK32 = 0xFFFFFFFF


def _replay(bg: np.random.BitGenerator, start: dict, words: int) -> None:
    """Put ``bg`` where ``words`` raw draws from ``start`` leave it."""
    bg.state = start
    if words:
        bg.random_raw(words)


class _GossipDraws:
    """One round's ``gossip`` draws, re-derived from ``random_raw`` blocks.

    numpy's ``choice`` (Floyd, then a swap shuffle) and ``integers`` are
    Lemire bounded draws on ``next_uint32``: for PCG64 a word's low half,
    then its buffered high half (``has_uint32`` / ``uinteger``).
    """

    def __init__(self, rng: np.random.Generator, words: int) -> None:
        self._bg = rng.bit_generator
        self._start = start = self._bg.state
        # A buffered high half is the next one numpy hands out.
        self._halves = [start["uinteger"]] if start["has_uint32"] else []
        self._head = len(self._halves)
        self._pos = 0
        self._words = words
        self._fetch()

    def _fetch(self) -> None:
        raw = self._bg.random_raw(self._words).astype("<u8", copy=False)
        self._halves += raw.view("<u4").tolist()  # low half first

    def bounded(self, r: int) -> int:
        """``int(integers(r + 1))`` for ``r < 2**32``; 0 draws nothing."""
        if not r:
            return 0
        r1 = r + 1
        floor = (_MASK32 - r) % r1  # Lemire: redraw while m mod 2³² < this
        halves = self._halves
        pos = self._pos
        while True:
            if pos == len(halves):
                self._fetch()
            m = halves[pos] * r1
            pos += 1
            if m & _MASK32 >= floor:
                self._pos = pos
                return m >> 32

    def choice(self, n: int, k: int) -> List[int]:
        """``choice(n, size=k, replace=False).tolist()``, draw for draw."""
        bounded = self.bounded
        picks: List[int] = []
        for j in range(n - k, n):
            v = bounded(j)
            picks.append(j if v in picks else v)
        for i in range(k - 1, 0, -1):
            v = bounded(i)
            picks[i], picks[v] = picks[v], picks[i]
        return picks

    def rewind(self) -> None:
        """Leave the generator where the scalar calls would have."""
        head, pos = self._head, self._pos
        fresh = max(pos - head, 0)
        words = (fresh + 1) // 2
        _replay(self._bg, self._start, words)
        if pos:
            state = self._bg.state
            state["has_uint32"] = fresh & 1
            if words:  # the last high half, stale once read, as numpy has it
                state["uinteger"] = self._halves[head + 2 * words - 1]
            self._bg.state = state


class GossipFabric:
    """Full-state push gossip: one age row per registered server."""

    def __init__(self, config: NetConfig, net: NetworkModel,
                 cloud: Cloud, rng: np.random.Generator) -> None:
        for stream, gen in (("gossip", rng), ("net", net.rng)):
            kind = type(gen.bit_generator)
            if not issubclass(kind, np.random.PCG64):
                raise NetError(f"the {stream} stream must be PCG64 (read "
                               f"in blocks), not {kind.__name__}")
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
                f"gossip fabric capped at {FULL_FABRIC_MAX_NODES} nodes "
                f"(requested {n})"
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
        methods, one draw block per stream — and the outcome counters
        are local, so a push costs one list lookup, at most one loss
        roll read off the block and, when delivered, one ufunc.  The
        loop itself stays sequential and in (sender row, target row)
        order: see the draw-order contract in the module docstring.
        """
        heartbeat = code == HEARTBEAT
        fanout = GOSSIP_FANOUT
        loss = self._config.loss
        live = np.flatnonzero(alive).tolist()
        # Enough halves unless Lemire rejects: 2k - 1 per sender turn
        # (Floyd, then the shuffle).
        halves = len(live) * (2 * fanout - 1)
        draws = _GossipDraws(self._rng, halves // 2 + 1)
        choice = draws.choice
        if loss:
            # One block bounds the round's rolls (one per push at most);
            # random(m) reads the words m random() calls would.
            net_rng = self._net.rng
            net_start = net_rng.bit_generator.state
            block = net_rng.random(len(live) * fanout) < loss
            lost = iter(block.tolist()).__next__
        candidates = self._cand
        learned_by = self._learned
        unknown = self._unknown
        link = self._net.link_state(self._ids)
        down = ~alive
        # With no cut or flap active a push can only fail to connect
        # because its target is down: every sender shares one column.
        blocked = down.tolist()
        if link is not None:
            # A column depends on its sender only through these keys.
            flapped, cuts = link
            keys = list(zip(flapped.tolist(), *(a.tolist() for a, _ in cuts)))
            columns: Dict[Tuple[bool, ...], List[bool]] = {}
        views = list(self._age.view(np.uint32))
        ver = self._ver.tolist()
        sent = delivered = dropped_loss = dropped_partition = learned = 0
        for i in live:
            if not heartbeat and ver[i] < 0:
                continue
            cand = candidates[i]
            if cand is None:
                cand = self._candidates(i)
            if not cand:
                continue
            k = min(fanout, len(cand))
            picks = choice(len(cand), k)
            sent += k
            if link is not None:
                blocked = columns.get(keys[i])
                if blocked is None:
                    blocked = columns[keys[i]] = _unreachable_from(
                        i, down, link).tolist()
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
                np.minimum(views[j], views[i], out=views[j])
                if unknown[j]:
                    # The push may have taught the receiver previously
                    # unknown members (id + believed rent ride along).
                    learned += learned_by(j)
        draws.rewind()
        if loss:
            # Every roll read ended as a loss drop or a delivery.
            _replay(net_rng.bit_generator, net_start,
                    delivered + dropped_loss)
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

