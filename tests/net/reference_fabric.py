"""The per-message gossip fabric, frozen as a test oracle.

This is ``repro.net.fabric.GossipFabric`` as it stood on the parent of
the round-kernel commit, kept verbatim where it draws, checks, counts
or merges: every push is one Python iteration — physical-liveness read
through the ``Server`` row view, ``NetworkModel.reachable``,
``NetworkModel.lost``, one ``MessageStats.record`` per outcome and the
masked elementwise-min ``_merge``.  It exists only so
``test_fabric_differential.py`` can drive it next to the shipped kernel
and demand the same age matrix, versions, counters and generator states
after every round.  Do not optimise it and do not import it from
``src/``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cluster.topology import Cloud
from repro.net.fabric import GOSSIP_FANOUT
from repro.net.model import (
    HEARTBEAT,
    NEW_NODE,
    PRICE,
    NetConfig,
    NetworkModel,
)

UNKNOWN_AGE = -1


class ReferenceGossipFabric:
    """Full-state push gossip, one Python iteration per message."""

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

    # -- registration ------------------------------------------------------

    def register_initial(self, server_ids: List[int]) -> None:
        self._ids = list(server_ids)
        self._row = {sid: i for i, sid in enumerate(self._ids)}
        n = len(self._ids)
        self._age = np.zeros((n, n), dtype=np.int32)
        self._ver = np.full(n, -1, dtype=np.int64)

    def register_join(self, sid: int) -> None:
        if sid in self._row:
            return
        n = len(self._ids)
        age = np.full((n + 1, n + 1), UNKNOWN_AGE, dtype=np.int32)
        age[:n, :n] = self._age
        age[n, n] = 0
        self._age = age
        ver = np.full(n + 1, -1, dtype=np.int64)
        ver[:n] = self._ver
        self._ver = ver
        self._row[sid] = n
        self._ids.append(sid)
        self._pending_bootstrap.append(sid)
        self._attempt_bootstrap(sid)

    def unregister(self, sid: int) -> None:
        row = self._row.pop(sid, None)
        if row is None:
            return
        keep = [i for i in range(len(self._ids)) if i != row]
        self._age = self._age[np.ix_(keep, keep)].copy()
        self._ver = self._ver[keep].copy()
        self._ids.pop(row)
        self._row = {s: i for i, s in enumerate(self._ids)}
        if sid in self._pending_bootstrap:
            self._pending_bootstrap.remove(sid)

    # -- helpers -----------------------------------------------------------

    def _phys_alive(self, sid: int) -> bool:
        cloud = self._cloud
        return sid in cloud and cloud.server(sid).alive

    def _live_rows(self) -> List[int]:
        return [
            i for i, sid in enumerate(self._ids) if self._phys_alive(sid)
        ]

    def board_observer(self) -> Optional[int]:
        live = [sid for sid in self._ids if self._phys_alive(sid)]
        return min(live) if live else None

    def _board_row(self) -> Optional[int]:
        sid = self.board_observer()
        return None if sid is None else self._row[sid]

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
        np.minimum(
            self._age[i], self._age[b],
            out=self._age[i],
            where=(self._age[b] >= 0) & (self._age[i] >= 0),
        )
        unknown = (self._age[i] < 0) & (self._age[b] >= 0)
        self._age[i][unknown] = self._age[b][unknown]
        self._age[i, i] = 0
        self._ver[i] = max(self._ver[i], self._ver[b])
        self._pending_bootstrap = [
            s for s in self._pending_bootstrap if s != sid
        ]
        return True

    def _targets(self, observer_row: int) -> np.ndarray:
        row = self._age[observer_row]
        cand = np.flatnonzero(row >= 0)
        cand = cand[cand != observer_row]
        if cand.size == 0:
            return cand
        k = min(GOSSIP_FANOUT, cand.size)
        picks = self._rng.choice(cand.size, size=k, replace=False)
        return cand[np.sort(picks)]

    # -- rounds ------------------------------------------------------------

    def membership_round(self) -> None:
        age = self._age
        age[age >= 0] += 1
        live = self._live_rows()
        for i in live:
            age[i, i] = 0
        for sid in list(self._pending_bootstrap):
            self._attempt_bootstrap(sid)
        stats = self._net.stats
        cfg = self._config
        net = self._net
        ids = self._ids
        for i in live:
            for j in self._targets(i):
                j = int(j)
                stats.record(HEARTBEAT, sent=1)
                if not self._phys_alive(ids[j]) or not net.reachable(
                    ids[i], ids[j]
                ):
                    stats.record(HEARTBEAT, dropped_partition=1)
                    continue
                if cfg.loss and net.lost():
                    stats.record(HEARTBEAT, dropped_loss=1)
                    continue
                stats.record(HEARTBEAT, delivered=1)
                self._merge(i, j)

    def _merge(self, src_row: int, dst_row: int) -> None:
        incoming = self._age[src_row]
        recv = self._age[dst_row]
        known_in = incoming >= 0
        newly = known_in & (recv < 0)
        n_new = int(np.count_nonzero(newly))
        if n_new:
            self._net.stats.record(NEW_NODE, sent=n_new, delivered=n_new)
            recv[newly] = incoming[newly]
        both = known_in & (recv >= 0)
        np.minimum(recv, incoming, out=recv, where=both)
        recv[dst_row] = 0

    def publish_version(self, version: int) -> None:
        row = self._board_row()
        if row is not None:
            self._ver[row] = max(self._ver[row], version)

    def price_round(self) -> None:
        stats = self._net.stats
        cfg = self._config
        net = self._net
        ids = self._ids
        for i in self._live_rows():
            if self._ver[i] < 0:
                continue
            for j in self._targets(i):
                j = int(j)
                stats.record(PRICE, sent=1)
                if not self._phys_alive(ids[j]) or not net.reachable(
                    ids[i], ids[j]
                ):
                    stats.record(PRICE, dropped_partition=1)
                    continue
                if cfg.loss and net.lost():
                    stats.record(PRICE, dropped_loss=1)
                    continue
                stats.record(PRICE, delivered=1)
                if self._ver[i] > self._ver[j]:
                    self._ver[j] = self._ver[i]

    # -- verdicts (board observer's view) ----------------------------------

    def believed_dead(self) -> List[int]:
        row = self._board_row()
        if row is None:
            return []
        dead = self._age[row] >= self._config.dead_rounds
        return [self._ids[i] for i in np.flatnonzero(dead)]

    def staleness(self):
        row = self._board_row()
        if row is None:
            return 0.0, 0
        ages = self._age[row]
        live = [
            i for i, sid in enumerate(self._ids)
            if self._phys_alive(sid) and ages[i] >= 0
        ]
        if not live:
            return 0.0, 0
        vals = ages[live]
        return float(vals.mean()), int(vals.max())
