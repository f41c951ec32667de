"""The MembershipView seam: believed-alive and believed-price columns.

The engine's decide/settle passes never read physical liveness
directly any more — they consume a *membership view*:

* :class:`OracleMembership` — the ``config.net is None`` path.  Every
  read delegates straight to the cloud, so the pre-existing behavior
  is reproduced byte-for-byte (its ``predicate`` is ``None``, which
  selects the untouched inline fast paths everywhere downstream).

* :class:`MembershipService` — gossip-backed belief.  Server deaths
  become *ghosts*: the event schedule kills them in place (slot, rows
  and diversity retained), the board keeps believing them alive, and
  only when the board observer's gossip view ages a ghost past
  ``dead_rounds`` does the removal complete (cloud/catalog/registry
  drop, in recorded kill order).  Physically-alive servers whose
  heartbeats stop getting through (flaps, partitions, loss streaks)
  become *false suspects* — believed dead, never removed — and
  rehabilitate as soon as a heartbeat lands again.

Zero-fault passthrough: with ``NetConfig.is_zero_fault`` the believed
column is pinned to the physical one, every ghost is detected in the
same epoch it was killed (in kill order), and the effective price
board *is* the real board object — while the fabric still runs and
counts every message.  That is what makes "a zero-fault network
reproduces the goldens byte-identically" true by construction rather
than by probabilistic convergence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from repro.cluster.topology import Cloud
from repro.net.fabric import CountingFabric, GossipFabric
from repro.net.model import NetConfig, NetworkModel

if TYPE_CHECKING:  # circular at runtime: repro.sim imports repro.core
    from repro.sim.seeds import RngStreams


class MembershipError(RuntimeError):
    """Raised for inconsistent membership-service usage."""


class OracleMembership:
    """Instant, perfect membership — the ``net is None`` identity seam."""

    __slots__ = ("_cloud",)

    def __init__(self, cloud: Cloud) -> None:
        self._cloud = cloud

    def believed_vector(self) -> np.ndarray:
        return self._cloud.alive_vector()

    def believed(self, server_id: int) -> bool:
        cloud = self._cloud
        return server_id in cloud and cloud.server(server_id).alive

    def believed_ids(self) -> List[int]:
        return [s.server_id for s in self._cloud if s.alive]

    def responds(self, server_id: int) -> bool:
        """Physical contact probe — identical to belief for the oracle.

        The data plane (router/quorum, lint-sealed against direct
        ``Cloud.alive`` reads) models contacting a replica through this
        method: under the oracle, belief and reality coincide, so a
        believed-live replica always answers.
        """
        cloud = self._cloud
        return server_id in cloud and cloud.server(server_id).alive

    def reachable(self, src: int, dst: int) -> bool:
        """Perfect network: every pair of live servers can talk."""
        return True

    @property
    def predicate(self) -> Optional[Callable[[int], bool]]:
        """``None`` selects the physical inline paths downstream."""
        return None

    @property
    def version(self) -> int:
        return self._cloud.version


class EffectivePriceBoard:
    """A stale price snapshot with real-board backfill for unknowns.

    Servers that joined after the snapshot's version are priced at
    their *current* rent — the NEW_NODE message that taught the cloud
    about them carried it.
    """

    __slots__ = ("_prices", "_fallback", "_min", "version")

    def __init__(self, version: int, prices: Dict[int, float],
                 fallback) -> None:
        self.version = version
        self._prices = prices
        self._fallback = fallback
        self._min: Optional[float] = None

    def price(self, server_id: int) -> float:
        p = self._prices.get(server_id)
        if p is not None:
            return p
        return self._fallback.price(server_id)

    def min_price(self) -> float:
        """Min of the *effective* column over the current server set."""
        m = self._min
        if m is None:
            get = self._prices.get
            m = min(
                get(sid, p)
                for sid, p in self._fallback.prices().items()
            )
            self._min = m
        return m

    def scan_min_price(self) -> float:
        return self.min_price()

    def price_vector(self, server_ids: List[int]) -> np.ndarray:
        prices = self._prices
        missing = [sid for sid in server_ids if sid not in prices]
        if not missing:
            return np.array(
                [prices[sid] for sid in server_ids], dtype=np.float64
            )
        fallback = self._fallback
        return np.array(
            [
                prices[sid] if sid in prices else fallback.price(sid)
                for sid in server_ids
            ],
            dtype=np.float64,
        )


class MembershipService:
    """Gossip-backed membership + stale prices over the faulty net."""

    def __init__(self, config: NetConfig, cloud: Cloud,
                 streams: "RngStreams", *,
                 avail_index=None, catalog=None) -> None:
        self.config = config
        self._cloud = cloud
        self._avail_index = avail_index
        self._catalog = catalog
        self.net = NetworkModel(config, cloud, streams.net)
        fabric_cls = (
            GossipFabric if config.fabric == "full" else CountingFabric
        )
        self.fabric = fabric_cls(config, self.net, cloud, streams.gossip)
        self.fabric.register_initial(cloud.server_ids)
        self._zero = config.is_zero_fault
        self._counting = config.fabric == "counting"
        # Ghosts: killed in place, pending detection.  Kill order is
        # the completion order (matches the instant-removal path).
        self._ghost_epoch: Dict[int, int] = {}
        self._ghost_order: List[int] = []
        # False suspects: physically alive, believed dead.
        self._suspected: set = set()
        self._version = 0
        self._vec_cache: Optional[tuple] = None
        # One stable bound-method reference so predicate identity
        # checks (`is not None` fast paths, liveness install) behave.
        self._pred = self.believed
        self._installed: Optional[Callable[[int], bool]] = None
        # Price history: board version -> posted prices.
        self._history: Dict[int, Dict[int, float]] = {}
        self._effective: Optional[EffectivePriceBoard] = None
        self.last_detections = 0
        self.price_version_lag = 0

    # -- MembershipView interface ------------------------------------------

    def believed(self, server_id: int) -> bool:
        if server_id in self._suspected:
            return False
        if server_id in self._ghost_epoch:
            return True
        cloud = self._cloud
        return server_id in cloud and cloud.server(server_id).alive

    def believed_vector(self) -> np.ndarray:
        cloud = self._cloud
        if self._zero or (not self._ghost_epoch and not self._suspected):
            return cloud.alive_vector()
        key = (cloud.version, self._version)
        cached = self._vec_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        vec = cloud.alive_vector()
        for sid in self._ghost_epoch:
            if sid in cloud:
                vec[cloud.slot(sid)] = True
        for sid in self._suspected:
            if sid in cloud:
                vec[cloud.slot(sid)] = False
        self._vec_cache = (key, vec)
        return vec

    def believed_ids(self) -> List[int]:
        cloud = self._cloud
        ids = cloud.server_ids
        vec = self.believed_vector()
        return [sid for sid, b in zip(ids, vec.tolist()) if b]

    def responds(self, server_id: int) -> bool:
        """Physical contact probe: does the server actually answer?

        This is the one sanctioned liveness read the data plane may
        perform — contacting a replica and observing whether it
        responds is exactly what a real coordinator does.  A ghost
        (``believed`` True, ``responds`` False) therefore yields a
        per-replica timeout instead of a silent success, and a false
        suspect (``believed`` False, ``responds`` True) is skipped by
        routing even though it would answer.
        """
        cloud = self._cloud
        return server_id in cloud and cloud.server(server_id).alive

    def reachable(self, src: int, dst: int) -> bool:
        """Whether a data-plane message from ``src`` reaches ``dst`` now."""
        return self.net.reachable(src, dst)

    @property
    def predicate(self) -> Optional[Callable[[int], bool]]:
        if self._zero:
            return None
        if not self._ghost_epoch and not self._suspected:
            return None
        return self._pred

    @property
    def version(self) -> int:
        return self._version

    # -- belief maintenance -------------------------------------------------

    def _bump(self) -> None:
        self._version += 1
        self._vec_cache = None

    def _sync_liveness(self) -> None:
        index = self._avail_index
        if index is None:
            return
        pred = self.predicate
        if pred is not self._installed:
            index.set_liveness(pred)
            self._installed = pred

    def _flip_refresh(self, server_id: int) -> None:
        """Recompute cached eq. 2 sums after a belief flip."""
        index = self._avail_index
        if index is not None:
            index.refresh_server(server_id)

    def register_added(self, server_ids: List[int]) -> None:
        for sid in server_ids:
            self.fabric.register_join(sid)

    def record_kills(self, server_ids: List[int], epoch: int) -> None:
        """Event-schedule deaths become ghosts pending detection."""
        for sid in server_ids:
            if sid in self._ghost_epoch:
                continue
            self._ghost_epoch[sid] = epoch
            self._ghost_order.append(sid)
            # A suspected server that now really died keeps its
            # believed-dead status out of the ghost bookkeeping.
            self._suspected.discard(sid)
        if server_ids:
            self._bump()
            self._sync_liveness()

    # -- per-epoch phases ---------------------------------------------------

    def begin_epoch(self, epoch: int) -> None:
        self.net.begin_epoch(epoch)

    def run_membership_phase(self, epoch: int) -> List[int]:
        """Phase A: heartbeat rounds, then the board's detections.

        Returns the ghosts whose removal completes this epoch, in kill
        order; the engine performs the actual cloud/catalog/registry
        drops and calls :meth:`on_removed` for each.
        """
        for _ in range(self.config.rounds_per_epoch):
            self.fabric.membership_round()
        if self._zero:
            detected = list(self._ghost_order)
            self.last_detections = len(detected)
            return detected
        if self._counting:
            rounds = self.config.rounds_per_epoch
            detected = [
                sid for sid in self._ghost_order
                if (epoch - self._ghost_epoch[sid] + 1) * rounds
                >= self.config.dead_rounds
            ]
            self.last_detections = len(detected)
            return detected
        dead_view = set(self.fabric.believed_dead())
        detected = [sid for sid in self._ghost_order if sid in dead_view]
        # False suspicion: physically-alive servers the board believes
        # dead.  They are never removed — only excluded from the
        # believed column — and rehabilitate when heartbeats land.
        changed = False
        for sid in dead_view:
            if sid in self._ghost_epoch or sid in self._suspected:
                continue
            if sid in self._cloud and self._cloud.server(sid).alive:
                self._suspected.add(sid)
                changed = True
                self._bump()
                self._sync_liveness()
                self._flip_refresh(sid)
        for sid in list(self._suspected):
            if sid not in dead_view:
                self._suspected.discard(sid)
                changed = True
                self._bump()
                self._sync_liveness()
                self._flip_refresh(sid)
        if changed:
            self._sync_liveness()
        self.last_detections = len(detected)
        return detected

    def on_removed(self, server_id: int) -> None:
        """A detection's removal completed — tombstone + forget."""
        self.fabric.record_tombstones(len(self.believed_ids()))
        self.fabric.unregister(server_id)
        self._ghost_epoch.pop(server_id, None)
        if server_id in self._ghost_order:
            self._ghost_order.remove(server_id)
        self._suspected.discard(server_id)
        self._bump()
        self._sync_liveness()

    def publish_prices(self, epoch: int, board) -> None:
        """Phase B: disseminate the freshly posted board."""
        if not self._zero:
            self._history[epoch] = dict(board.prices())
        self.fabric.publish_version(epoch)
        for _ in range(self.config.rounds_per_epoch):
            self.fabric.price_round()
        if self._zero:
            self._effective = None
            self.price_version_lag = 0
            return
        version = self.fabric.effective_version(self.believed_ids())
        if version == -2:
            # Counting fabric: prices are oracle-current.
            self._effective = None
            self.price_version_lag = 0
            return
        if version < 0 or version not in self._history:
            known = [v for v in self._history if v <= epoch]
            version = min(known) if known else epoch
        self.price_version_lag = max(0, epoch - version)
        if version == epoch:
            self._effective = None
        else:
            self._effective = EffectivePriceBoard(
                version, self._history[version], board
            )
        for v in list(self._history):
            if v < version:
                del self._history[v]

    def effective_board(self, board):
        """The price column decide/settle should consume this epoch."""
        if self._effective is None:
            return board
        return self._effective

    # -- robustness observables --------------------------------------------

    @property
    def ghost_count(self) -> int:
        return len(self._ghost_epoch)

    @property
    def false_suspect_count(self) -> int:
        return len(self._suspected)

    def false_suspect_ids(self) -> List[int]:
        return sorted(self._suspected)

    def actual_live_count(self) -> int:
        return int(np.count_nonzero(self._cloud.alive_vector()))

    def believed_live_count(self) -> int:
        return len(self.believed_ids())

    def staleness(self):
        return self.fabric.staleness()
