"""The faulty control-plane network: loss, partitions, flaps.

Every gossip message the simulator models (heartbeats, price
dissemination, membership events) crosses this layer.  The model is
deliberately *control-plane only*: data transfers keep their own
bandwidth accounting in :mod:`repro.store.transfer`, but consult
:meth:`NetworkModel.reachable` so a repair addressed across an active
partition fails with a typed outcome instead of silently succeeding.

Fault vocabulary:

* **loss** — each message is dropped independently with probability
  ``loss`` (drawn from the ``net`` seed stream);
* **partition** — a location-prefix cut (:class:`NetPartition`): at
  ``start`` a live pivot server is drawn and every server under
  its ``depth``-prefix forms side A; cross-side messages drop until
  ``heal`` (``asymmetric`` drops only B→A, so side A keeps
  hearing nothing while side B still learns about A);
* **flap** — a single drawn server's links go down both ways for the
  window (:class:`LinkFlap`); the process stays up and its data is
  intact, so flaps manufacture *false suspicion*, not real loss.

A :class:`NetConfig` with ``loss == 0`` and no schedules is
*zero-fault*: the membership layer then pins its believed columns to
the physical ones (see :mod:`repro.net.membership`), which is what
makes the golden byte-identity contract hold by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.topology import Cloud


class NetError(ValueError):
    """Raised for malformed network configurations."""


#: Control-plane message codes (the ``lmy1229`` gossip vocabulary,
#: adapted): HEARTBEAT carries membership ages, PRICE carries board
#: versions, NEW_NODE teaches a receiver about a previously unknown
#: server (and carries its rent for the believed-price backfill),
#: LOST_LIVE_NODE is the board's reliable tombstone broadcast after a
#: detection completes.  ELECTION is listed for completeness: the board
#: election is derived from the membership views themselves (lowest
#: believed-live id), so it costs zero extra messages by construction.
HEARTBEAT = "HEARTBEAT"
PRICE = "PRICE"
NEW_NODE = "NEW_NODE"
LOST_LIVE_NODE = "LOST_LIVE_NODE"
ELECTION = "ELECTION"

MESSAGE_CODES: Tuple[str, ...] = (
    HEARTBEAT, PRICE, NEW_NODE, LOST_LIVE_NODE, ELECTION,
)

#: Hard cap for the gossip fabric's per-observer age matrix: beyond
#: this the O(N²) state is no longer a sane simulation artifact.  Specs
#: with a ``net`` or ``chaos`` section are refused at load time
#: (:class:`repro.sim.scenario.ScenarioSpec`) when initial servers plus
#: every join exceed it -- a deliberate upper bound that ignores leaves,
#: where the runtime check counts only servers registered at the time.
FULL_FABRIC_MAX_NODES = 4096


def _check_window(start: int, heal: int) -> None:
    if start < 0:
        raise NetError(f"start must be >= 0, got {start}")
    if heal <= start:
        raise NetError(f"heal must be > start, got {heal} <= {start}")


@dataclass(frozen=True)
class NetPartition:
    """A scheduled network cut along one location-prefix boundary.

    ``depth`` selects the boundary exactly as
    :class:`repro.cluster.events.ScopedOutage` does (2 = country,
    3 = datacenter, 4 = room, 5 = rack); the pivot server defining the
    prefix is drawn from the live cloud at ``start`` so schedules
    stay layout-independent.  ``asymmetric`` cuts only B→A traffic:
    the minority side goes silent to the majority while still hearing
    it — both sides then believe different worlds, the regime the paper
    could not measure.
    """

    start: int
    heal: int
    depth: int = 2
    asymmetric: bool = False

    def __post_init__(self) -> None:
        _check_window(self.start, self.heal)
        if not 1 <= self.depth <= 5:
            raise NetError(f"depth must be in [1, 5], got {self.depth}")


@dataclass(frozen=True)
class LinkFlap:
    """One drawn server's links go down both ways for the window.

    The server keeps running (storage intact, queries served by the
    data plane) — only its control-plane links are cut, so the rest of
    the cloud falsely suspects it and it falsely suspects everyone.
    """

    start: int
    heal: int

    def __post_init__(self) -> None:
        _check_window(self.start, self.heal)


@dataclass(frozen=True)
class NetConfig:
    """Control-plane network parameters for one run."""

    loss: float = 0.0
    rounds_per_epoch: int = 3
    dead_rounds: int = 10
    partitions: Tuple[NetPartition, ...] = ()
    flaps: Tuple[LinkFlap, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise NetError(f"loss must be in [0, 1), got {self.loss}")
        if self.rounds_per_epoch < 1:
            raise NetError(
                f"rounds_per_epoch must be >= 1, got "
                f"{self.rounds_per_epoch}"
            )
        if self.dead_rounds < 1:
            raise NetError(
                f"dead_rounds must be >= 1, got {self.dead_rounds}"
            )

    @property
    def is_zero_fault(self) -> bool:
        """No loss, no schedules: the oracle-equivalent net."""
        return (
            self.loss == 0.0
            and not self.partitions
            and not self.flaps
        )


class MessageStats:
    """Exact per-code message counters (cumulative + per-epoch).

    ``sent`` counts every push the fabric attempts; a sent message is
    exactly one of ``delivered``, ``dropped_loss`` or
    ``dropped_partition`` (flap drops count as partition drops — both
    are reachability cuts).
    """

    FIELDS = ("sent", "delivered", "dropped_loss", "dropped_partition")

    def __init__(self) -> None:
        self._totals: Dict[str, List[int]] = {
            code: [0, 0, 0, 0] for code in MESSAGE_CODES
        }
        self._epoch_base: Dict[str, Tuple[int, int, int, int]] = (
            self.snapshot()
        )

    def record(self, code: str, *, sent: int = 0, delivered: int = 0,
               dropped_loss: int = 0, dropped_partition: int = 0) -> None:
        row = self._totals[code]
        row[0] += sent
        row[1] += delivered
        row[2] += dropped_loss
        row[3] += dropped_partition

    def snapshot(self) -> Dict[str, Tuple[int, int, int, int]]:
        """Cumulative (sent, delivered, dropped_loss, dropped_partition)."""
        return {code: tuple(row) for code, row in self._totals.items()}

    def begin_epoch(self) -> None:
        """Mark the epoch boundary for :meth:`epoch_counts`."""
        self._epoch_base = self.snapshot()

    def epoch_counts(self) -> Dict[str, Tuple[int, int, int, int]]:
        """Counts accumulated since the last :meth:`begin_epoch`."""
        now = self.snapshot()
        return {
            code: tuple(
                n - b for n, b in zip(now[code], self._epoch_base[code])
            )
            for code in MESSAGE_CODES
        }


class _ActiveCut:
    """A materialized :class:`NetPartition`: prefix + cached sides."""

    __slots__ = ("prefix", "depth", "asymmetric", "heal_epoch", "_side")

    def __init__(self, prefix: Tuple[int, ...], depth: int,
                 asymmetric: bool, heal_epoch: int) -> None:
        self.prefix = prefix
        self.depth = depth
        self.asymmetric = asymmetric
        self.heal_epoch = heal_epoch
        # Server locations are immutable per id, so side membership is
        # cached forever (ids are never reused by the cloud).
        self._side: Dict[int, bool] = {}

    def in_a(self, cloud: Cloud, sid: int) -> bool:
        """Whether ``sid`` sits on side A.  An id the cloud no longer
        holds reads as side B: nothing is delivered to it anyway."""
        if sid not in cloud:
            return False
        cached = self._side.get(sid)
        if cached is None:
            cached = (
                cloud.server(sid).location.prefix(self.depth)
                == self.prefix
            )
            self._side[sid] = cached
        return cached

    def side_column(self, cloud: Cloud, server_ids: List[int]) -> np.ndarray:
        """:meth:`in_a` for each of ``server_ids``."""
        in_a = self.in_a
        return np.array([in_a(cloud, sid) for sid in server_ids], dtype=bool)

    def blocks(self, cloud: Cloud, src: int, dst: int) -> bool:
        a_src = self.in_a(cloud, src)
        a_dst = self.in_a(cloud, dst)
        if a_src == a_dst:
            return False
        if self.asymmetric:
            # Only B→A drops: side A's outbound still crosses.
            return not a_src and a_dst
        return True


#: :meth:`NetworkModel.link_state`: the flapped mask, then one
#: ``(in_a, asymmetric)`` pair per active cut.
LinkState = Tuple[np.ndarray, List[Tuple[np.ndarray, bool]]]


@dataclass
class _PendingFlap:
    event: LinkFlap
    server_id: Optional[int] = field(default=None)


class NetworkModel:
    """Runtime fault state: active cuts, flapped links, loss rolls.

    ``begin_epoch`` materializes scheduled cuts and flaps (drawing
    pivots and victims from the ``net`` seed stream so runs reproduce
    from one master seed) and heals expired ones.  Fault state is then
    fixed until the next ``begin_epoch``: :meth:`reachable` answers for
    one pair, :meth:`link_state` for a whole gossip round at once
    (``None`` when healthy), and neither draws.

    The only draw between epoch boundaries is the loss roll: exactly
    one ``random()`` from the ``net`` stream per message that survived
    the liveness and reachability checks, in the order the fabric
    attempts them (:meth:`lost`, or a gossip round's block over
    :attr:`rng`), and none at all when ``loss == 0``.  Together with the
    ``begin_epoch`` draws that *is* the ``net`` stream — clause (2) of
    the fabric's draw-order contract (:mod:`repro.net.fabric`); skipping
    or re-ordering those rolls changes every later pivot, victim and
    drop of the run.
    """

    def __init__(self, config: NetConfig, cloud: Cloud,
                 rng: np.random.Generator) -> None:
        self.config = config
        self._cloud = cloud
        self._rng = rng
        self.stats = MessageStats()
        self._pending_cuts = sorted(
            config.partitions, key=lambda p: p.start
        )
        self._cuts: List[_ActiveCut] = []
        self._pending_flaps = [
            _PendingFlap(f)
            for f in sorted(config.flaps, key=lambda f: f.start)
        ]
        self._flapped: Dict[int, int] = {}

    # -- schedule ----------------------------------------------------------

    def _live_ids(self) -> List[int]:
        return [s.server_id for s in self._cloud if s.alive]

    def begin_epoch(self, epoch: int) -> None:
        self.stats.begin_epoch()
        self._cuts = [c for c in self._cuts if c.heal_epoch > epoch]
        self._flapped = {
            sid: heal for sid, heal in self._flapped.items()
            if heal > epoch
        }
        while (
            self._pending_cuts
            and self._pending_cuts[0].start <= epoch
        ):
            cut = self._pending_cuts.pop(0)
            if cut.heal <= epoch:
                continue
            ids = self._live_ids()
            if not ids:
                continue
            pivot = ids[int(self._rng.integers(len(ids)))]
            prefix = self._cloud.server(pivot).location.prefix(cut.depth)
            self._cuts.append(
                _ActiveCut(prefix, cut.depth, cut.asymmetric, cut.heal)
            )
        while (
            self._pending_flaps
            and self._pending_flaps[0].event.start <= epoch
        ):
            flap = self._pending_flaps.pop(0)
            if flap.event.heal <= epoch:
                continue
            ids = self._live_ids()
            if not ids:
                continue
            victim = ids[int(self._rng.integers(len(ids)))]
            flap.server_id = victim
            self._flapped[victim] = flap.event.heal

    # -- queries -----------------------------------------------------------

    @property
    def rng(self) -> np.random.Generator:
        """The ``net`` stream, for the gossip fabric's loss-roll blocks."""
        return self._rng

    @property
    def has_active_cut(self) -> bool:
        return bool(self._cuts) or bool(self._flapped)

    def reachable(self, src: int, dst: int) -> bool:
        """Can a message from ``src`` currently reach ``dst``?"""
        if src == dst:
            return True
        if src in self._flapped or dst in self._flapped:
            return False
        for cut in self._cuts:
            if cut.blocks(self._cloud, src, dst):
                return False
        return True

    def link_state(self, server_ids: List[int]) -> Optional[LinkState]:
        """:meth:`reachable` for a whole round, as columns.

        ``None`` while no cut and no flap is active — every pair can
        talk and the caller does no reachability work at all.
        Otherwise ``(flapped, cuts)`` over ``server_ids``:
        ``flapped[k]`` says the k-th server's links are down both ways,
        and ``cuts`` holds one ``(in_a, asymmetric)`` pair per active
        cut with ``in_a[k]`` the k-th server's side.  A message
        src→dst drops iff either end is flapped, or some cut has the
        two on different sides and is symmetric or has dst on side A.
        """
        if not self.has_active_cut:
            return None
        victims = self._flapped
        flapped = np.array(
            [sid in victims for sid in server_ids], dtype=bool
        )
        cloud = self._cloud
        return flapped, [
            (cut.side_column(cloud, server_ids), cut.asymmetric)
            for cut in self._cuts
        ]

    def lost(self) -> bool:
        """Roll the per-message loss dice (never called when loss=0)."""
        return float(self._rng.random()) < self.config.loss

    def split_replica_partitions(self, catalog) -> int:
        """Partitions with replicas on both sides of an active cut.

        This is the *conflicting-repair risk*: both sides of such a
        partition believe the other side's replicas dead and may both
        start repairs for the same vnode.  It is measured from the
        catalog (not simulated per-server — the simulator runs one
        global decision pass), so it bounds, rather than enacts, the
        conflict.
        """
        if not self._cuts:
            return 0
        cloud = self._cloud
        risky = set()
        for cut in self._cuts:
            for pid in catalog.partitions():
                if pid in risky:
                    continue
                sides = set()
                for sid in catalog.servers_of(pid):
                    if sid in cloud:
                        sides.add(cut.in_a(cloud, sid))
                        if len(sides) == 2:
                            risky.add(pid)
                            break
        return len(risky)
