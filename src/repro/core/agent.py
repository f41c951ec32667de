"""Virtual-node agents: the autonomous per-replica optimizers.

Every replica of every partition is managed by one agent acting on the
data owner's behalf (§II).  The agent accrues utility from the queries
its replica answers, pays the hosting server's virtual rent, and keeps
the recent balance history that drives the migrate/suicide/replicate
hysteresis ("negative balance for the last f epochs", §II-C).

One replica is one agent, so there is one replica table: the
:class:`~repro.store.replica.ReplicaCatalog` holds, beside each
replica's server id, the row of the :class:`AgentLedger` that carries
its agent's economics — a ring-buffer balance matrix plus
wealth/streak-run vectors — and is the only writer of rows (a placement
acquires one, a drop releases it, a move keeps it).  The epoch kernel
settles every agent with one vectorized column write
(:meth:`AgentLedger.record_batch`) and triages §II-C streaks as array
masks.  :class:`VNodeAgent` is a thin view onto one row, and
:class:`AgentRegistry` a read view of the catalog's rows as agents.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ring.partition import PartitionId
from repro.util.columns import ColumnSet, ColumnSpec

if TYPE_CHECKING:
    from repro.store.replica import ReplicaCatalog


class AgentError(ValueError):
    """Raised for agent misuse (a bad window or a missing agent)."""


@lru_cache(maxsize=None)
def _ledger_specs(window: int) -> Tuple[ColumnSpec, ...]:
    """The ledger's column layout for one hysteresis window.

    Validated once per ``window`` and shared by every ledger of that
    window — the catalog's, each compaction target and the one-row
    ledger of a detached agent.

    Dtype policy: bounded counters and server ids are int32 — ring
    positions and streak runs are bounded by the window/horizon, ids by
    the cloud's size — which halves the ledger's integer footprint at
    scale.  ``_bal`` and ``_wealth`` stay float64: they are eq. 5
    accumulators whose values feed frame streams bit-for-bit.
    """
    return (
        ColumnSpec("_bal", np.float64, width=window),
        ColumnSpec("_pos", np.int32),
        ColumnSpec("_count", np.int32),
        ColumnSpec("_neg_run", np.int32),
        ColumnSpec("_pos_run", np.int32),
        ColumnSpec("_wealth", np.float64),
        ColumnSpec("_epochs", np.int32),
        ColumnSpec("_moves", np.int32),
        ColumnSpec("_sid", np.int32, fill=-1),
    )


class AgentLedger:
    """Columnar store of every agent's §II-C economic state.

    One *row* per agent: a ring-buffered balance window of length
    ``window`` (the paper's hysteresis ``f``), cumulative wealth, epochs
    alive, the hosting server id, and two streak-run counters.  The run
    counters make streak checks O(1): ``neg_run[row] >= window`` holds
    exactly when the last ``window`` recorded balances are all negative
    (a run resets to zero on any non-negative balance), which is the
    same predicate the old per-agent deque scan computed.

    The scalar :meth:`record` and the vectorized :meth:`record_batch`
    perform the identical float64 operations (``balance = utility -
    rent``; ``wealth += balance``), so a row ends an epoch bit-identical
    regardless of which path recorded it — the property the two epoch
    kernels' frame-equivalence contract rests on.
    """

    def __init__(self, window: int, capacity: int = 0) -> None:
        if window < 1:
            raise AgentError(f"window must be >= 1, got {window}")
        self._window = window
        # Row columns live on the shared growable-column core; the
        # ledger keeps only the semantics (free list, streak flags,
        # ring-buffer positions) on top.  Which replica a row belongs
        # to is the catalog's to know: it keeps each replica's row
        # beside its server id.  ``capacity`` rows are allocated
        # directly (honored exactly — one-row detached ledgers and
        # compaction targets stay tight).
        self._cols = ColumnSet(self, _ledger_specs(window), capacity)
        self._cap = capacity
        #: Materialized streak flags (plain lists: O(1) scalar reads in
        #: the decision loop without numpy scalar-indexing overhead).
        self._neg_flags: List[bool] = [False] * capacity
        self._pos_flags: List[bool] = [False] * capacity
        # Hand out low row indices first.
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._live = 0

    # -- capacity ----------------------------------------------------------

    @property
    def window(self) -> int:
        return self._window

    @property
    def capacity(self) -> int:
        return self._cap

    @property
    def live_rows(self) -> int:
        return self._live

    def _grow(self, need: int) -> None:
        """Grow to exactly ``need`` rows (or doubling, if larger).

        Callers wanting amortized growth pass a padded ``need`` (see
        :meth:`acquire`).
        """
        old_cap = self._cap
        new_cap = self._cols.grow(need)
        extra = new_cap - old_cap
        # Extend flag lists *in place*: the decision pass holds direct
        # references to them across a decide() call.
        self._neg_flags.extend([False] * extra)
        self._pos_flags.extend([False] * extra)
        # Hand out low row indices first.
        self._free.extend(range(new_cap - 1, old_cap - 1, -1))
        self._cap = new_cap

    def acquire(self, server_id: int) -> int:
        """Claim a zeroed row for a new agent; returns the row index."""
        if not self._free:
            self._grow(max(self._cap + 1, 16))
        row = self._free.pop()
        self._sid[row] = server_id
        self._live += 1
        return row

    def release(self, row: int) -> None:
        """Return a row to the free pool, clearing its state."""
        self._cols.clear_row(row)
        self._neg_flags[row] = False
        self._pos_flags[row] = False
        self._free.append(row)
        self._live -= 1

    # -- per-row accessors -------------------------------------------------

    def server_id(self, row: int) -> int:
        return int(self._sid[row])

    def set_server_id(self, row: int, server_id: int) -> None:
        self._sid[row] = server_id

    def server_id_vector(self) -> np.ndarray:
        """Hosting server per row (read-only by contract; -1 = free)."""
        return self._sid

    def wealth(self, row: int) -> float:
        return float(self._wealth[row])

    def set_wealth(self, row: int, value: float) -> None:
        self._wealth[row] = value

    def epochs_alive(self, row: int) -> int:
        return int(self._epochs[row])

    def moves(self, row: int) -> int:
        return int(self._moves[row])

    def add_move(self, row: int) -> None:
        """Count one migration for the row's agent."""
        self._moves[row] += 1

    # -- analysis vectors --------------------------------------------------
    #
    # Read-only by contract; indexed by row over the full capacity —
    # restrict to :meth:`live_row_indices` before aggregating.  These
    # are what lets the analysis layer read per-agent economics (wealth
    # distributions, epochs alive, migration counts) as plain array
    # gathers instead of touching one agent object per replica.

    def live_row_indices(self) -> np.ndarray:
        """Rows currently owned by live agents (ascending row order)."""
        return np.flatnonzero(self._sid >= 0)

    def wealth_vector(self) -> np.ndarray:
        """Cumulative eq. 5 wealth per row (read-only by contract)."""
        return self._wealth

    def epochs_alive_vector(self) -> np.ndarray:
        """Settled epochs per row (read-only by contract)."""
        return self._epochs

    def moves_vector(self) -> np.ndarray:
        """Completed migrations per row (read-only by contract)."""
        return self._moves

    def window_values(self, row: int) -> List[float]:
        """The recorded balances, oldest first (≤ ``window`` entries)."""
        count = int(self._count[row])
        if count < self._window:
            # Writes restart at slot 0 after every reset, so an
            # unsaturated window is simply the leading slots in order.
            return self._bal[row, :count].tolist()
        pos = int(self._pos[row])
        vals = self._bal[row]
        return vals[pos:].tolist() + vals[:pos].tolist()

    def neg_streak(self, row: int) -> bool:
        return bool(self._neg_run[row] >= self._window)

    def pos_streak(self, row: int) -> bool:
        return bool(self._pos_run[row] >= self._window)

    def streak_flags(self) -> Tuple[List[bool], List[bool]]:
        """(negative, positive) streak flags, indexed by row.

        The returned lists are live views the ledger keeps current
        through scalar records, resets, acquires and releases;
        :meth:`record_batch` rebuilds their *contents* in place.
        """
        return self._neg_flags, self._pos_flags

    def streak_run_vectors(self) -> Tuple[np.ndarray, np.ndarray]:
        """(neg_run, pos_run) row vectors — read-only by contract."""
        return self._neg_run, self._pos_run

    # -- recording ---------------------------------------------------------

    def seed_balance(self, row: int, balance: float) -> None:
        """Append a balance without wealth/epoch accounting (seeding)."""
        self._write_balance(row, float(balance))

    def _write_balance(self, row: int, balance: float) -> None:
        w = self._window
        pos = int(self._pos[row])
        self._bal[row, pos] = balance
        self._pos[row] = (pos + 1) % w
        count = int(self._count[row])
        if count < w:
            self._count[row] = count + 1
        if balance < 0:
            run = int(self._neg_run[row]) + 1
            self._neg_run[row] = w if run > w else run
            self._pos_run[row] = 0
            self._neg_flags[row] = run >= w
            self._pos_flags[row] = False
        elif balance > 0:
            run = int(self._pos_run[row]) + 1
            self._pos_run[row] = w if run > w else run
            self._neg_run[row] = 0
            self._pos_flags[row] = run >= w
            self._neg_flags[row] = False
        else:
            self._neg_run[row] = 0
            self._pos_run[row] = 0
            self._neg_flags[row] = False
            self._pos_flags[row] = False

    def record(self, row: int, utility: float, rent: float) -> float:
        """Account one epoch for one row; returns the balance."""
        balance = utility - rent
        self._write_balance(row, balance)
        self._wealth[row] += balance
        self._epochs[row] += 1
        return balance

    def record_batch(self, rows: np.ndarray, utilities: np.ndarray,
                     rents: np.ndarray) -> None:
        """Vectorized :meth:`record` for many *distinct* rows at once.

        ``rows`` must not contain duplicates (each agent settles once
        per epoch) — fancy-index accumulation would drop repeats.
        """
        if not len(rows):
            return
        balances = utilities - rents
        w = self._window
        pos = self._pos[rows]
        self._bal[rows, pos] = balances
        self._pos[rows] = (pos + 1) % w
        self._count[rows] = np.minimum(self._count[rows] + 1, w)
        neg = balances < 0
        pos_b = balances > 0
        self._neg_run[rows] = np.where(
            neg, np.minimum(self._neg_run[rows] + 1, w), 0
        )
        self._pos_run[rows] = np.where(
            pos_b, np.minimum(self._pos_run[rows] + 1, w), 0
        )
        self._wealth[rows] += balances
        self._epochs[rows] += 1
        self._neg_flags[:] = (self._neg_run >= w).tolist()
        self._pos_flags[:] = (self._pos_run >= w).tolist()

    def reset_window(self, row: int) -> None:
        """Forget the balance window (after a move or replication)."""
        self._pos[row] = 0
        self._count[row] = 0
        self._neg_run[row] = 0
        self._pos_run[row] = 0
        self._neg_flags[row] = False
        self._pos_flags[row] = False

    # -- maintenance -------------------------------------------------------

    def compacted(self) -> Tuple["AgentLedger", np.ndarray]:
        """A dense copy of the live rows, and the old → new row map.

        Live rows keep their relative order and become rows 0..N-1 of
        a ledger sized to them; the map holds −1 for free rows.
        """
        live = self.live_row_indices()
        fresh = AgentLedger(self._window, capacity=max(len(live), 1))
        remap = np.full(self._cap, -1, dtype=np.intp)
        n = len(live)
        if n:
            fresh._cols.gather_rows(self._cols, live)
            remap[live] = np.arange(n, dtype=np.intp)
            window = self._window
            fresh._neg_flags[:n] = (self._neg_run[live] >= window).tolist()
            fresh._pos_flags[:n] = (self._pos_run[live] >= window).tolist()
            fresh._free = list(range(fresh._cap - 1, n - 1, -1))
            fresh._live = n
        return fresh, remap


class VNodeAgent:
    """One virtual node: a partition replica on a specific server.

    A thin view over one :class:`AgentLedger` row.  A registry view
    reads the catalog's ledger, so batched settlement reaches it; it
    stays valid until the catalog releases or renumbers its row (a
    drop, a split, a compaction).  A directly constructed agent owns a
    private single-row ledger with identical semantics.
    """

    __slots__ = ("pid", "_ledger", "_row")

    def __init__(self, pid: PartitionId, server_id: int,
                 window: Optional[int] = None,
                 balances: Sequence[float] = (), *,
                 ledger: Optional[AgentLedger] = None,
                 row: Optional[int] = None) -> None:
        if ledger is None:
            if window is None:
                raise AgentError("window required for a detached agent")
            ledger = AgentLedger(window, capacity=1)
            row = ledger.acquire(server_id)
            for balance in deque(balances, maxlen=window):
                ledger.seed_balance(row, balance)
        elif row is None:
            raise AgentError("a ledger-backed agent needs its row")
        self.pid = pid
        self._ledger = ledger
        self._row = row

    @property
    def row(self) -> int:
        """This agent's ledger row (internal to the epoch kernel)."""
        return self._row

    # -- paper-facing API --------------------------------------------------

    @property
    def window(self) -> int:
        return self._ledger.window

    @property
    def server_id(self) -> int:
        return self._ledger.server_id(self._row)

    @property
    def wealth(self) -> float:
        return self._ledger.wealth(self._row)

    @property
    def epochs_alive(self) -> int:
        return self._ledger.epochs_alive(self._row)

    @property
    def moves(self) -> int:
        """Completed migrations — a ledger column, like the balances."""
        return self._ledger.moves(self._row)

    @property
    def balances(self) -> Tuple[float, ...]:
        """The balance window, oldest first — an *immutable* snapshot.

        State lives in the array ledger, so the window is handed out as
        a tuple — attempted mutation fails loudly instead of silently
        editing a throwaway copy.  Drive state through :meth:`record`
        (and the ledger's ``reset_window``).
        """
        return tuple(self._ledger.window_values(self._row))

    def record(self, utility: float, rent: float) -> float:
        """Account one epoch: append the balance, accumulate wealth."""
        return self._ledger.record(self._row, utility, rent)

    @property
    def negative_streak(self) -> bool:
        """True when the last ``window`` balances are all negative."""
        return self._ledger.neg_streak(self._row)

    @property
    def positive_streak(self) -> bool:
        """True when the last ``window`` balances are all positive."""
        return self._ledger.pos_streak(self._row)

    def __str__(self) -> str:
        return (
            f"vnode({self.pid}@s{self.server_id} wealth={self.wealth:.3f})"
        )


class AgentRegistry:
    """Every live agent, read off the replica catalog.

    A view, not a store: the catalog keeps each replica's ledger row
    beside its server id and is the only writer of rows, so agent
    existence ⇔ replica existence holds by construction.  Lookups go
    through the catalog; the views it hands out are
    :class:`VNodeAgent` rows of the catalog's :attr:`ledger`.
    """

    def __init__(self, catalog: "ReplicaCatalog") -> None:
        self._catalog = catalog

    @property
    def ledger(self) -> AgentLedger:
        return self._catalog.ledger

    def __len__(self) -> int:
        return self._catalog.total_replicas

    def __iter__(self) -> Iterator[VNodeAgent]:
        for pid in self._catalog.partitions():
            yield from self.of_partition(pid)

    def get(self, pid: PartitionId, server_id: int) -> VNodeAgent:
        """The agent of ``pid``'s replica on ``server_id``."""
        catalog = self._catalog
        if not catalog.has_replica(pid, server_id):
            raise AgentError(f"no agent for {pid}@{server_id}")
        return VNodeAgent(
            pid, server_id, ledger=catalog.ledger,
            row=catalog.row_of(pid, server_id),
        )

    def of_partition(self, pid: PartitionId) -> List[VNodeAgent]:
        """``pid``'s agents, in the catalog's replica order."""
        catalog = self._catalog
        ledger = catalog.ledger
        return [
            VNodeAgent(pid, sid, ledger=ledger, row=row)
            for sid, row in zip(
                catalog.replica_servers(pid), catalog.rows_of(pid)
            )
        ]

    def partitions(self) -> List[PartitionId]:
        """Every partition that currently has at least one agent."""
        return self._catalog.partitions()

    def rows_of(self, pid: PartitionId) -> Sequence[int]:
        """``pid``'s ledger rows, in catalog order (read-only)."""
        return self._catalog.rows_of(pid)

    def maybe_compact(self, min_capacity: int = 64) -> bool:
        """Compact when more than half the ledger rows sit free.

        The catalog repacks the ledger and remaps its row lists
        (:meth:`~repro.store.replica.ReplicaCatalog.compact_rows`).
        """
        ledger = self._catalog.ledger
        if ledger.capacity <= min_capacity:
            return False
        if ledger.capacity - ledger.live_rows <= ledger.live_rows:
            return False
        self._catalog.compact_rows()
        return True
