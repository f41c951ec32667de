"""Virtual-node agents: the autonomous per-replica optimizers.

Every replica of every partition is managed by one agent acting on the
data owner's behalf (§II).  The agent accrues utility from the queries
its replica answers, pays the hosting server's virtual rent, and keeps
the recent balance history that drives the migrate/suicide/replicate
hysteresis ("negative balance for the last f epochs", §II-C).

Storage is *array-native*: every agent's balance window, wealth and
streak state live as one row of the registry-level
:class:`AgentLedger` — a ring-buffer balance matrix plus
wealth/streak-run vectors — so the epoch kernel settles all agents with
one vectorized column write (:meth:`AgentLedger.record_batch`) and
triages §II-C streaks as array masks instead of scanning each agent's
window.  :class:`VNodeAgent` remains the object API callers and tests
use; it is a thin view onto its ledger row.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.ring.partition import PartitionId
from repro.util.columns import ColumnSet, ColumnSpec


class AgentError(ValueError):
    """Raised for registry misuse (duplicate or missing agents)."""


@lru_cache(maxsize=None)
def _ledger_specs(window: int) -> Tuple[ColumnSpec, ...]:
    """The ledger's column layout for one hysteresis window.

    Validated once per ``window`` and shared by every ledger of that
    window — the registry's, each compaction target and the one-row
    ledger every retired agent detaches onto.

    Dtype policy (ISSUE 9): bounded counters and slot/server ids are
    int32 — ring positions and streak runs are bounded by the
    window/horizon, ids by the cloud's size — which halves the ledger's
    integer footprint at scale.  The float64 keep-list: ``_bal`` and
    ``_wealth`` are eq. 5 accumulators whose values feed frame streams
    bit-for-bit, and ``_seq`` stays int64 — it is a never-reset global
    spawn/rehome counter whose ordering the incidence alignment depends
    on (a wrap would silently reorder blocks).
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
        ColumnSpec("_pid_slot", np.int32, fill=-1),
        ColumnSpec("_seq", np.int64),
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
        # ring-buffer positions) on top.  ``_pid_slot`` is each row's
        # owning partition's dense index slot (−1 = free row or
        # no-index registry) and ``_seq`` a global spawn/rehome
        # sequence — the two keys under which the epoch kernel
        # reconstructs each partition's agent order with one lexsort
        # instead of one Python iteration per partition (see
        # Incidence.flat_state).  ``capacity`` rows are allocated
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
        self._seq_counter = 0

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
        self._pid_slot[row] = -1
        self._seq[row] = self._seq_counter
        self._seq_counter += 1
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

    def set_pid_slot(self, row: int, slot: int) -> None:
        """Bind a row to its partition's dense index slot."""
        self._pid_slot[row] = slot

    def bump_seq(self, row: int) -> None:
        """Move a row to the end of its partition's agent order."""
        self._seq[row] = self._seq_counter
        self._seq_counter += 1

    def pid_slot_vector(self) -> np.ndarray:
        """Partition slot per row (read-only; -1 = free/unindexed)."""
        return self._pid_slot

    def seq_vector(self) -> np.ndarray:
        """Spawn/rehome sequence per row (read-only by contract)."""
        return self._seq

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

    def set_moves(self, row: int, value: int) -> None:
        self._moves[row] = value

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

    def adopt_row(self, src: "AgentLedger", src_row: int) -> int:
        """Claim a row holding a verbatim copy of one row of ``src``.

        Every column — ring buffer and position included — is copied as
        is, so the adopted row reads back the same window, wealth,
        streaks, moves and server id (detaching agents).
        """
        row = self.acquire(src.server_id(src_row))
        self._cols.copy_row(src._cols, src_row, row)
        self._neg_flags[row] = src._neg_flags[src_row]
        self._pos_flags[row] = src._pos_flags[src_row]
        return row


class VNodeAgent:
    """One virtual node: a partition replica on a specific server.

    A thin view over one :class:`AgentLedger` row.  Registry-spawned
    agents share the registry's ledger (so batched settlement reaches
    them); a directly constructed agent owns a private single-row ledger
    with identical semantics.
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
            raise AgentError("registry-backed agent needs its row")
        self.pid = pid
        self._ledger = ledger
        self._row = row

    # -- ledger plumbing ---------------------------------------------------

    @property
    def row(self) -> int:
        """This agent's ledger row (internal to the epoch kernel)."""
        return self._row

    def _rebind(self, ledger: AgentLedger, row: int) -> None:
        """Point the view at a new row (compaction, retirement)."""
        self._ledger = ledger
        self._row = row

    # -- paper-facing API --------------------------------------------------

    @property
    def window(self) -> int:
        return self._ledger.window

    @property
    def server_id(self) -> int:
        return self._ledger.server_id(self._row)

    @server_id.setter
    def server_id(self, value: int) -> None:
        self._ledger.set_server_id(self._row, value)

    @property
    def wealth(self) -> float:
        return self._ledger.wealth(self._row)

    @wealth.setter
    def wealth(self, value: float) -> None:
        self._ledger.set_wealth(self._row, value)

    @property
    def epochs_alive(self) -> int:
        return self._ledger.epochs_alive(self._row)

    @property
    def moves(self) -> int:
        """Completed migrations — a ledger column, like the balances."""
        return self._ledger.moves(self._row)

    @moves.setter
    def moves(self, value: int) -> None:
        self._ledger.set_moves(self._row, value)

    @property
    def balances(self) -> Tuple[float, ...]:
        """The balance window, oldest first — an *immutable* snapshot.

        The pre-ledger agent exposed its live deque; state now lives in
        the array ledger, so the window is handed out as a tuple —
        attempted mutation fails loudly instead of silently editing a
        throwaway copy.  Drive state through :meth:`record` /
        :meth:`reset_history`.
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

    def reset_history(self) -> None:
        """Forget the balance window (after a move or replication)."""
        self._ledger.reset_window(self._row)

    def moved_to(self, server_id: int) -> None:
        """Re-home the agent after a migration."""
        self._ledger.set_server_id(self._row, server_id)
        self._ledger.add_move(self._row)
        self.reset_history()

    def __str__(self) -> str:
        return (
            f"vnode({self.pid}@s{self.server_id} wealth={self.wealth:.3f})"
        )


class AgentRegistry:
    """All live agents, indexed by (partition, server) and by partition.

    Mirrors the replica catalog: every catalog mutation has a registry
    counterpart, so agent existence ⇔ replica existence.  The registry
    never invents replicas — the engine is responsible for calling the
    matching pairs (place ⇔ spawn, drop ⇔ retire, move ⇔ rehome).

    All agent state lives in the shared :class:`AgentLedger`;
    :attr:`version` stamps every membership change so the epoch kernel
    can cache row/replica incidence structures across epochs.
    """

    def __init__(self, window: int,
                 partition_index=None) -> None:
        self._ledger = AgentLedger(window)
        self._agents: Dict[Tuple[PartitionId, int], VNodeAgent] = {}
        self._by_pid: Dict[PartitionId, List[VNodeAgent]] = {}
        #: Shared dense partition index (vectorized kernel): rows carry
        #: their partition's slot so the epoch kernel reconstructs
        #: incidence in row space; None keeps the ledger slot-free.
        self.partition_index = partition_index
        # Ledger-row mirror of ``_by_pid`` (same per-partition order),
        # maintained through every membership mutation so the epoch
        # kernel's incidence rebuild reads plain int lists instead of
        # touching one agent object per replica.  Any drift is caught —
        # per replica — by the incidence's row→server check, which
        # raises :class:`~repro.core.policy.KernelError`.
        self._rows_by_pid: Dict[PartitionId, List[int]] = {}
        self._version = 0
        # Mutation journal: the pid of every spawn/retire/rehome, in
        # order, so the epoch kernel's incremental incidence splice can
        # rebuild exactly the touched partitions instead of re-sorting
        # the whole ledger.  ``_mutation_base`` is the global position
        # of the log's first entry; a consumer whose anchor fell off
        # the (capped) log simply rebuilds from scratch.  Compactions
        # renumber every row, so they carry their own counter instead
        # of a per-pid entry.
        self._mutation_log: List[PartitionId] = []
        self._mutation_base = 0
        self._compactions = 0
        #: Rows of retired agents (:meth:`retire`), built on first use.
        self._graveyard: Optional[AgentLedger] = None

    @property
    def window(self) -> int:
        return self._ledger.window

    @property
    def ledger(self) -> AgentLedger:
        return self._ledger

    @property
    def version(self) -> int:
        """Monotone membership counter; derived caches key off it."""
        return self._version

    @property
    def compactions(self) -> int:
        """How many times the ledger was repacked (rows renumbered)."""
        return self._compactions

    @property
    def mutation_position(self) -> int:
        """Global position just past the last journaled mutation."""
        return self._mutation_base + len(self._mutation_log)

    def mutations_since(self, position: int) -> Optional[List[PartitionId]]:
        """Partitions touched since ``position``, in order.

        None when the requested span fell off the capped journal (or
        lies in the future) — the caller must treat the registry as
        arbitrarily changed and rebuild.
        """
        if not self._mutation_base <= position <= self.mutation_position:
            return None
        return self._mutation_log[position - self._mutation_base:]

    _MUTATION_LOG_CAP = 16384

    def _log_mutation(self, pid: PartitionId) -> None:
        log = self._mutation_log
        if len(log) >= self._MUTATION_LOG_CAP:
            drop = len(log) // 2
            del log[:drop]
            self._mutation_base += drop
        log.append(pid)

    def __len__(self) -> int:
        return len(self._agents)

    def __iter__(self) -> Iterator[VNodeAgent]:
        return iter(self._agents.values())

    def streak_flags(self) -> Tuple[List[bool], List[bool]]:
        return self._ledger.streak_flags()

    def record_batch(self, rows: np.ndarray, utilities: np.ndarray,
                     rents: np.ndarray) -> None:
        """Settle many agents at once (see AgentLedger.record_batch)."""
        self._ledger.record_batch(rows, utilities, rents)

    def spawn(self, pid: PartitionId, server_id: int) -> VNodeAgent:
        key = (pid, server_id)
        if key in self._agents:
            raise AgentError(f"agent already exists for {pid}@{server_id}")
        row = self._ledger.acquire(server_id)
        if self.partition_index is not None:
            self._ledger.set_pid_slot(
                row, self.partition_index.slot_of(pid)
            )
        agent = VNodeAgent(pid, server_id, ledger=self._ledger, row=row)
        self._agents[key] = agent
        self._by_pid.setdefault(pid, []).append(agent)
        self._rows_by_pid.setdefault(pid, []).append(row)
        self._log_mutation(pid)
        self._version += 1
        return agent

    def retire(self, pid: PartitionId, server_id: int) -> VNodeAgent:
        key = (pid, server_id)
        try:
            agent = self._agents.pop(key)
        except KeyError:
            raise AgentError(f"no agent for {pid}@{server_id}") from None
        idx = self._by_pid[pid].index(agent)
        del self._by_pid[pid][idx]
        del self._rows_by_pid[pid][idx]
        if not self._by_pid[pid]:
            del self._by_pid[pid]
            del self._rows_by_pid[pid]
        # Detach before the row is recycled so callers holding the
        # object (split bookkeeping, failure reporting) still read the
        # agent's final state: the row moves into the registry's one
        # graveyard ledger (doubling growth, never recycled).
        row = agent.row
        grave = self._graveyard
        if grave is None:
            grave = self._graveyard = AgentLedger(self._ledger.window)
        agent._rebind(grave, grave.adopt_row(self._ledger, row))
        self._ledger.release(row)
        self._log_mutation(pid)
        self._version += 1
        return agent

    def rehome(self, pid: PartitionId, src: int, dst: int) -> VNodeAgent:
        key = (pid, src)
        try:
            agent = self._agents.pop(key)
        except KeyError:
            raise AgentError(f"no agent for {pid}@{src}") from None
        agent.moved_to(dst)
        self._agents[(pid, dst)] = agent
        # The agent keeps its ledger row; only the (pid, server) key and
        # the per-partition list order change (removed, re-appended) to
        # mirror the catalog's move (place dst, drop src).
        agents = self._by_pid[pid]
        idx = agents.index(agent)
        del agents[idx]
        agents.append(agent)
        rows = self._rows_by_pid[pid]
        del rows[idx]
        rows.append(agent.row)
        self._ledger.bump_seq(agent.row)
        self._log_mutation(pid)
        self._version += 1
        return agent

    def get(self, pid: PartitionId, server_id: int) -> VNodeAgent:
        try:
            return self._agents[(pid, server_id)]
        except KeyError:
            raise AgentError(f"no agent for {pid}@{server_id}") from None

    def has(self, pid: PartitionId, server_id: int) -> bool:
        return (pid, server_id) in self._agents

    def of_partition(self, pid: PartitionId) -> List[VNodeAgent]:
        return list(self._by_pid.get(pid, ()))

    def rows_of(self, pid: PartitionId) -> Optional[List[int]]:
        """One partition's ledger rows, in agent-list order (read-only).

        The maintained mirror of ``[a.row for a in of_partition(pid)]`` —
        the epoch kernel's incidence rebuild consumes it without paying
        one attribute access per agent.  None when the partition has no
        agents.
        """
        return self._rows_by_pid.get(pid)

    def partitions(self) -> List[PartitionId]:
        """Every partition that currently has at least one agent."""
        return list(self._by_pid.keys())

    def on_server(self, server_id: int) -> List[VNodeAgent]:
        return [a for a in self._agents.values() if a.server_id == server_id]

    def drop_server(self, server_id: int) -> List[VNodeAgent]:
        """Retire every agent on a failed server; returns the casualties."""
        victims = self.on_server(server_id)
        for agent in victims:
            self.retire(agent.pid, agent.server_id)
        return victims

    def split_partition(self, parent: PartitionId, low: PartitionId,
                        high: PartitionId) -> None:
        """Replace a split partition's agents with per-child agents.

        Children inherit the parent agent's wealth split evenly (the
        balance window restarts — the children face fresh economics).
        """
        parents = self.of_partition(parent)
        for agent in parents:
            inherited = agent.wealth / 2.0
            self.retire(parent, agent.server_id)
            for child in (low, high):
                spawned = self.spawn(child, agent.server_id)
                spawned.wealth = inherited

    def compact(self) -> None:
        """Repack the ledger densely after retirements.

        Live rows are renumbered 0..N-1 (in current row order), every
        agent view is re-pointed, and the backing arrays shrink to the
        live population.  Bumps :attr:`version` so cached row/incidence
        structures rebuild.
        """
        old = self._ledger
        agents = sorted(self._agents.values(), key=lambda a: a.row)
        fresh = AgentLedger(old.window, capacity=max(len(agents), 1))
        if agents:
            rows = np.array([a.row for a in agents], dtype=np.intp)
            fresh._cols.gather_rows(old._cols, rows)
            fresh._seq_counter = old._seq_counter
            window = old.window
            fresh._neg_flags[: len(agents)] = (
                old._neg_run[rows] >= window
            ).tolist()
            fresh._pos_flags[: len(agents)] = (
                old._pos_run[rows] >= window
            ).tolist()
            fresh._free = [
                r for r in range(fresh._cap - 1, -1, -1) if r >= len(agents)
            ]
            fresh._live = len(agents)
            for new_row, agent in enumerate(agents):
                agent._rebind(fresh, new_row)
        self._ledger = fresh
        # Every row number moved: rebuild the per-partition row mirror
        # from the (order-preserved) agent lists.
        self._rows_by_pid = {
            pid: [a.row for a in members]
            for pid, members in self._by_pid.items()
        }
        self._compactions += 1
        self._version += 1

    def maybe_compact(self, min_capacity: int = 64) -> bool:
        """Compact when more than half the ledger rows sit free."""
        ledger = self._ledger
        if ledger.capacity <= min_capacity:
            return False
        if ledger.capacity - ledger.live_rows <= ledger.live_rows:
            return False
        self.compact()
        return True

    def check_mirror(self, servers_of) -> None:
        """Verify agent existence matches a catalog view (test hook).

        ``servers_of`` is a callable pid -> list of server ids.
        """
        for (pid, sid) in self._agents:
            if sid not in servers_of(pid):
                raise AgentError(f"agent {pid}@{sid} has no replica")
        for pid, agents in self._by_pid.items():
            expected = set(servers_of(pid))
            actual = {a.server_id for a in agents}
            if expected != actual:
                raise AgentError(
                    f"agent mismatch for {pid}: {actual} != {expected}"
                )
