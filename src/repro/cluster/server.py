"""Physical servers: capacities, per-epoch bandwidth budgets and usage.

A physical node (paper §I, §III-A) hosts a varying number of virtual
nodes.  It has a fixed storage capacity, a fixed bandwidth capacity for
serving queries, and *reserved* per-epoch bandwidth budgets for
replication (300 MB/epoch in the paper) and migration (100 MB/epoch).
It also carries a real monthly rent (100$ or 125$ in the evaluation)
from which the marginal usage price of eq. 1 is derived.

Storage is *array-native*: every server's mutable and static state
lives as one row of a :class:`ServerTable` — dense per-slot columns
(alive flags, confidence, rents, storage used/capacity, query counters
and both bandwidth-budget column pairs) owned by the registering
:class:`~repro.cluster.topology.Cloud` — so epoch-wide operations
(budget resets, eq. 1 pricing inputs, placement's static vectors, the
metrics rent split) are single array reads instead of O(S) Python
object loops.  :class:`Server` and :class:`BandwidthBudget` remain the
object API callers and tests use; they are thin row views, mirroring
``VNodeAgent`` over ``AgentLedger``.  A directly constructed server
owns a private single-row table with identical semantics until a cloud
adopts it.

Sizes are tracked in bytes throughout; helpers accept/display MB and GB
where that is the natural unit in the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.location import Location
from repro.util.columns import ColumnSet, ColumnSpec

#: One binary megabyte / gigabyte, in bytes.
MB: int = 1 << 20
GB: int = 1 << 30

#: Paper defaults (§III-A).
DEFAULT_REPLICATION_BUDGET: int = 300 * MB
DEFAULT_MIGRATION_BUDGET: int = 100 * MB


class CapacityError(ValueError):
    """Raised when a reservation would exceed a server capacity."""


class ServerTable:
    """Columnar store of every registered server's state.

    One *row* per server, indexed by the owning cloud's dense slot
    order (row ≡ slot).  Rows are appended on registration and shifted
    left in place on removal, so bound row views stay valid across
    membership changes once their row index is refreshed — the same
    compaction discipline the cloud's slot order follows.

    Columns are plain numpy arrays over a doubling capacity (managed by
    the shared :class:`~repro.util.columns.ColumnSet`); consumers must
    slice with ``[:len(table)]`` (the cloud's vector views do).
    """

    __slots__ = (
        "alive", "confidence", "monthly_rent", "storage_capacity",
        "storage_used", "query_capacity", "queries",
        "rep_cap", "rep_used", "mig_cap", "mig_used", "_n", "_cols",
    )

    _SPECS = (
        ColumnSpec("alive", bool),
        ColumnSpec("confidence", np.float64),
        ColumnSpec("monthly_rent", np.float64),
        ColumnSpec("storage_capacity", np.int64),
        ColumnSpec("storage_used", np.int64),
        ColumnSpec("query_capacity", np.int64),
        ColumnSpec("queries", np.float64),
        ColumnSpec("rep_cap", np.int64),
        ColumnSpec("rep_used", np.int64),
        ColumnSpec("mig_cap", np.int64),
        ColumnSpec("mig_used", np.int64),
    )

    def __init__(self, capacity: int = 1) -> None:
        self._cols = ColumnSet(self, self._SPECS, max(capacity, 1))
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def append_blank(self) -> int:
        """Claim a zeroed row; returns its index."""
        cols = self._cols
        if self._n >= cols.capacity:
            cols.grow()
        row = self._n
        # Re-zero explicitly: removal shifts leave stale tail copies.
        cols.clear_row(row)
        self._n += 1
        return row

    def adopt_row(self, src: "ServerTable", src_row: int) -> int:
        """Append a copy of one row of another table; returns the row."""
        row = self.append_blank()
        self._cols.copy_row(src._cols, src_row, row)
        return row

    def remove(self, row: int) -> None:
        """Delete a row, shifting later rows left (in place).

        The column arrays are mutated, never reallocated, so row views
        bound to this table survive — callers only re-point their row
        indices (the cloud does, for every slot after the gap).
        """
        n = self._n
        if not 0 <= row < n:
            raise CapacityError(f"no row {row} to remove (have {n})")
        self._cols.shift_remove(row, n)
        self._n = n - 1

    def begin_epoch(self) -> None:
        """Reset every row's per-epoch counters and bandwidth budgets."""
        n = self._n
        self.queries[:n] = 0.0
        self.rep_used[:n] = 0
        self.mig_used[:n] = 0

    def record_queries_at(self, rows: np.ndarray,
                          counts: np.ndarray) -> None:
        """Charge query counts to many *distinct* rows at once.

        Elementwise ``queries += count`` — the identical float64
        operation :meth:`Server.record_queries` performs per server,
        which is what keeps the batched settlement's per-server
        counters bit-identical to the scalar loop's.
        """
        self.queries[rows] += counts


class BandwidthBudget:
    """A per-epoch byte budget that transfers draw from.

    The paper reserves distinct budgets for replication and migration so
    background data movement cannot starve either activity.  ``reserve``
    is all-or-nothing: a transfer either fits in the remaining budget of
    this epoch or must wait for a later epoch.

    A budget constructed directly owns its two counters; one reached
    through a server is a view onto the server's table columns, so the
    cloud's budget vectors and the object API always agree.
    """

    __slots__ = ("_table", "_row", "_kind", "_capacity", "_used")

    def __init__(self, capacity: int, used: int = 0) -> None:
        if capacity < 0:
            raise CapacityError(f"capacity must be >= 0, got {capacity}")
        if not 0 <= used <= capacity:
            raise CapacityError(
                f"used must be in [0, {capacity}], got {used}"
            )
        self._table: Optional[ServerTable] = None
        self._row = -1
        self._kind = ""
        self._capacity = capacity
        self._used = used

    # -- row-view plumbing -------------------------------------------------

    def _cols(self):
        table = self._table
        if self._kind == "replication":
            return table.rep_cap, table.rep_used
        return table.mig_cap, table.mig_used

    def _bind(self, table: ServerTable, row: int, kind: str) -> None:
        """Write current values into the table columns and view them."""
        if self._table is not None and (
            self._table is not table
            or self._row != row
            or self._kind != kind
        ):
            # One budget object cannot view two rows: silently
            # re-pointing would desynchronize the first server's object
            # API from its columns.  Assign each server its own budget.
            raise CapacityError(
                "budget is already bound to another server's columns"
            )
        capacity, used = self.capacity, self.used
        self._table, self._row, self._kind = table, row, kind
        cap_col, used_col = self._cols()
        cap_col[row] = capacity
        used_col[row] = used

    def _attach(self, table: ServerTable, row: int, kind: str) -> None:
        """View an existing row without writing (values already there)."""
        self._table, self._row, self._kind = table, row, kind

    def _set_row(self, row: int) -> None:
        self._row = row

    # -- budget API --------------------------------------------------------

    @property
    def capacity(self) -> int:
        if self._table is None:
            return self._capacity
        return int(self._cols()[0][self._row])

    @property
    def used(self) -> int:
        if self._table is None:
            return self._used
        return int(self._cols()[1][self._row])

    @property
    def available(self) -> int:
        return self.capacity - self.used

    def _set_used(self, value: int) -> None:
        if self._table is None:
            self._used = value
        else:
            self._cols()[1][self._row] = value

    def can_reserve(self, nbytes: int) -> bool:
        return 0 <= nbytes <= self.available

    def reserve(self, nbytes: int) -> None:
        """Consume ``nbytes`` of this epoch's budget, or raise."""
        if nbytes < 0:
            raise CapacityError(f"cannot reserve negative bytes: {nbytes}")
        if nbytes > self.available:
            raise CapacityError(
                f"budget exhausted: need {nbytes}, have {self.available}"
            )
        self._set_used(self.used + nbytes)

    def release(self, nbytes: int) -> None:
        """Give back a failed reservation within the same epoch."""
        if not 0 <= nbytes <= self.used:
            raise CapacityError(
                f"cannot release {nbytes} bytes, only {self.used} used"
            )
        self._set_used(self.used - nbytes)

    def reset(self) -> None:
        """Start a new epoch with a full budget."""
        self._set_used(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BandwidthBudget):
            return NotImplemented
        return (self.capacity, self.used) == (other.capacity, other.used)

    def __repr__(self) -> str:
        return f"BandwidthBudget(capacity={self.capacity}, used={self.used})"


class Server:
    """One physical node of the data cloud — a :class:`ServerTable` row view.

    Attributes mirror the paper's model: a geographic :class:`Location`,
    a subjective ``confidence``, a ``monthly_rent`` in real currency, a
    raw storage capacity, a query-serving capacity (queries/epoch the
    access link sustains) and separate replication/migration budgets.

    The mutable state (``storage_used``, ``queries_this_epoch``, the
    budget counters) is maintained by the store and the simulator; the
    server object itself only enforces capacity invariants.  A directly
    constructed server owns a private single-row table;
    ``Cloud.add_servers`` adopts the row into the cloud's shared table
    (and removal detaches it back), so the same handle stays valid
    across registration.
    """

    __slots__ = (
        "server_id", "location", "_table", "_row",
        "_replication_budget", "_migration_budget",
    )

    def __init__(self, server_id: int, location: Location,
                 monthly_rent: float, storage_capacity: int,
                 query_capacity: int = 1_000_000,
                 confidence: float = 1.0,
                 replication_budget: Optional[BandwidthBudget] = None,
                 migration_budget: Optional[BandwidthBudget] = None,
                 storage_used: int = 0,
                 queries_this_epoch: float = 0.0,
                 alive: bool = True) -> None:
        if server_id < 0:
            raise ValueError(f"server_id must be >= 0, got {server_id}")
        if monthly_rent < 0:
            raise ValueError(f"monthly_rent must be >= 0, got {monthly_rent}")
        if storage_capacity <= 0:
            raise CapacityError(
                f"storage_capacity must be > 0, got {storage_capacity}"
            )
        if query_capacity <= 0:
            raise CapacityError(
                f"query_capacity must be > 0, got {query_capacity}"
            )
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(
                f"confidence must be in [0, 1], got {confidence}"
            )
        if not 0 <= storage_used <= storage_capacity:
            raise CapacityError(
                f"storage_used out of range: {storage_used}"
            )
        self.server_id = server_id
        self.location = location
        table = ServerTable(1)
        row = table.append_blank()
        table.alive[row] = alive
        table.confidence[row] = confidence
        table.monthly_rent[row] = monthly_rent
        table.storage_capacity[row] = storage_capacity
        table.storage_used[row] = storage_used
        table.query_capacity[row] = query_capacity
        table.queries[row] = queries_this_epoch
        self._table = table
        self._row = row
        if replication_budget is None:
            replication_budget = BandwidthBudget(DEFAULT_REPLICATION_BUDGET)
        if migration_budget is None:
            migration_budget = BandwidthBudget(DEFAULT_MIGRATION_BUDGET)
        replication_budget._bind(table, row, "replication")
        migration_budget._bind(table, row, "migration")
        self._replication_budget = replication_budget
        self._migration_budget = migration_budget

    # -- row-view plumbing -------------------------------------------------

    def _attach(self, table: ServerTable, row: int) -> None:
        """Point the view at an adopted row (values already copied)."""
        self._table = table
        self._row = row
        self._replication_budget._attach(table, row, "replication")
        self._migration_budget._attach(table, row, "migration")

    def _set_row(self, row: int) -> None:
        """Follow a table compaction (the slot order shifted)."""
        self._row = row
        self._replication_budget._set_row(row)
        self._migration_budget._set_row(row)

    def _detach(self) -> None:
        """Move state onto a private table (row is being released)."""
        private = ServerTable(1)
        row = private.adopt_row(self._table, self._row)
        self._attach(private, row)

    # -- column accessors --------------------------------------------------

    @property
    def monthly_rent(self) -> float:
        return float(self._table.monthly_rent[self._row])

    @property
    def storage_capacity(self) -> int:
        return int(self._table.storage_capacity[self._row])

    @property
    def query_capacity(self) -> int:
        return int(self._table.query_capacity[self._row])

    @property
    def confidence(self) -> float:
        return float(self._table.confidence[self._row])

    @property
    def storage_used(self) -> int:
        return int(self._table.storage_used[self._row])

    @property
    def queries_this_epoch(self) -> float:
        return float(self._table.queries[self._row])

    @property
    def alive(self) -> bool:
        return bool(self._table.alive[self._row])

    @property
    def replication_budget(self) -> BandwidthBudget:
        return self._replication_budget

    @replication_budget.setter
    def replication_budget(self, budget: BandwidthBudget) -> None:
        budget._bind(self._table, self._row, "replication")
        self._replication_budget = budget

    @property
    def migration_budget(self) -> BandwidthBudget:
        return self._migration_budget

    @migration_budget.setter
    def migration_budget(self, budget: BandwidthBudget) -> None:
        budget._bind(self._table, self._row, "migration")
        self._migration_budget = budget

    # -- storage ----------------------------------------------------------

    @property
    def storage_available(self) -> int:
        return self.storage_capacity - self.storage_used

    @property
    def storage_usage(self) -> float:
        """Fraction of storage in use, the eq. 1 ``storage_usage`` term."""
        return self.storage_used / self.storage_capacity

    def can_store(self, nbytes: int) -> bool:
        return self.alive and 0 <= nbytes <= self.storage_available

    def allocate_storage(self, nbytes: int) -> None:
        """Account for ``nbytes`` of new replica data, or raise."""
        if nbytes < 0:
            raise CapacityError(f"cannot allocate negative bytes: {nbytes}")
        if not self.alive:
            raise CapacityError(f"server {self.server_id} is down")
        if nbytes > self.storage_available:
            raise CapacityError(
                f"server {self.server_id} full: need {nbytes}, "
                f"have {self.storage_available}"
            )
        self._table.storage_used[self._row] += nbytes

    def free_storage(self, nbytes: int) -> None:
        """Account for replica data removed from this server."""
        if not 0 <= nbytes <= self.storage_used:
            raise CapacityError(
                f"cannot free {nbytes} bytes, only {self.storage_used} used"
            )
        self._table.storage_used[self._row] -= nbytes

    # -- queries -----------------------------------------------------------

    @property
    def query_load(self) -> float:
        """Fraction of query capacity used, the eq. 1 ``query_load`` term.

        May exceed 1.0 under overload; eq. 1 then prices the server high
        enough that unpopular virtual nodes move away.
        """
        return self.queries_this_epoch / self.query_capacity

    def record_queries(self, count: float) -> None:
        """Charge queries to this server; fractional shares are allowed.

        The simulator routes a partition's epoch queries to its replicas
        as (possibly fractional) shares rather than individual query
        objects, so the counter is a float.
        """
        if count < 0:
            raise ValueError(f"query count must be >= 0, got {count}")
        self._table.queries[self._row] += count

    # -- epoch lifecycle ----------------------------------------------------

    def begin_epoch(self) -> None:
        """Reset per-epoch counters and bandwidth budgets."""
        table, row = self._table, self._row
        table.queries[row] = 0.0
        table.rep_used[row] = 0
        table.mig_used[row] = 0

    def fail(self) -> None:
        """Mark the server as failed; its replicas are lost instantly."""
        self._table.alive[self._row] = False

    def restore(self) -> None:
        """Bring a failed server back, empty."""
        table, row = self._table, self._row
        table.alive[row] = True
        table.storage_used[row] = 0
        table.queries[row] = 0.0
        table.rep_used[row] = 0
        table.mig_used[row] = 0

    def __str__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return (
            f"Server#{self.server_id}[{self.location}] "
            f"{state} rent={self.monthly_rent}$ "
            f"store={self.storage_used}/{self.storage_capacity}"
        )


def make_server(server_id: int, location: Location, *,
                monthly_rent: float = 100.0,
                storage_capacity: int = 50 * GB,
                query_capacity: int = 1_000_000,
                confidence: float = 1.0,
                replication_budget: Optional[int] = None,
                migration_budget: Optional[int] = None) -> Server:
    """Convenience constructor with the paper's bandwidth defaults."""
    return Server(
        server_id=server_id,
        location=location,
        monthly_rent=monthly_rent,
        storage_capacity=storage_capacity,
        query_capacity=query_capacity,
        confidence=confidence,
        replication_budget=BandwidthBudget(
            DEFAULT_REPLICATION_BUDGET if replication_budget is None
            else replication_budget
        ),
        migration_budget=BandwidthBudget(
            DEFAULT_MIGRATION_BUDGET if migration_budget is None
            else migration_budget
        ),
    )
