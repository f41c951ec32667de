"""The data cloud: a collection of servers with cached pairwise diversity.

Builds the paper's evaluation layout (§III-A): 200 servers over 10
countries — 2 datacenters per country, 1 room per datacenter, 2 racks per
room, 5 servers per rack — and keeps an integer diversity matrix so the
per-epoch placement scoring (eq. 3) can be vectorised with numpy.

The cloud is elastic: servers can be added (resource upgrade) or removed
(failure) at runtime, as the Fig. 3 experiment requires.  Server ids are
never reused so historical metrics stay unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.confidence import ConfidenceModel, uniform_confidence
from repro.cluster.location import (
    Location,
    NUM_LEVELS,
    diversity,
    diversity_from_depth,
)
from repro.cluster.server import GB, Server, ServerTable, make_server


class TopologyError(ValueError):
    """Raised for invalid topology layouts or unknown servers."""


@dataclass(frozen=True)
class CloudLayout:
    """Shape of a regularly-structured cloud, paper defaults included.

    ``countries_per_continent`` spreads the countries over continents so
    that both cross-country (31) and cross-continent (63) diversities
    occur; the paper speaks only of "10 countries", so the continent
    grouping is a free parameter (default: 2 countries per continent,
    i.e. 5 continents).
    """

    countries: int = 10
    countries_per_continent: int = 2
    datacenters_per_country: int = 2
    rooms_per_datacenter: int = 1
    racks_per_room: int = 2
    servers_per_rack: int = 5

    def __post_init__(self) -> None:
        for name in (
            "countries",
            "countries_per_continent",
            "datacenters_per_country",
            "rooms_per_datacenter",
            "racks_per_room",
            "servers_per_rack",
        ):
            if getattr(self, name) <= 0:
                raise TopologyError(f"{name} must be > 0")

    @property
    def total_servers(self) -> int:
        return (
            self.countries
            * self.datacenters_per_country
            * self.rooms_per_datacenter
            * self.racks_per_room
            * self.servers_per_rack
        )

    def locations(self) -> Iterator[Location]:
        """Yield every server location of the layout, in a stable order."""
        for country in range(self.countries):
            continent = country // self.countries_per_continent
            country_in_continent = country % self.countries_per_continent
            for dc in range(self.datacenters_per_country):
                for room in range(self.rooms_per_datacenter):
                    for rack in range(self.racks_per_room):
                        for srv in range(self.servers_per_rack):
                            yield Location(
                                continent=continent,
                                country=country_in_continent,
                                datacenter=dc,
                                room=room,
                                rack=rack,
                                server=srv,
                            )


#: Paper §III-A layout: exactly 200 servers.
PAPER_LAYOUT = CloudLayout()


class Cloud:
    """Mutable set of servers plus a cached pairwise diversity matrix.

    The matrix is indexed by *dense slots*, a compaction of the live
    server ids: ``slot_of[server_id]`` gives the row/column.  Rebuilt
    incrementally on arrivals and lazily compacted on removals, it keeps
    eq. 3 candidate scoring a single numpy expression per virtual node.

    Server state itself is columnar: registration adopts each server's
    row into the cloud-owned :class:`~repro.cluster.server.ServerTable`
    (row ≡ slot), so per-epoch resets, the eq. 1 pricing inputs and
    every per-slot vector view below are single array operations over
    the table's columns instead of O(S) Python loops over objects.
    """

    def __init__(self, servers: Iterable[Server] = ()) -> None:
        self._servers: Dict[int, Server] = {}
        self._slot_of: Dict[int, int] = {}
        self._server_at_slot: List[int] = []
        self._table = ServerTable()
        self._diversity: np.ndarray = np.zeros((0, 0), dtype=np.int16)
        self._next_id = 0
        self._version = 0
        self._slot_lookup: Optional[Tuple[int, np.ndarray]] = None
        self._location_ids: Optional[Tuple[int, List[int]]] = None
        self._continent_ids: Optional[Tuple[int, np.ndarray]] = None
        self.add_servers(servers)

    @property
    def version(self) -> int:
        """Monotone membership counter (bumped on add/remove).

        Slot order, the diversity matrix and per-slot caches are stable
        between two equal version reads; derived slot-ordered structures
        (cost vectors, the epoch kernel's incidence caches) key off it.
        """
        return self._version

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._servers)

    def __contains__(self, server_id: int) -> bool:
        return server_id in self._servers

    def __iter__(self) -> Iterator[Server]:
        return iter(self._servers.values())

    @property
    def server_ids(self) -> List[int]:
        """Live server ids in slot order (stable across an epoch)."""
        return list(self._server_at_slot)

    def server(self, server_id: int) -> Server:
        try:
            return self._servers[server_id]
        except KeyError:
            raise TopologyError(f"unknown server id {server_id}") from None

    def servers(self) -> List[Server]:
        return [self._servers[sid] for sid in self._server_at_slot]

    def slot(self, server_id: int) -> int:
        try:
            return self._slot_of[server_id]
        except KeyError:
            raise TopologyError(f"unknown server id {server_id}") from None

    @property
    def slot_map(self) -> Dict[int, int]:
        """The live ``server_id -> slot`` dict (treat as read-only).

        Per-pair hot loops (eq. 2 deltas) read it with ``.get`` instead
        of paying a membership test plus :meth:`slot` per server.
        """
        return self._slot_of

    @property
    def table(self) -> ServerTable:
        """The cloud-owned server column store (row ≡ slot).

        Treat the columns as read-only — all mutation flows through the
        :class:`Server` row views so capacity invariants keep holding.
        """
        return self._table

    @property
    def total_storage_capacity(self) -> int:
        n = len(self._table)
        return int(self._table.storage_capacity[:n].sum())

    @property
    def total_storage_used(self) -> int:
        n = len(self._table)
        return int(self._table.storage_used[:n].sum())

    # -- diversity ----------------------------------------------------------

    def diversity(self, a: int, b: int) -> int:
        """Pairwise diversity of two live servers, from the cache."""
        return int(self._diversity[self.slot(a), self.slot(b)])

    def diversity_row(self, server_id: int) -> np.ndarray:
        """Diversity of one server against all live servers, slot order."""
        return self._diversity[self.slot(server_id)]

    def diversity_matrix(self) -> np.ndarray:
        """The full (read-only view) pairwise diversity matrix."""
        view = self._diversity.view()
        view.flags.writeable = False
        return view

    def location_ids(self) -> List[int]:
        """Each slot's :class:`Location` interned to a small int.

        Equal locations ⇔ equal ids, so a sorted id tuple names the
        same placement class as the sorted location tuple — without the
        dataclass ``__lt__``/``__hash__`` walks.  Cached per
        :attr:`version` (the vector beside :meth:`diversity_matrix`);
        treat as read-only.
        """
        cached = self._location_ids
        if cached is None or cached[0] != self._version:
            intern: Dict[Location, int] = {}
            servers = self._servers
            ids = [
                intern.setdefault(servers[sid].location, len(intern))
                for sid in self._server_at_slot
            ]
            cached = (self._version, ids)
            self._location_ids = cached
        return cached[1]

    def continent_ids(self) -> np.ndarray:
        """Each slot's continent as a dense small int (read-only).

        Different continents ⇒ diversity 63, one continent ⇒ at most
        31.  Cached per :attr:`version`, beside :meth:`location_ids`.
        """
        cached = self._continent_ids
        if cached is None or cached[0] != self._version:
            raw = [self._servers[sid].location.continent
                   for sid in self._server_at_slot]
            dense = np.unique(raw, return_inverse=True)[1].reshape(-1)
            cached = self._continent_ids = (self._version, dense)
        return cached[1]

    # -- mutation -----------------------------------------------------------

    def add_server(self, server: Server) -> Server:
        """Register a server and extend the diversity matrix by one slot."""
        if server.server_id in self._servers:
            raise TopologyError(f"duplicate server id {server.server_id}")
        n = len(self._server_at_slot)
        grown = np.zeros((n + 1, n + 1), dtype=np.int16)
        grown[:n, :n] = self._diversity
        for slot, other_id in enumerate(self._server_at_slot):
            other = self._servers[other_id]
            d = diversity(server.location, other.location)
            grown[n, slot] = d
            grown[slot, n] = d
        self._diversity = grown
        self._adopt(server, n)
        self._version += 1
        return server

    def _adopt(self, server: Server, slot: int) -> None:
        """Copy a server's row into the cloud table at ``slot``."""
        row = self._table.adopt_row(server._table, server._row)
        assert row == slot
        server._attach(self._table, row)
        self._servers[server.server_id] = server
        self._slot_of[server.server_id] = slot
        self._server_at_slot.append(server.server_id)
        self._next_id = max(self._next_id, server.server_id + 1)

    def add_servers(self, servers: Iterable[Server]) -> None:
        """Register many servers with one vectorized matrix extension.

        Appending one server at a time re-allocates (and copies) the
        whole diversity matrix per addition — O(n³) cumulative work that
        makes 10 000+-server clouds unbuildable.  This path appends all
        new slots at once and fills their rows with a chunked numpy
        prefix-similarity computation; values and slot order are
        identical to repeated :meth:`add_server` calls.
        """
        new = list(servers)
        if not new:
            return
        seen = set(self._servers)
        for server in new:
            if server.server_id in seen:
                raise TopologyError(
                    f"duplicate server id {server.server_id}"
                )
            seen.add(server.server_id)
        n_old = len(self._server_at_slot)
        n = n_old + len(new)
        grown = np.zeros((n, n), dtype=np.int16)
        grown[:n_old, :n_old] = self._diversity
        parts = np.array(
            [
                self._servers[sid].location.parts()
                for sid in self._server_at_slot
            ]
            + [server.location.parts() for server in new],
            dtype=np.int64,
        ).reshape(n, NUM_LEVELS)
        # Canonical per-depth prefix codes: two servers share the first
        # d+1 location levels iff codes[d] matches (codes fold the
        # parent code with the level value through np.unique, so
        # equality is exact — no hashing).
        codes = np.zeros((NUM_LEVELS, n), dtype=np.int64)
        parent = np.zeros(n, dtype=np.int64)
        for d in range(NUM_LEVELS):
            pair = np.stack([parent, parts[:, d]], axis=1)
            __, parent = np.unique(pair, axis=0, return_inverse=True)
            codes[d] = parent
        # Diversity tabulated by shared-prefix depth — the same
        # function the incremental path applies pair by pair.
        lut = np.array(
            [diversity_from_depth(d) for d in range(NUM_LEVELS + 1)],
            dtype=np.int16,
        )
        # Chunk the new rows so per-level comparison temporaries stay
        # modest even for 10⁴-server clouds.
        chunk = max(1, (128 << 20) // max(n * 8, 1))
        for start in range(n_old, n, chunk):
            stop = min(start + chunk, n)
            depth = np.zeros((stop - start, n), dtype=np.int8)
            for d in range(NUM_LEVELS):
                depth += codes[d, start:stop, None] == codes[d, None, :]
            grown[start:stop, :] = lut[depth]
        # Mirror the new rows into the new columns in one pass (writing
        # per-chunk column stripes is a strided-scatter hot spot).
        grown[:n_old, n_old:] = grown[n_old:, :n_old].T
        self._diversity = grown
        for offset, server in enumerate(new):
            self._adopt(server, n_old + offset)
        self._version += 1

    def spawn_server(self, location: Location, **kwargs) -> Server:
        """Create and register a server with the next free id."""
        server = make_server(self._next_id, location, **kwargs)
        return self.add_server(server)

    def spawn_servers(
        self, locations: Sequence[Location], **kwargs
    ) -> List[Server]:
        """Create and register a wave of servers with consecutive ids.

        Identical ids, slot order and diversity values to calling
        :meth:`spawn_server` per location, but the matrix extension is
        the one bulk computation of :meth:`add_servers` instead of a
        full reallocate-and-copy per arrival — a 100-server join wave
        on a 20 000-server cloud is one matrix build, not ~80 GB of
        repeated copies.
        """
        servers = [
            make_server(self._next_id + offset, location, **kwargs)
            for offset, location in enumerate(locations)
        ]
        self.add_servers(servers)
        return servers

    def remove_server(self, server_id: int) -> Server:
        """Remove a server (crash or decommission) and compact the matrix.

        The returned handle detaches onto a private single-row table,
        so callers holding it still read the server's final state; the
        cloud table's later rows shift left (row ≡ slot is preserved)
        and the surviving row views follow.
        """
        server = self.server(server_id)
        gone = self._slot_of.pop(server_id)
        del self._servers[server_id]
        self._server_at_slot.pop(gone)
        keep = [s for s in range(self._diversity.shape[0]) if s != gone]
        self._diversity = self._diversity[np.ix_(keep, keep)]
        server._detach()
        self._table.remove(gone)
        for slot, sid in enumerate(self._server_at_slot):
            self._slot_of[sid] = slot
            if slot >= gone:
                self._servers[sid]._set_row(slot)
        server.fail()
        self._version += 1
        return server

    def remove_servers(self, server_ids: Sequence[int]) -> List[Server]:
        """Remove a wave of servers with one matrix compaction.

        Equivalent to calling :meth:`remove_server` per id — survivors
        keep their relative slot order either way — but the diversity
        matrix pays a single keep-gather instead of one full-matrix
        copy per removal.
        """
        victims = [self.server(sid) for sid in server_ids]
        if len(victims) <= 1:
            return [self.remove_server(sid) for sid in server_ids]
        gone_slots = sorted(self._slot_of[v.server_id] for v in victims)
        keep = np.delete(
            np.arange(self._diversity.shape[0]), gone_slots
        )
        self._diversity = self._diversity[np.ix_(keep, keep)]
        # Table rows shift left per removal (row ≡ slot must hold for
        # the survivors' views).  Walking the doomed slots from the
        # right keeps each pending slot index valid; the per-victim
        # table shift is a small columnar move — the matrix copy above
        # was the wall.
        for server in sorted(
            victims, key=lambda v: self._slot_of[v.server_id],
            reverse=True,
        ):
            gone = self._slot_of.pop(server.server_id)
            del self._servers[server.server_id]
            self._server_at_slot.pop(gone)
            server._detach()
            self._table.remove(gone)
            server.fail()
        for slot, sid in enumerate(self._server_at_slot):
            self._slot_of[sid] = slot
            self._servers[sid]._set_row(slot)
        self._version += 1
        return victims

    def begin_epoch(self) -> None:
        """Reset per-epoch counters on every server (one column pass)."""
        self._table.begin_epoch()

    # -- vector views (for placement scoring) --------------------------------

    def rent_vector(self, prices: Dict[int, float]) -> np.ndarray:
        """Per-slot vector of virtual rent prices from a price mapping."""
        return np.array(
            [prices[sid] for sid in self._server_at_slot], dtype=np.float64
        )

    def confidence_vector(self) -> np.ndarray:
        n = len(self._table)
        return self._table.confidence[:n].copy()

    def capacity_vector(self) -> np.ndarray:
        """Per-slot storage capacities (fresh copy of the table column)."""
        n = len(self._table)
        return self._table.storage_capacity[:n].copy()

    def monthly_rent_vector(self) -> np.ndarray:
        """Per-slot real monthly rents (fresh copy of the table column)."""
        n = len(self._table)
        return self._table.monthly_rent[:n].copy()

    def query_capacity_vector(self) -> np.ndarray:
        """Per-slot query capacities (fresh copy of the table column)."""
        n = len(self._table)
        return self._table.query_capacity[:n].copy()

    def alive_vector(self) -> np.ndarray:
        """Per-slot liveness flags (fresh copy — alive is mutable
        outside membership changes, e.g. transient failures)."""
        n = len(self._table)
        return self._table.alive[:n].copy()

    def storage_available_vector(self) -> np.ndarray:
        n = len(self._table)
        table = self._table
        return table.storage_capacity[:n] - table.storage_used[:n]

    def storage_used_vector(self) -> np.ndarray:
        """Per-slot storage-used bytes (fresh copy of the table column)."""
        n = len(self._table)
        return self._table.storage_used[:n].copy()

    def queries_vector(self) -> np.ndarray:
        """Per-slot epoch query counters (fresh copy of the column)."""
        n = len(self._table)
        return self._table.queries[:n].copy()

    def budget_available_vector(self, kind: str) -> np.ndarray:
        """Remaining per-epoch bandwidth of every server, slot order.

        ``kind`` is ``"replication"`` or ``"migration"``; one array
        subtraction over the table's budget column pair.
        """
        n = len(self._table)
        table = self._table
        if kind == "replication":
            return table.rep_cap[:n] - table.rep_used[:n]
        if kind == "migration":
            return table.mig_cap[:n] - table.mig_used[:n]
        raise TopologyError(f"unknown budget kind {kind!r}")

    def record_queries_at(self, slots: np.ndarray,
                          counts: np.ndarray) -> None:
        """Charge per-slot query totals (batched settlement handoff)."""
        if np.any(counts < 0):
            raise TopologyError("query counts must be >= 0")
        n = len(self._table)
        if len(slots) and (np.min(slots) < 0 or np.max(slots) >= n):
            # Hidden capacity rows would swallow the counts silently;
            # a stale slot index must fail like an unknown server id.
            raise TopologyError(f"slot out of range for {n} servers")
        self._table.record_queries_at(slots, counts)

    def slot_lookup(self) -> np.ndarray:
        """Dense ``server_id -> slot`` map (−1 = unknown id).

        Sized ``max(id) + 2`` so callers can clip unknown ids to the
        sentinel tail.  Cached per :attr:`version`; treat as read-only.
        Assumes the engine's id discipline — ids are assigned
        sequentially and never reused, so ``max(id)`` stays O(servers
        ever added); a sparse gigantic id space would make this map
        large (the epoch kernel's own id→slot gather in `_flat_state`
        shares the same assumption).
        """
        cached = self._slot_lookup
        if cached is not None and cached[0] == self._version:
            return cached[1]
        n = len(self._server_at_slot)
        max_id = max(self._server_at_slot) if n else 0
        lookup = np.full(max_id + 2, -1, dtype=np.int64)
        if n:
            ids = np.asarray(self._server_at_slot, dtype=np.int64)
            lookup[ids] = np.arange(n)
        self._slot_lookup = (self._version, lookup)
        return lookup


def build_cloud(layout: CloudLayout = PAPER_LAYOUT, *,
                storage_capacity: int = 50 * GB,
                query_capacity: int = 1_000_000,
                expensive_fraction: float = 0.3,
                cheap_rent: float = 100.0,
                expensive_rent: float = 125.0,
                confidence: Optional[ConfidenceModel] = None,
                rng: Optional[np.random.Generator] = None) -> Cloud:
    """Build a cloud per the paper's evaluation setup.

    70 % of servers cost 100$/month and 30 % cost 125$ (§III-A); which
    servers are expensive is chosen uniformly at random from ``rng`` (or
    deterministically — the last 30 % in layout order — when no rng is
    given, which keeps unit tests reproducible without seeding).
    """
    if not 0.0 <= expensive_fraction <= 1.0:
        raise TopologyError(
            f"expensive_fraction must be in [0, 1], got {expensive_fraction}"
        )
    model = confidence if confidence is not None else uniform_confidence()
    locations = list(layout.locations())
    n = len(locations)
    n_expensive = round(n * expensive_fraction)
    if rng is None:
        expensive_ids = set(range(n - n_expensive, n))
    else:
        expensive_ids = set(
            rng.choice(n, size=n_expensive, replace=False).tolist()
        )
    return Cloud(
        make_server(
            server_id,
            location,
            monthly_rent=(
                expensive_rent if server_id in expensive_ids else cheap_rent
            ),
            storage_capacity=storage_capacity,
            query_capacity=query_capacity,
            confidence=model.for_server(server_id, location),
        )
        for server_id, location in enumerate(locations)
    )


def fresh_locations(layout: CloudLayout, existing: Sequence[Location],
                    count: int) -> List[Location]:
    """Pick ``count`` locations for new servers, reusing the layout's racks.

    New servers join existing racks round-robin (extra slots in a rack),
    mimicking capacity upgrades in place rather than new datacenters.
    """
    if count < 0:
        raise TopologyError(f"count must be >= 0, got {count}")
    taken = set(existing)
    racks: List[Tuple[int, ...]] = []
    seen = set()
    for loc in layout.locations():
        rack_key = loc.prefix(5)
        if rack_key not in seen:
            seen.add(rack_key)
            racks.append(rack_key)
    out: List[Location] = []
    next_index: Dict[Tuple[int, ...], int] = {}
    rack_cycle = 0
    while len(out) < count:
        rack_key = racks[rack_cycle % len(racks)]
        rack_cycle += 1
        idx = next_index.get(rack_key, layout.servers_per_rack)
        candidate = Location.from_parts(rack_key + (idx,))
        while candidate in taken:
            idx += 1
            candidate = Location.from_parts(rack_key + (idx,))
        next_index[rack_key] = idx + 1
        taken.add(candidate)
        out.append(candidate)
    return out
