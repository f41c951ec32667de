"""The data cloud: a collection of servers and their per-level prefix codes.

Builds the paper's evaluation layout (§III-A): 200 servers over 10
countries — 2 datacenters per country, 1 room per datacenter, 2 racks per
room, 5 servers per rack.  Diversity (§II-B) is stored as six canonical
prefix codes per server, one per location level: two servers share the
first ``k+1`` levels iff their level-k codes match, so

    diversity(a, b) = Σ_k 2^(5−k) · [code_k(a) ≠ code_k(b)]

and eq. 2/eq. 3's per-set diversity sums are six bincount-and-gather
passes in exact small integers — O(S) state, no S×S matrix.

The cloud is elastic: servers can be added (resource upgrade) or removed
(failure) at runtime, as the Fig. 3 experiment requires.  Server ids are
never reused so historical metrics stay unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.confidence import ConfidenceModel, uniform_confidence
from repro.cluster.location import Location, NUM_LEVELS, diversity
from repro.cluster.server import GB, Server, ServerTable, make_server

#: Each level's row index (a column, for broadcasting against the codes)
#: and the diversity bit a mismatch at that level sets, most significant
#: first.
_LEVEL_ROWS = np.arange(NUM_LEVELS)[:, None]
_LEVEL_BITS = np.array(
    [1 << (NUM_LEVELS - 1 - k) for k in range(NUM_LEVELS)], dtype=np.float64
)


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
    """Mutable set of servers plus their per-level prefix codes.

    Everything per server is indexed by *dense slots*, a compaction of
    the live server ids (``slot_of[server_id]``): the slot-ordered
    :class:`Location` list and the ``(levels, S)`` code array rebuilt
    from it on every membership change, which is what keeps eq. 3
    candidate scoring a handful of numpy expressions per replica set.

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
        self._locations: List[Location] = []
        self._table = ServerTable()
        self._codes = np.zeros((NUM_LEVELS, 0), dtype=np.int64)
        self._next_id = 0
        self._version = 0
        self.add_servers(servers)

    @property
    def version(self) -> int:
        """Monotone membership counter (bumped on add/remove).

        Slot order, the prefix codes and per-slot caches are stable
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
    def locations(self) -> List[Location]:
        """The live slot-ordered :class:`Location` list (read-only)."""
        return self._locations

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
        """§II-B diversity of two live servers (by id)."""
        return diversity(self.server(a).location, self.server(b).location)

    def diversity_between(self, a, b) -> np.ndarray:
        """Diversity of slot indices ``a`` against ``b``, broadcast.

        The per-level mismatch bits of ``a`` and ``b``'s prefix codes,
        most significant first — ``63 >> shared_depth`` as a ``uint8``
        array of the broadcast shape.
        """
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        div = np.zeros(shape, dtype=np.uint8)
        for level in self._codes:
            div <<= 1
            div |= level[a] != level[b]
        return div

    def diversity_sum(self, slots: Sequence[int]) -> np.ndarray:
        """``Σ_{b∈slots} diversity(b, j)`` for every slot ``j``.

        Per level, ``|B| − bincount(code_k[B])[code_k]`` counts the
        members whose level-k prefix differs from ``j``'s; the six
        counts weighted ``2^(5−k)`` are the sum, in O(levels · S)
        whatever ``|B|`` is.  Every term is a small integer, so the
        float64 result is exact and order-independent.
        """
        n = len(self._locations)
        codes = self._codes
        members = np.bincount(
            (codes[:, slots] + _LEVEL_ROWS * n).ravel(),
            minlength=NUM_LEVELS * n,
        ).reshape(NUM_LEVELS, n)
        return _LEVEL_BITS @ (len(slots) - members[_LEVEL_ROWS, codes])

    def location_ids(self) -> np.ndarray:
        """Each slot's level-5 prefix code: equal locations ⇔ equal ids.

        A sorted id tuple therefore names the same placement class as
        the sorted location tuple (read-only; valid for one
        :attr:`version`).
        """
        return self._codes[NUM_LEVELS - 1]

    def continent_ids(self) -> np.ndarray:
        """Each slot's continent as a dense small int — the level-0 code.

        Different continents ⇒ diversity 63, one continent ⇒ at most
        31 (read-only; valid for one :attr:`version`).
        """
        return self._codes[0]

    def _recode(self) -> None:
        """Rebuild the prefix codes after a membership change.

        Level k folds the level-(k−1) code with the dense rank of the
        level-k location part (``parent · n + rank`` < n², exact — no
        hashing), so codes are dense and two slots share the first k+1
        levels iff their level-k codes match.
        """
        n = len(self._locations)
        parts = np.array(
            [loc.parts() for loc in self._locations], dtype=np.int64
        ).reshape(n, NUM_LEVELS)
        codes = np.zeros((NUM_LEVELS, n), dtype=np.int64)
        parent = np.zeros(n, dtype=np.int64)
        for level in range(NUM_LEVELS):
            rank = np.unique(parts[:, level], return_inverse=True)[1]
            parent = np.unique(parent * n + rank, return_inverse=True)[1]
            codes[level] = parent
        codes.flags.writeable = False
        self._codes = codes
        self._version += 1

    # -- mutation -----------------------------------------------------------

    def add_servers(self, servers: Iterable[Server]) -> None:
        """Register a wave of servers and recode the cloud once.

        Each server's row is copied into the cloud table at the next
        slot; the handles keep viewing their rows from then on.
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
        for server in new:
            row = self._table.adopt_row(server._table, server._row)
            server._attach(self._table, row)
            self._servers[server.server_id] = server
            self._slot_of[server.server_id] = row
            self._server_at_slot.append(server.server_id)
            self._locations.append(server.location)
            self._next_id = max(self._next_id, server.server_id + 1)
        self._recode()

    def spawn_servers(
        self, locations: Sequence[Location], **kwargs
    ) -> List[Server]:
        """Create and register a wave of servers with consecutive ids."""
        servers = [
            make_server(self._next_id + offset, location, **kwargs)
            for offset, location in enumerate(locations)
        ]
        self.add_servers(servers)
        return servers

    def remove_server(self, server_id: int) -> Server:
        """Remove one server (see :meth:`remove_servers`)."""
        return self.remove_servers([server_id])[0]

    def remove_servers(self, server_ids: Sequence[int]) -> List[Server]:
        """Remove a wave of servers (crash or decommission).

        The whole wave is validated first: an unknown or repeated id
        raises :class:`TopologyError` with the cloud untouched.  Each
        returned handle detaches onto a private single-row table, so
        callers holding it still read the server's final state; the
        cloud table's later rows shift left (row ≡ slot is preserved)
        and the surviving row views follow.
        """
        ids = list(server_ids)
        victims = [self.server(sid) for sid in ids]
        if len(set(ids)) != len(ids):
            raise TopologyError(f"repeated server id in {ids}")
        if not ids:
            return victims
        # Walking the doomed slots from the right keeps each pending
        # slot index valid while the table shifts left.
        for slot in sorted((self._slot_of[sid] for sid in ids),
                           reverse=True):
            server = self._servers.pop(self._server_at_slot.pop(slot))
            del self._slot_of[server.server_id]
            del self._locations[slot]
            server._detach()
            self._table.remove(slot)
            server.fail()
        for slot, sid in enumerate(self._server_at_slot):
            self._slot_of[sid] = slot
            self._servers[sid]._set_row(slot)
        self._recode()
        return victims

    def begin_epoch(self) -> None:
        """Reset per-epoch counters on every server (one column pass)."""
        self._table.begin_epoch()

    # -- vector views (for placement scoring) --------------------------------

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

    def migration_capacity_vector(self) -> np.ndarray:
        """Per-slot migration budget capacities: a partition larger
        than its source's moves on the replication budget (§II-C)."""
        return self._table.mig_cap[:len(self._table)].copy()

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
        sentinel tail; a fresh array per call.  Assumes the engine's id
        discipline — ids are assigned sequentially and never reused, so
        ``max(id)`` stays O(servers ever added); a sparse gigantic id
        space would make this map large.
        """
        n = len(self._server_at_slot)
        max_id = max(self._server_at_slot) if n else 0
        lookup = np.full(max_id + 2, -1, dtype=np.int64)
        if n:
            ids = np.asarray(self._server_at_slot, dtype=np.int64)
            lookup[ids] = np.arange(n)
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
            confidence=model.for_location(location),
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
