"""Geographic location model and the 6-bit diversity metric.

The paper (§II-B) identifies every server by a six-level geographic path:
continent, country, datacenter, room, rack and server, with leftmost
significance.  The *similarity* of two servers is a 6-bit number whose
bits, from the most significant down, record whether the corresponding
location parts are equal.  *Diversity* is the bitwise NOT of similarity
restricted to 6 bits, e.g. two servers sharing continent, country and
datacenter but sitting in different rooms have similarity ``111000`` and
diversity ``000111`` = 7.

Because the hierarchy is strict (a "room 0" in two different datacenters
is not the same room), similarity is *prefix* based: once one level
differs, every deeper level is counted as different as well.  This
matches the paper's worked example and keeps the metric an ultrametric-
like distance on the location tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

#: Names of the six location levels, most significant first.
LEVELS: Tuple[str, ...] = (
    "continent",
    "country",
    "datacenter",
    "room",
    "rack",
    "server",
)

#: Number of location levels / bits in the diversity value.
NUM_LEVELS: int = len(LEVELS)

#: Mask of all-ones over the six similarity bits.
FULL_MASK: int = (1 << NUM_LEVELS) - 1

#: Diversity between two servers that share nothing (different continents).
MAX_DIVERSITY: int = FULL_MASK

#: Diversity between two replicas placed in different countries of the
#: same continent — the smallest pairwise diversity that still survives a
#: country-wide outage.  Used as the default unit for availability targets.
CROSS_COUNTRY_DIVERSITY: int = FULL_MASK >> 1


class LocationError(ValueError):
    """Raised for malformed location paths."""


@dataclass(frozen=True, order=True)
class Location:
    """A full six-level location path for one server.

    Components are small integers naming the entity *within its parent*
    (country 2 means "the third country of that continent").  Equality of
    a level is therefore only meaningful when all shallower levels match,
    which is exactly what :func:`similarity` implements.
    """

    continent: int
    country: int
    datacenter: int
    room: int
    rack: int
    server: int

    def __post_init__(self) -> None:
        for name in LEVELS:
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise LocationError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise LocationError(f"{name} must be >= 0, got {value}")

    def parts(self) -> Tuple[int, ...]:
        """Return the path as a tuple, most significant level first."""
        return (
            self.continent,
            self.country,
            self.datacenter,
            self.room,
            self.rack,
            self.server,
        )

    def prefix(self, depth: int) -> Tuple[int, ...]:
        """Return the first ``depth`` levels of the path.

        ``depth`` 0 is the empty prefix; ``depth`` 6 is the whole path.
        """
        if not 0 <= depth <= NUM_LEVELS:
            raise LocationError(f"depth must be in [0, {NUM_LEVELS}], got {depth}")
        return self.parts()[:depth]

    def same_prefix(self, other: "Location", depth: int) -> bool:
        """True when both locations agree on the first ``depth`` levels."""
        return self.prefix(depth) == other.prefix(depth)

    def ancestors(self) -> Iterator[Tuple[int, ...]]:
        """Yield every non-empty prefix, shallowest first."""
        for depth in range(1, NUM_LEVELS + 1):
            yield self.prefix(depth)

    def __str__(self) -> str:
        return "/".join(
            f"{name[:2]}{value}" for name, value in zip(LEVELS, self.parts())
        )

    @classmethod
    def from_parts(cls, parts: Tuple[int, ...]) -> "Location":
        """Build a location from a 6-tuple (most significant first)."""
        if len(parts) != NUM_LEVELS:
            raise LocationError(
                f"need {NUM_LEVELS} parts, got {len(parts)}: {parts!r}"
            )
        return cls(*parts)


def shared_depth(a: Location, b: Location) -> int:
    """Number of leading location levels on which ``a`` and ``b`` agree."""
    if a.continent != b.continent:
        return 0
    if a.country != b.country:
        return 1
    if a.datacenter != b.datacenter:
        return 2
    if a.room != b.room:
        return 3
    if a.rack != b.rack:
        return 4
    if a.server != b.server:
        return 5
    return 6


#: Diversity by shared-prefix depth: ``depth`` leading similarity ones,
#: complemented over six bits (depth 0 -> 63, depth 6 -> 0).
_DIVERSITY_AT_DEPTH: Tuple[int, ...] = tuple(
    FULL_MASK >> depth for depth in range(NUM_LEVELS + 1)
)


def similarity(a: Location, b: Location) -> int:
    """6-bit prefix similarity of two locations (paper §II-B).

    Bit 5 (MSB) is the continent, bit 0 the server.  A bit is 1 only when
    the corresponding level *and every shallower level* match.
    """
    return FULL_MASK ^ _DIVERSITY_AT_DEPTH[shared_depth(a, b)]


def diversity(a: Location, b: Location) -> int:
    """Geographic diversity: bitwise NOT of :func:`similarity` over 6 bits.

    Ranges from 0 (identical server) to :data:`MAX_DIVERSITY` (different
    continents).  Symmetric, and ``diversity(a, a) == 0``.
    """
    return _DIVERSITY_AT_DEPTH[shared_depth(a, b)]


def diversity_from_depth(depth: int) -> int:
    """Diversity value implied by a shared-prefix depth.

    ``depth=6`` (same server) gives 0; ``depth=0`` gives 63.  Useful for
    reasoning about thresholds without concrete locations.
    """
    if not 0 <= depth <= NUM_LEVELS:
        raise LocationError(f"depth must be in [0, {NUM_LEVELS}], got {depth}")
    return _DIVERSITY_AT_DEPTH[depth]
