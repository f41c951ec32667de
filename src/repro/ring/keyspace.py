"""Key ranges: half-open arcs of the hash ring owned by partitions.

A virtual node with token t owns keys hashing into (previous token, t]
(paper §I, following Dynamo).  :class:`KeyRange` models that arc with
wraparound, supports membership tests and splitting, and is the unit
the partition layer builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.ring.hashing import RING_SIZE, in_range, midpoint, ring_distance


class KeyRangeError(ValueError):
    """Raised for invalid range operations."""


@dataclass(frozen=True)
class KeyRange:
    """The half-open arc (start, end] on the 64-bit ring.

    ``start == end`` denotes the full ring (the arc wraps all the way
    around), which is the range of a ring with a single partition.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if not 0 <= self.start < RING_SIZE:
            raise KeyRangeError(f"start out of range: {self.start}")
        if not 0 <= self.end < RING_SIZE:
            raise KeyRangeError(f"end out of range: {self.end}")

    @property
    def span(self) -> int:
        """Number of ring positions covered (full ring when start==end)."""
        d = ring_distance(self.start, self.end)
        return RING_SIZE if d == 0 else d

    @property
    def fraction(self) -> float:
        """Share of the whole ring this arc covers, in (0, 1]."""
        return self.span / RING_SIZE

    def contains_position(self, position: int) -> bool:
        return in_range(position, self.start, self.end)

    def split(self) -> Tuple["KeyRange", "KeyRange"]:
        """Split at the arc midpoint into two adjacent half-arcs.

        The paper splits a partition once it exceeds its 256 MB capacity;
        the low half keeps (start, mid], the high half takes (mid, end].
        """
        if self.span < 2:
            raise KeyRangeError(f"range too small to split: {self}")
        mid = midpoint(self.start, self.end)
        return KeyRange(self.start, mid), KeyRange(mid, self.end)

    def __str__(self) -> str:
        return f"({self.start:#x}, {self.end:#x}]"


def ranges_from_tokens(tokens: List[int]) -> List[KeyRange]:
    """Partition the ring into arcs from a sorted unique token list.

    Arc i is (token[i-1], token[i]]; the first arc wraps from the last
    token.  A single token yields the full ring.
    """
    if not tokens:
        raise KeyRangeError("need at least one token")
    ordered = sorted(set(t % RING_SIZE for t in tokens))
    if len(ordered) != len(tokens):
        raise KeyRangeError("tokens must be unique")
    if len(ordered) == 1:
        t = ordered[0]
        return [KeyRange(t, t)]
    out = []
    for i, token in enumerate(ordered):
        prev = ordered[i - 1]
        out.append(KeyRange(prev, token))
    return out


def covers_ring(ranges: List[KeyRange]) -> bool:
    """Check that a set of arcs tiles the whole ring with no gap/overlap.

    This is the structural invariant every virtual ring maintains across
    partition splits; the property tests lean on it heavily.
    """
    if not ranges:
        return False
    if len(ranges) == 1:
        return ranges[0].span == RING_SIZE
    ordered = sorted(ranges, key=lambda r: r.start)
    total = 0
    for i, rng in enumerate(ordered):
        nxt = ordered[(i + 1) % len(ordered)]
        if rng.end != nxt.start:
            return False
        total += rng.span
    return total == RING_SIZE
