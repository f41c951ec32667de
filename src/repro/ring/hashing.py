"""Stable consistent hashing over a 64-bit ring.

Skute locates data with a variant of consistent hashing (paper §I): a
key is hashed onto a fixed circular space and owned by the partition
whose token range covers it, giving O(1) DHT lookups.  Hashes must be
stable across processes and runs (Python's builtin ``hash`` is salted),
so keys are digested with BLAKE2b truncated to 64 bits.
"""

from __future__ import annotations

import hashlib
from typing import Union

#: Size of the hash ring: positions live in [0, RING_SIZE).
RING_BITS: int = 64
RING_SIZE: int = 1 << RING_BITS

Key = Union[str, bytes, int]


class HashError(TypeError):
    """Raised for keys of unsupported type."""


def key_bytes(key: Key) -> bytes:
    """The canonical byte encoding of a key (what is hashed and stored)."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, int) and not isinstance(key, bool):
        # Fixed-width encoding so int keys hash consistently.
        return key.to_bytes(16, "big", signed=True)
    raise HashError(f"unsupported key type: {type(key).__name__}")


def hash_key(key: Key) -> int:
    """Position of ``key`` on the ring, a stable 64-bit integer."""
    digest = hashlib.blake2b(key_bytes(key), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def ring_distance(start: int, end: int) -> int:
    """Clockwise distance from ``start`` to ``end`` on the ring."""
    return (end - start) % RING_SIZE


def in_range(position: int, start: int, end: int) -> bool:
    """True when ``position`` lies in the half-open arc (start, end].

    Token ranges follow the paper/Dynamo convention: a virtual node with
    token t owns keys in (previous token, t].  An arc with ``start ==
    end`` covers the whole ring (single-token degenerate case).
    """
    position %= RING_SIZE
    start %= RING_SIZE
    end %= RING_SIZE
    if start == end:
        return True
    if start < end:
        return start < position <= end
    return position > start or position <= end


def midpoint(start: int, end: int) -> int:
    """Point halfway along the clockwise arc from ``start`` to ``end``.

    Splitting a partition at the midpoint of its arc halves its key
    space; for an arc covering the whole ring the antipode is returned.
    """
    span = ring_distance(start, end)
    if span == 0:
        span = RING_SIZE
    return (start + span // 2) % RING_SIZE
