"""The Zipf key universe the serving overlays' load generator draws from.

Both overlay instances (front door and data plane) issue gets and puts
over a fixed universe of keys whose rank ``i`` is drawn with
probability ∝ 1/(i+1) — the skew shape the query-popularity model uses.
:class:`ZipfKeys` is the single definition of that weight vector and of
how a key is drawn from it.

A draw is one inverse-CDF lookup: the cumulative vector is built once
and each draw bisects it with a single uniform double.  That is what
``Generator.choice(n, p=p)`` does internally — minus re-validating and
re-accumulating ``p`` on every call — so it consumes the same double
and returns the same index (``tests/workload/test_keys.py`` pins the
equivalence), which keeps every seeded client stream where it was.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Tuple

import numpy as np

from repro.ring.hashing import hash_key


class ZipfKeys:
    """``keyspace`` keys named ``<prefix>-<rank>``, drawn with Zipf(1) skew.

    The universe is fixed at construction, so each key's ring position
    is hashed here once rather than on every request that names it.
    """

    def __init__(self, prefix: str, keyspace: int) -> None:
        self.keys: Tuple[bytes, ...] = tuple(
            f"{prefix}-{i:06d}".encode("ascii") for i in range(keyspace)
        )
        self.positions: Tuple[int, ...] = tuple(
            hash_key(key) for key in self.keys
        )
        weights = 1.0 / (np.arange(keyspace, dtype=np.float64) + 1.0)
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()

    def draw(self, rng: np.random.Generator) -> int:
        """Rank of the next key: one uniform double, one bisect."""
        return bisect_right(self._cdf, rng.random())
