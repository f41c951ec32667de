"""Open-loop arrival generation for the serving front door.

A real front door does not wait for one request to finish before the
next one arrives: load is *open-loop* — arrivals come from an external
client population at their own pace, and a slow backend shows up as
queueing delay, not as a slower arrival rate.  :class:`LoadGenerator`
models that with exponential inter-arrival gaps (a Poisson process)
over the epoch's :data:`EPOCH_MS` window, drawn from the dedicated
``serving`` RNG stream so enabling the front door perturbs no other
stochastic component.

Per-request fields are drawn in a fixed order (gap, app, key, site,
read/write coin) from one generator, which is the determinism contract
the replay tests pin: same spec + seed ⇒ the identical arrival stream,
epoch by epoch.

Keys come from a :class:`~repro.workload.keys.ZipfKeys` universe (rank
``i`` with probability ∝ 1/(i+1)) under the overlay's key/value
prefix — ``sv-`` for the front door, ``dp-`` for the data plane — so
the two overlays' traffic never collides.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.location import Location
from repro.workload.keys import ZipfKeys


#: Bytes in every put's value (its ``prefix-eE-iI-`` stamp, padded).
VALUE_SIZE = 64
#: Simulated wall-clock milliseconds one epoch represents: the window
#: the arrivals spread over and the denominator of ``requests_per_sec``.
EPOCH_MS = 1000.0


class ServeError(ValueError):
    """Raised for invalid serving front-door parameters."""


class Arrival(NamedTuple):
    """One admitted request: what, where from, and when it arrived."""

    offset_ms: float  # arrival time within the epoch's window
    kind: str  # "get" | "put"
    app_id: int
    ring_id: int
    key: bytes
    position: int  # the key's ring position, hashed once per key
    value: Optional[bytes]  # None for gets
    client: Optional[Location]


class LoadGenerator:
    """Poisson arrivals of get/put requests over a Zipf key universe."""

    def __init__(self, *, apps: Sequence[Tuple[int, int]],
                 requests_per_epoch: int, read_fraction: float,
                 keyspace: int, rng: np.random.Generator,
                 sites: Sequence[Location] = (),
                 prefix: str = "sv") -> None:
        if not apps:
            raise ServeError("need at least one (app_id, ring_id)")
        if requests_per_epoch < 0:
            raise ServeError(
                f"requests_per_epoch must be >= 0, got "
                f"{requests_per_epoch}"
            )
        if not 0.0 <= read_fraction <= 1.0:
            raise ServeError(
                f"read_fraction must be in [0, 1], got {read_fraction}"
            )
        if keyspace < 1:
            raise ServeError(f"keyspace must be >= 1, got {keyspace}")
        self._apps = tuple(apps)
        self._requests = requests_per_epoch
        self._read_fraction = read_fraction
        self._rng = rng
        self._sites = tuple(sites)
        self._prefix = prefix
        self._universe = ZipfKeys(prefix, keyspace)
        # Open loop: the mean gap keeps the configured rate regardless
        # of how fast the backend drains.
        self._mean_gap_ms = EPOCH_MS / max(requests_per_epoch, 1)

    @property
    def keys(self) -> Tuple[bytes, ...]:
        return self._universe.keys

    def _value(self, epoch: int, index: int) -> bytes:
        stamp = f"{self._prefix}-e{epoch}-i{index}-".encode("ascii")
        pad = VALUE_SIZE - len(stamp)
        if pad <= 0:
            return stamp[:VALUE_SIZE]
        return stamp + b"x" * pad

    def draw(self, epoch: int) -> List[Arrival]:
        """One epoch's arrivals, sorted by offset by construction."""
        rng = self._rng
        exponential, integers, random = (
            rng.exponential, rng.integers, rng.random
        )
        universe = self._universe
        keys, positions, rank_of = (
            universe.keys, universe.positions, universe.draw
        )
        apps, sites = self._apps, self._sites
        n_apps, n_sites = len(apps), len(sites)
        mean_gap, read_fraction = self._mean_gap_ms, self._read_fraction
        out: List[Arrival] = []
        append = out.append
        t = 0.0
        for i in range(self._requests):
            t += exponential(mean_gap)
            app_id, ring_id = apps[integers(n_apps)]
            rank = rank_of(rng)
            client = sites[integers(n_sites)] if n_sites else None
            if random() < read_fraction:
                append(Arrival(t, "get", app_id, ring_id, keys[rank],
                               positions[rank], None, client))
            else:
                append(Arrival(t, "put", app_id, ring_id, keys[rank],
                               positions[rank], self._value(epoch, i),
                               client))
        return out
