"""Epoch-series utilities: spread, convergence and change detection.

The paper's claims are about series *shapes* — "soon reaches
equilibrium" (Fig. 2), "remains constant after adding resources"
(Fig. 3), "remains quite balanced despite the variations" (Fig. 4) —
so the benches need robust, assertion-friendly shape detectors rather
than plotting.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np


class SeriesError(ValueError):
    """Raised for invalid series operations."""


def _as_array(series: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(series), dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise SeriesError("series must be a non-empty 1-D sequence")
    return arr


def relative_spread(series: Sequence[float]) -> float:
    """(max - min) / mean of a series; 0 for a flat series."""
    arr = _as_array(series)
    spread = float(arr.max() - arr.min())
    mean = arr.mean()
    if mean == 0:
        return 0.0 if spread == 0 else float("inf")
    return spread / abs(mean)


def convergence_epoch(series: Sequence[float], *,
                      tolerance: float = 0.02,
                      window: int = 10) -> Optional[int]:
    """First epoch from which the series stays within ±tolerance.

    The tail from the returned epoch onward deviates from its own mean
    by at most ``tolerance`` (relative).  ``None`` when the series never
    settles for at least ``window`` epochs.
    """
    arr = _as_array(series)
    if window < 1:
        raise SeriesError(f"window must be >= 1, got {window}")
    if tolerance < 0:
        raise SeriesError(f"tolerance must be >= 0, got {tolerance}")
    n = arr.size
    for start in range(0, n - window + 1):
        tail = arr[start:]
        mean = tail.mean()
        bound = tolerance * max(abs(mean), 1e-12)
        if np.all(np.abs(tail - mean) <= bound):
            return start
    return None


def step_change(series: Sequence[float], at: int, *,
                before_window: int = 20,
                after_window: int = 20) -> float:
    """Relative level change around epoch ``at``.

    Compares the mean of the ``before_window`` epochs before ``at`` with
    the mean of the ``after_window`` epochs after; positive values mean
    the series stepped up (the Fig. 3 failure response).
    """
    arr = _as_array(series)
    if not 0 < at < arr.size:
        raise SeriesError(f"at must be inside the series, got {at}")
    lo = max(0, at - before_window)
    hi = min(arr.size, at + after_window)
    before = arr[lo:at].mean()
    after = arr[at:hi].mean()
    if before == 0:
        return 0.0 if after == 0 else float("inf")
    return float((after - before) / abs(before))


def peak_epoch(series: Sequence[float]) -> Tuple[int, float]:
    """(argmax, max) of a series."""
    arr = _as_array(series)
    idx = int(np.argmax(arr))
    return idx, float(arr[idx])


def first_nonzero_epoch(series: Sequence[float]) -> Optional[int]:
    """Index of the first strictly positive value, or None."""
    arr = _as_array(series)
    hits = np.nonzero(arr > 0)[0]
    return int(hits[0]) if hits.size else None
