"""Distribution statistics for load- and placement-balance claims."""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np


class StatsError(ValueError):
    """Raised for invalid statistics inputs."""


def _as_array(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise StatsError("values must be a non-empty 1-D sequence")
    return arr


def gini(values: Sequence[float]) -> float:
    """Gini coefficient: 0 = perfectly even, →1 = fully concentrated.

    Used for the Fig. 2 claim that virtual nodes spread across servers
    rather than pile up, and for storage balance in Fig. 5.
    """
    arr = np.sort(_as_array(values))
    if np.any(arr < 0):
        raise StatsError("gini requires non-negative values")
    total = arr.sum()
    if total == 0:
        return 0.0
    n = arr.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * arr).sum()) / (n * total) - (n + 1.0) / n)


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index in (0, 1]; 1 = perfectly balanced."""
    arr = _as_array(values)
    total = arr.sum()
    if total == 0:
        return 1.0
    return float(total * total / (arr.size * np.square(arr).sum()))


def describe(values: Sequence[float]) -> Dict[str, float]:
    """Five-number summary plus fairness measures."""
    arr = _as_array(values)
    return {
        "count": float(arr.size),
        "mean": float(arr.mean()),
        "std": float(arr.std()),
        "min": float(arr.min()),
        "p25": float(np.percentile(arr, 25)),
        "median": float(np.median(arr)),
        "p75": float(np.percentile(arr, 75)),
        "max": float(arr.max()),
        "jain": jain_index(arr),
        "gini": gini(arr) if np.all(arr >= 0) else float("nan"),
    }
