"""Faulty-run vs oracle-twin divergence report.

The ISSUE 6 measurement contract: a run under a faulty network is not
expected to match its oracle twin (``net=None``, instant membership) —
the *divergence* is the result.  This module quantifies it.  Given the
two frame streams it reports, per scalar field, the first epoch where
they part ways plus aggregate deltas for the observables the paper
cares about (availability, unavailable queries, repair/replication
action counts and maintenance bytes).

The twin itself is one :func:`dataclasses.replace` away — see
:func:`oracle_twin_config` — so callers run the same events/decider
against both configs and hand the metric logs here.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.sim.metrics import MetricsLog


class DivergenceError(ValueError):
    """Raised for malformed divergence comparisons."""


#: Fields whose run totals the report surfaces as faulty-minus-oracle
#: deltas.  Each is a *sum* over epochs (counts / bytes), so the delta
#: reads directly as "extra work (or lost queries) the faults caused".
DELTA_FIELDS: Tuple[str, ...] = (
    "unavailable_queries", "repairs", "economic_replications",
    "migrations", "suicides", "insert_failures", "lost_partitions",
    "replication_bytes", "migration_bytes",
)


@dataclass(frozen=True)
class FieldDivergence:
    """One scalar field's faulty-vs-oracle comparison."""

    field: str
    #: First epoch where the series differ beyond ``rtol`` (None ⇒
    #: the streams agree for their whole common length).
    first_epoch: Optional[int]
    #: Sum over the faulty stream minus sum over the oracle stream.
    total_delta: float
    #: Largest single-epoch absolute difference.
    max_abs_delta: float

    @property
    def diverged(self) -> bool:
        return self.first_epoch is not None


@dataclass(frozen=True)
class DivergenceReport:
    """Everything the faults changed, one field at a time."""

    epochs: int
    fields: Dict[str, FieldDivergence] = field(default_factory=dict)
    #: Mean over epochs of the per-ring mean availability gap
    #: (oracle minus faulty, so positive ⇒ faults cost availability).
    availability_gap: float = 0.0
    #: Worst single-epoch availability gap and the epoch it hit.
    peak_availability_gap: float = 0.0
    peak_availability_epoch: Optional[int] = None

    @property
    def first_divergence_epoch(self) -> Optional[int]:
        """Earliest divergence across every compared field."""
        hits = [
            f.first_epoch for f in self.fields.values()
            if f.first_epoch is not None
        ]
        return min(hits) if hits else None

    @property
    def diverged_fields(self) -> Tuple[str, ...]:
        return tuple(
            name for name, f in self.fields.items() if f.diverged
        )

    def deltas(self) -> Dict[str, float]:
        """Faulty-minus-oracle run totals for :data:`DELTA_FIELDS`."""
        return {
            name: self.fields[name].total_delta
            for name in DELTA_FIELDS
            if name in self.fields
        }

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = ["divergence vs oracle-membership twin"]
        first = self.first_divergence_epoch
        if first is None:
            lines.append(
                f"  streams identical over {self.epochs} epochs"
            )
            return "\n".join(lines)
        lines.append(f"  first divergence: epoch {first}")
        lines.append(
            "  availability gap: "
            f"mean {self.availability_gap:+.6f}, "
            f"peak {self.peak_availability_gap:+.6f}"
            + (
                f" @ epoch {self.peak_availability_epoch}"
                if self.peak_availability_epoch is not None else ""
            )
        )
        for name in DELTA_FIELDS:
            info = self.fields.get(name)
            if info is None or not info.diverged:
                continue
            delta = info.total_delta
            shown = int(delta) if float(delta).is_integer() else delta
            lines.append(
                f"  {name}: {shown:+} total "
                f"(from epoch {info.first_epoch})"
            )
        rest = [
            name for name in self.diverged_fields
            if name not in DELTA_FIELDS
        ]
        if rest:
            lines.append("  also diverged: " + ", ".join(sorted(rest)))
        return "\n".join(lines)


def oracle_twin_config(config):
    """The same scenario with the network model removed.

    Running this config (fresh events, same decider) yields the
    instant-membership oracle stream that :func:`compare_runs`
    measures against.
    """
    if getattr(config, "net", None) is None:
        raise DivergenceError("config has no net: it IS the oracle")
    return dataclasses.replace(config, net=None)


def _first_mismatch(
    a: np.ndarray, b: np.ndarray, rtol: float
) -> Optional[int]:
    if rtol <= 0.0:
        hits = np.nonzero(a != b)[0]
    else:
        bound = rtol * np.maximum(np.abs(a), np.abs(b))
        hits = np.nonzero(np.abs(a - b) > bound)[0]
    return int(hits[0]) if hits.size else None


def _availability_gap(
    oracle: MetricsLog, faulty: MetricsLog, epochs: int
) -> Tuple[float, float, Optional[int]]:
    gaps = np.zeros(epochs, dtype=np.float64)
    for i in range(epochs):
        left = oracle[i].mean_availability_per_ring
        right = faulty[i].mean_availability_per_ring
        rings = set(left) | set(right)
        if not rings:
            continue
        gaps[i] = float(
            np.mean([
                left.get(r, 0.0) - right.get(r, 0.0) for r in rings
            ])
        )
    peak = int(np.argmax(np.abs(gaps))) if epochs else None
    if peak is None or gaps[peak] == 0.0:
        return float(gaps.mean()) if epochs else 0.0, 0.0, None
    return float(gaps.mean()), float(gaps[peak]), peak


def compare_runs(
    oracle: MetricsLog,
    faulty: MetricsLog,
    *,
    rtol: float = 0.0,
    fields: Optional[Sequence[str]] = None,
) -> DivergenceReport:
    """Measure how far a faulty run drifted from its oracle twin.

    Both logs must cover the same epochs (same scenario, same events).
    ``rtol`` applies to the float fields only; integer fields always
    compare exactly.  ``fields`` restricts the comparison (default:
    every scalar frame field except ``epoch``).
    """
    if len(oracle) == 0 or len(faulty) == 0:
        raise DivergenceError("both runs must contain frames")
    if len(oracle) != len(faulty):
        raise DivergenceError(
            f"epoch count mismatch: oracle has {len(oracle)}, "
            f"faulty has {len(faulty)}"
        )
    if not math.isfinite(rtol) or rtol < 0.0:
        raise DivergenceError(f"rtol must be finite and >= 0, got {rtol}")
    casts = oracle.scalar_fields
    scalar_fields = tuple(name for name in casts if name != "epoch")
    if fields is not None:
        unknown = sorted(set(fields) - set(scalar_fields))
        if unknown:
            raise DivergenceError(f"unknown fields: {unknown}")
        scalar_fields = tuple(fields)
    epochs = len(oracle)
    out: Dict[str, FieldDivergence] = {}
    for name in scalar_fields:
        a = oracle.series(name)
        b = faulty.series(name)
        tol = rtol if casts[name] is float else 0.0
        diff = b - a
        out[name] = FieldDivergence(
            field=name,
            first_epoch=_first_mismatch(a, b, tol),
            total_delta=float(diff.sum()),
            max_abs_delta=float(np.abs(diff).max()),
        )
    mean_gap, peak_gap, peak_epoch = _availability_gap(
        oracle, faulty, epochs
    )
    return DivergenceReport(
        epochs=epochs,
        fields=out,
        availability_gap=mean_gap,
        peak_availability_gap=peak_gap,
        peak_availability_epoch=peak_epoch,
    )
