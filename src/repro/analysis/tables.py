"""Paper-vs-measured comparison tables for EXPERIMENTS.md and benches."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.sim.reporting import format_table


class TableError(ValueError):
    """Raised for malformed comparison rows."""


@dataclass(frozen=True)
class Claim:
    """One qualitative/quantitative claim of the paper and our measurement."""

    experiment: str
    claim: str
    measured: str
    holds: bool

    @property
    def verdict(self) -> str:
        return "REPRODUCED" if self.holds else "DIVERGED"


@dataclass
class ClaimTable:
    """Collects claims and renders the comparison table."""

    claims: List[Claim] = field(default_factory=list)

    def add(self, experiment: str, claim: str, measured: str,
            holds: bool) -> Claim:
        entry = Claim(experiment, claim, measured, holds)
        self.claims.append(entry)
        return entry

    @property
    def all_hold(self) -> bool:
        if not self.claims:
            raise TableError("no claims recorded")
        return all(c.holds for c in self.claims)

    def render(self) -> str:
        if not self.claims:
            return "(no claims)"
        return format_table(
            ["experiment", "paper claim", "measured", "verdict"],
            [
                [c.experiment, c.claim, c.measured, c.verdict]
                for c in self.claims
            ],
        )
