"""Per-agent economics read straight off the agent ledger arrays.

The paper's economy is judged by cluster observables (Figs. 2–5), but
its *mechanism* is per-agent: every virtual node accrues eq. 5 wealth,
ages, and migrates.  The registry-level
:class:`~repro.core.agent.AgentLedger` already holds that state as
dense row vectors (wealth, epochs alive, migration counts), so the
distributions this module computes — wealth spread, per-ring wealth
shares, Fig. 2-style vnode-spread convergence — are single array
gathers, cheap enough to run after any scenario at any scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.series import convergence_epoch
from repro.analysis.stats import describe, gini
from repro.core.agent import AgentRegistry
from repro.sim.metrics import MetricsLog


class EconomicsError(ValueError):
    """Raised for economics queries over an empty registry or log."""


@dataclass(frozen=True)
class AgentEconomics:
    """Ledger-wide per-agent economics snapshot."""

    agents: int
    wealth: Dict[str, float]
    epochs_alive: Dict[str, float]
    moves: Dict[str, float]
    wealth_gini: float
    total_moves: int


@dataclass(frozen=True)
class RingEconomics:
    """One ring's share of the agent economy."""

    ring: Tuple[int, int]
    agents: int
    wealth_total: float
    wealth_mean: float
    epochs_alive_mean: float
    moves_total: int


def ledger_arrays(registry: AgentRegistry
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(wealth, epochs_alive, moves) of every live agent, in the
    catalog's replica order.

    Three array gathers off the shared ledger — no per-agent object
    traffic.  The catalog's order, not the ledger's row numbering, makes
    the statistics a function of the replicas alone: rows are recycled
    and repacked as agents come and go.  Raises when the registry holds
    no agents (a scenario that lost every replica has no economy to
    describe).
    """
    ledger = registry.ledger
    rows = np.fromiter(
        itertools.chain.from_iterable(
            registry.rows_of(pid) for pid in registry.partitions()
        ),
        dtype=np.intp,
    )
    if not rows.size:
        raise EconomicsError("no live agents in the registry")
    return (
        ledger.wealth_vector()[rows],
        ledger.epochs_alive_vector()[rows],
        ledger.moves_vector()[rows],
    )


def agent_economics(registry: AgentRegistry) -> AgentEconomics:
    """Distribution summary of every live agent's ledger row."""
    wealth, epochs, moves = ledger_arrays(registry)
    # Wealth can be negative (agents on pricey servers); gini over the
    # distribution shifted to non-negative support keeps the spread
    # signal without the sign restriction.
    shifted = wealth - min(float(wealth.min()), 0.0)
    return AgentEconomics(
        agents=int(wealth.size),
        wealth=describe(wealth),
        epochs_alive=describe(epochs),
        moves=describe(moves),
        wealth_gini=gini(shifted) if shifted.any() else 0.0,
        total_moves=int(moves.sum()),
    )


def ring_economics(registry: AgentRegistry) -> List[RingEconomics]:
    """Per-ring aggregation of the ledger rows, sorted by ring key.

    Rows are grouped through the catalog's per-partition row lists
    (one list lookup per partition, array math per ring) — the
    partition count, not the agent count, bounds the Python work.
    """
    ledger = registry.ledger
    wealth = ledger.wealth_vector()
    epochs = ledger.epochs_alive_vector()
    moves = ledger.moves_vector()
    rows_by_ring: Dict[Tuple[int, int], List[int]] = {}
    for pid in registry.partitions():
        rows = registry.rows_of(pid)
        if rows:
            rows_by_ring.setdefault(
                (pid.app_id, pid.ring_id), []
            ).extend(rows)
    out: List[RingEconomics] = []
    for ring in sorted(rows_by_ring):
        rows = np.asarray(rows_by_ring[ring], dtype=np.intp)
        out.append(
            RingEconomics(
                ring=ring,
                agents=int(rows.size),
                wealth_total=float(wealth[rows].sum()),
                wealth_mean=float(wealth[rows].mean()),
                epochs_alive_mean=float(epochs[rows].mean()),
                moves_total=int(moves[rows].sum()),
            )
        )
    return out


def vnode_spread_series(log: MetricsLog) -> np.ndarray:
    """Per-epoch Gini of the vnodes-per-server histogram (Fig. 2).

    0 means replicas are spread perfectly evenly over the cloud; the
    paper's convergence claim is this series falling and flattening.
    Reads each epoch's stored count vector directly off the columnar
    frame store.
    """
    n = len(log)
    if not n:
        raise EconomicsError("no frames collected")
    out = np.zeros(n, dtype=np.float64)
    for i in range(n):
        counts = log.vnode_counts(i)
        out[i] = gini(counts) if counts.size and counts.any() else 0.0
    return out


def ring_convergence_epochs(log: MetricsLog, *,
                            tolerance: float = 0.05,
                            window: int = 10
                            ) -> Dict[Tuple[int, int], Optional[int]]:
    """First settled epoch of each ring's vnode count (Fig. 2/3 claim).

    ``None`` for a ring whose replica count never stays within
    ``tolerance`` for ``window`` epochs — e.g. under a load spike that
    outlives the run.
    """
    out: Dict[Tuple[int, int], Optional[int]] = {}
    for ring in log.rings():
        series = log.ring_series("vnodes_per_ring", ring)
        out[ring] = convergence_epoch(
            series, tolerance=tolerance, window=window
        )
    return out


def summarize_economics(registry: AgentRegistry,
                        log: MetricsLog) -> Dict[str, object]:
    """One-call bundle the CLI ``report`` subcommand renders."""
    spread = vnode_spread_series(log)
    return {
        "agents": agent_economics(registry),
        "rings": ring_economics(registry),
        "convergence": ring_convergence_epochs(log),
        "spread_first": float(spread[0]),
        "spread_last": float(spread[-1]),
    }
