"""The §II-C decision process's knobs, its per-epoch stats and the
epoch-kernel names every decider accepts."""

from __future__ import annotations

from dataclasses import dataclass

from repro.store.consistency import DEFAULT_CONSISTENCY, ConsistencyModel

#: Epoch-kernel implementations accepted by
#: :class:`~repro.core.decision.DecisionEngine` and
#: :class:`repro.sim.config.SimConfig`.  ``"vectorized"`` is the default
#: production kernel (batched eq. 5 settlement + incremental eq. 2
#: availability); ``"scalar"`` is the straight-line reference the
#: property tests and the perf harness compare against.
KERNELS = ("vectorized", "scalar")


class PolicyError(ValueError):
    """Raised for invalid policy parameters."""


class KernelError(ValueError):
    """Raised for unknown epoch-kernel names, for a catalog replica
    whose ledger row the incidence cannot match, and when an incremental
    incidence splice diverges from the full rebuild it is checked
    against (:attr:`~repro.core.incidence.Incidence.align_check`)."""


@dataclass(frozen=True)
class EconomicPolicy:
    """Tunable knobs of the §II-C decision process.

    ``hysteresis`` is the paper's ``f``: how many consecutive epochs of
    one-signed balance trigger an action.  ``revenue_per_query``
    normalises query utility to monetary units (eq. 5's u); every
    agent's utility is floored at the epoch's lowest rent (the §II-C
    anti-thrashing rule, not a knob).  ``repair_iterations`` bounds how
    many replicas an SLA repair may add in a single epoch.  Eq. 3
    weighs a candidate's rent at 1 against its diversity gain, and the
    economically chosen replication degree has no cap beyond what
    popularity funds.  A move of a partition larger than its source's
    migration budget always rides the replication budget.
    """

    hysteresis: int = 3
    revenue_per_query: float = 0.01
    repair_iterations: int = 8
    migration_margin: float = 0.05
    storage_headroom: float = 0.1
    consistency: ConsistencyModel = DEFAULT_CONSISTENCY

    def __post_init__(self) -> None:
        if self.hysteresis < 1:
            raise PolicyError(
                f"hysteresis must be >= 1, got {self.hysteresis}"
            )
        if self.revenue_per_query < 0:
            raise PolicyError(
                f"revenue_per_query must be >= 0, got {self.revenue_per_query}"
            )
        if self.repair_iterations < 1:
            raise PolicyError(
                f"repair_iterations must be >= 1, got {self.repair_iterations}"
            )
        if not 0.0 <= self.migration_margin < 1.0:
            raise PolicyError(
                f"migration_margin must be in [0, 1), got "
                f"{self.migration_margin}"
            )
        if not 0.0 <= self.storage_headroom < 1.0:
            raise PolicyError(
                f"storage_headroom must be in [0, 1), got "
                f"{self.storage_headroom}"
            )


@dataclass
class DecisionStats:
    """What the decision pass did in one epoch."""

    repairs: int = 0
    economic_replications: int = 0
    migrations: int = 0
    suicides: int = 0
    deferred: int = 0
    unsatisfied_partitions: int = 0
    lost_partitions: int = 0
