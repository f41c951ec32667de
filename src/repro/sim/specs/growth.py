"""Growth and SLA-tier scenarios: insert streams, ring ladders, classes.

These exercise the *constraints* tier — multi-ring tenants, explicit
thresholds, heterogeneous server classes — and the storage-bound
economy under insert-driven growth.
"""

from __future__ import annotations

from repro.cluster.confidence import ConfidenceModel
from repro.cluster.server import GB, MB
from repro.core.economy import RentModel
from repro.sim.config import InsertConfig
from repro.sim.scenario import (
    ConstraintsSpec,
    Diurnal,
    FlowsSpec,
    OperationsSpec,
    ScenarioEntry,
    ScenarioSpec,
    ServerClassesSpec,
    StructureSpec,
    TenantSpec,
    TierSpec,
)
from repro.sim.specs.paper import saturation_spec

SPECS = (
    ScenarioEntry(saturation_spec(
        "insert-popularity-growth",
        "popularity-routed inserts: growth follows the query skew",
        epochs=30, seed=31, partitions=24, insert_routing="popularity",
    ), pin_epochs=8),
    ScenarioEntry(ScenarioSpec(
        name="insert-diurnal-mix",
        summary="insert stream under a diurnal query cycle (growth + waves)",
        structure=StructureSpec(classes=ServerClassesSpec(storage=3 * GB)),
        flows=FlowsSpec(
            inserts=InsertConfig(rate=1000),
            diurnal=Diurnal(period=8, amplitude=0.5),
        ),
        constraints=ConstraintsSpec(
            partitions=24,
            initial_size=48 * MB,
            economy=RentModel(alpha=4.0),
        ),
        operations=OperationsSpec(epochs=30, seed=32),
    ), pin_epochs=8),
    ScenarioEntry(ScenarioSpec(
        name="sla-ladder",
        summary="one tenant climbing 2/3/4-replica rings + a basic tenant",
        constraints=ConstraintsSpec(
            tenants=(
                TenantSpec(name="premium", share=0.75, tiers=(
                    TierSpec(replicas=2, partitions=12),
                    TierSpec(replicas=3, partitions=12),
                    TierSpec(replicas=4, partitions=12),
                )),
                TenantSpec(name="basic", share=0.25, tiers=(
                    TierSpec(replicas=2, partitions=12),
                )),
            ),
        ),
        operations=OperationsSpec(epochs=30, seed=33),
    ), pin_epochs=8),
    ScenarioEntry(ScenarioSpec(
        name="premium-classes",
        summary="60% expensive servers at 200$ rent + shaky-country trust",
        structure=StructureSpec(
            classes=ServerClassesSpec(
                cheap_rent=80.0, expensive_rent=200.0,
                expensive_fraction=0.6,
            ),
            confidence=ConfidenceModel(
                base=0.98, country_factors={2: 0.85, 6: 0.9},
            ),
        ),
        constraints=ConstraintsSpec(partitions=24),
        operations=OperationsSpec(epochs=30, seed=34, rtol=1e-9),
    ), pin_epochs=8),
)
