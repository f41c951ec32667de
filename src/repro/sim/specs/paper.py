"""The paper's evaluation as specs: three templates, seven golden rows.

§III-A, Fig. 4 and Fig. 5 are three parameter sets over one economy;
:func:`paper_spec`, :func:`slashdot_spec` and :func:`saturation_spec`
state them once, as :class:`ScenarioSpec` values every caller (the
registry rows below, the CLI presets, tests, benches, examples)
compiles with :func:`repro.sim.scenario.compile_spec`.  The seven
golden scenarios pin committed frame streams, so their specs may not
drift by a float.
"""

from __future__ import annotations

import dataclasses

from repro.cluster.confidence import ConfidenceModel
from repro.cluster.server import GB, MB
from repro.core.economy import RentModel
from repro.core.policy import EconomicPolicy
from repro.sim.config import InsertConfig
from repro.sim.scenario import (
    ConstraintsSpec,
    FailureSpec,
    FlashCrowd,
    FlowsSpec,
    GeoSpec,
    JoinWave,
    LeaveWave,
    OperationsSpec,
    ScenarioEntry,
    ScenarioSpec,
    ServerClassesSpec,
    StructureSpec,
    paper_tenants,
)


def paper_spec(name: str = "paper", summary: str = "", *,
               epochs: int = 100, seed: int = 0,
               partitions: int = 200) -> ScenarioSpec:
    """§III-A base cloud: every tier at its default.

    200 servers over 10 countries with 5 GB disks, three applications
    of ``partitions`` × 96 MB partitions on rings 0/1/2 wanting 2/3/4
    replicas at query shares 4/7, 2/7, 1/7, Poisson(3000) queries per
    epoch, 300/100 MB replication/migration budgets.
    """
    return ScenarioSpec(
        name=name,
        summary=summary,
        constraints=ConstraintsSpec(partitions=partitions),
        operations=OperationsSpec(epochs=epochs, seed=seed),
    )


def slashdot_spec(name: str = "slashdot", summary: str = "", *,
                  epochs: int = 400, seed: int = 0, partitions: int = 200,
                  spike_epoch: int = 100, ramp_epochs: int = 25,
                  decay_epochs: int = 250, base_rate: float = 3000.0,
                  peak_factor: float = 61.0) -> ScenarioSpec:
    """Fig. 4: the base cloud under one Slashdot spike (3000 → 183 000)."""
    base = paper_spec(name, summary, epochs=epochs, seed=seed,
                      partitions=partitions)
    return dataclasses.replace(base, flows=FlowsSpec(
        base_rate=base_rate,
        surges=(FlashCrowd(
            spike_epoch=spike_epoch, ramp_epochs=ramp_epochs,
            decay_epochs=decay_epochs, peak_factor=peak_factor,
        ),),
    ))


def saturation_spec(name: str = "saturation", summary: str = "", *,
                    epochs: int = 300, seed: int = 0,
                    partitions: int = 200, insert_rate: int = 2000,
                    insert_routing: str = "keyspace") -> ScenarioSpec:
    """Fig. 5: saturate the cloud with the 2000 × 500 KB insert stream.

    Disks shrink to 2 GB (and partitions seed at 32 MB) so saturation is
    reached within a few hundred epochs, and the normalizing factors are
    the ones this storage-bound regime calls for: a large eq. 1 α
    (storage pressure must dominate query revenue for full servers to
    shed vnodes), a tight migration margin and a short hysteresis (fills
    advance a few percent per epoch, so the economy must react quickly
    to stay balanced).
    """
    return ScenarioSpec(
        name=name,
        summary=summary,
        structure=StructureSpec(classes=ServerClassesSpec(storage=2 * GB)),
        flows=FlowsSpec(inserts=InsertConfig(
            rate=insert_rate, routing=insert_routing,
        )),
        constraints=ConstraintsSpec(
            partitions=partitions,
            initial_size=32 * MB,
            policy=EconomicPolicy(hysteresis=2, migration_margin=0.02,
                                  storage_headroom=0.05),
            economy=RentModel(alpha=8.0),
        ),
        operations=OperationsSpec(epochs=epochs, seed=seed),
    )


def _discrete_geo_tenants():
    tenants = list(paper_tenants(partitions=24))
    tenants[0] = dataclasses.replace(
        tenants[0], geography=GeoSpec(kind="hotspot", country=0)
    )
    tenants[1] = dataclasses.replace(
        tenants[1],
        geography=GeoSpec(kind="mixture", components=(
            (GeoSpec(kind="hotspot", country=3), 0.7),
            (GeoSpec(kind="hotspot", country=7), 0.3),
        )),
    )
    # tenants[2] keeps the uniform geography: the mixed case exercises
    # the per-app dispatch between the g-path and the uniform fast path.
    return tuple(tenants)


SPECS = (
    ScenarioEntry(paper_spec(
        "paper-uniform",
        "§III-A base cloud: 200 servers, 3 tenants, Poisson(3000)",
        epochs=30, seed=1, partitions=40,
    ), pin_epochs=8),
    ScenarioEntry(slashdot_spec(
        "slashdot-spike",
        "Fig. 4 in miniature: 61x flash crowd, expansion then decay",
        epochs=40, seed=2, partitions=24,
        spike_epoch=8, ramp_epochs=5, decay_epochs=18,
    ), pin_epochs=8),
    ScenarioEntry(saturation_spec(
        "saturation-splits",
        "Fig. 5 insert stream saturating shrunken 2 GB disks",
        epochs=30, seed=3, partitions=24,
    ), pin_epochs=8),
    ScenarioEntry(ScenarioSpec(
        name="fig3-elasticity",
        summary="Fig. 3 churn: +12 servers at epoch 8, -12 at epoch 20",
        constraints=ConstraintsSpec(partitions=24),
        failure=FailureSpec(events=(
            JoinWave(epoch=8, count=12),
            LeaveWave(epoch=20, count=12),
        )),
        operations=OperationsSpec(epochs=40, seed=4),
    ), pin_epochs=10),
    ScenarioEntry(ScenarioSpec(
        name="discrete-geo",
        summary="regional tenants: hotspot + mixture geographies (eq. 4)",
        constraints=ConstraintsSpec(tenants=_discrete_geo_tenants()),
        operations=OperationsSpec(epochs=30, seed=5),
    ), pin_epochs=8),
    ScenarioEntry(ScenarioSpec(
        name="confidence-tiers",
        summary="fractional per-country trust tiers (eq. 2 at rtol 1e-9)",
        structure=StructureSpec(confidence=ConfidenceModel(
            base=0.97, country_factors={0: 0.9, 3: 0.85, 7: 0.95},
        )),
        constraints=ConstraintsSpec(partitions=24),
        operations=OperationsSpec(epochs=30, seed=7, rtol=1e-9),
    ), pin_epochs=8),
    ScenarioEntry(ScenarioSpec(
        name="churn-confidence",
        summary="fractional confidences plus join/leave waves mid-run",
        structure=StructureSpec(confidence=ConfidenceModel(
            base=0.96, country_factors={1: 0.88, 4: 0.92, 8: 0.97},
        )),
        constraints=ConstraintsSpec(partitions=24),
        failure=FailureSpec(events=(
            JoinWave(epoch=8, count=14),
            LeaveWave(epoch=18, count=14),
        )),
        operations=OperationsSpec(epochs=30, seed=11, rtol=1e-9),
    ), pin_epochs=10),
)
