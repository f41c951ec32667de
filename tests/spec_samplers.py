"""Seeded scenario-spec samplers for the randomized test harnesses.

The randomized equivalence, invariant and chaos-audit harnesses sample
*this* space of :class:`~repro.sim.scenario.ScenarioSpec` values instead
of ad-hoc knobs.  Nothing outside ``tests/`` draws from it.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.cluster.server import GB
from repro.cluster.topology import CloudLayout
from repro.sim.config import DataPlaneConfig, InsertConfig
from repro.sim.scenario import (
    ChaosSpec,
    ConfidenceSpec,
    ConstraintsSpec,
    Diurnal,
    FailureSpec,
    FlashCrowd,
    FlowsSpec,
    JoinWave,
    LeaveWave,
    OperationsSpec,
    PolicySpec,
    ScenarioSpec,
    ServerClassesSpec,
    StructureSpec,
)


def sample_spec(seed: int) -> ScenarioSpec:
    """Draw one seeded random scenario spec (fault-free).

    The sampled space covers what the earlier ad-hoc knob randomization
    of the equivalence harness covered — cloud shape, partition counts,
    tight policy bounds, base rate, fractional confidences, join/leave
    churn, insert streams — plus the flow phases specs added (flash
    crowds, diurnal cycles, zipf data-plane traffic).  Fractional
    confidences set ``operations.rtol`` to the same 1e-9 the golden
    registry grants them; everything else compares bit-exactly.

    The draw is deterministic per seed, and the spec compiles with
    ``net=None`` so both epoch kernels must agree on the frame stream.
    """
    rng = np.random.default_rng(99_000 + seed)
    layout = CloudLayout(
        countries=int(rng.integers(3, 6)),
        countries_per_continent=int(rng.integers(1, 3)),
        datacenters_per_country=int(rng.integers(1, 3)),
        rooms_per_datacenter=1,
        racks_per_room=int(rng.integers(1, 3)),
        servers_per_rack=int(rng.integers(2, 5)),
    )
    total = layout.total_servers
    epochs = int(rng.integers(8, 14))
    structure = StructureSpec(
        layout=layout,
        classes=ServerClassesSpec(
            storage=int(rng.integers(2, 6)) * GB,
        ),
    )
    rtol = 0.0
    if rng.random() < 0.5:
        countries = rng.choice(
            layout.countries, size=min(2, layout.countries), replace=False
        )
        structure = dataclasses.replace(
            structure,
            confidence=ConfidenceSpec(
                base=float(rng.uniform(0.85, 1.0)),
                country_factors={
                    int(c): float(rng.uniform(0.8, 1.0)) for c in countries
                },
            ),
        )
        rtol = 1e-9
    flows = FlowsSpec(base_rate=float(rng.uniform(500.0, 4000.0)))
    if rng.random() < 0.25:
        flows = dataclasses.replace(
            flows,
            inserts=InsertConfig(
                rate=int(rng.integers(50, 400)),
                object_size=256 * 1024,
            ),
        )
    if rng.random() < 0.25:
        flows = dataclasses.replace(
            flows,
            surges=(FlashCrowd(
                spike_epoch=int(rng.integers(1, max(2, epochs - 4))),
                ramp_epochs=int(rng.integers(1, 4)),
                decay_epochs=int(rng.integers(2, 6)),
                peak_factor=float(rng.uniform(2.0, 8.0)),
            ),),
        )
    if rng.random() < 0.2:
        flows = dataclasses.replace(
            flows,
            diurnal=Diurnal(
                period=int(rng.integers(4, 9)),
                amplitude=float(rng.uniform(0.2, 0.8)),
                phase=int(rng.integers(0, 4)),
            ),
        )
    if rng.random() < 0.2:
        flows = dataclasses.replace(
            flows,
            traffic=DataPlaneConfig(
                ops_per_epoch=int(rng.integers(8, 17)),
                keyspace=int(rng.integers(16, 49)),
            ),
        )
    constraints = ConstraintsSpec(
        partitions=int(rng.integers(4, 13)),
        policy=PolicySpec(
            hysteresis=int(rng.integers(2, 4)),
            repair_iterations=int(rng.integers(1, 5)),
            migration_margin=float(rng.uniform(0.0, 0.1)),
            storage_headroom=float(rng.uniform(0.0, 0.15)),
        ),
    )
    events: List[object] = []
    if rng.random() < 0.6:
        add_epoch = int(rng.integers(1, max(2, epochs - 4)))
        events.append(JoinWave(
            epoch=add_epoch,
            count=int(rng.integers(1, max(2, total // 3))),
        ))
        events.append(LeaveWave(
            epoch=int(rng.integers(add_epoch + 1, epochs)),
            count=int(rng.integers(1, max(2, total // 4))),
        ))
    return ScenarioSpec(
        name=f"sampled-{seed}",
        summary=f"seeded random spec #{seed} from the sampler space",
        structure=structure,
        flows=flows,
        constraints=constraints,
        failure=FailureSpec(events=tuple(events)),
        operations=OperationsSpec(
            epochs=epochs,
            seed=int(rng.integers(1_000_000)),
            rtol=rtol,
        ),
    )


def sample_chaos_spec(seed: int) -> ScenarioSpec:
    """Draw one seeded chaos-audit spec (network faults + quorum traffic).

    The sampled space is the chaos sweep's: a paper-shaped
    cloud, a :class:`ChaosSpec` fault draw keyed by the same seed, zipf
    quorum traffic, and the consistency audit armed.  Under network-only
    faults the audit must come back GREEN (zero lost writes, zero dirty
    ghost reads) — the sweep-wide contract
    ``tests/integration/test_chaos_audit.py`` enforces.
    """
    return ScenarioSpec(
        name=f"chaos-{seed}",
        summary=f"seeded chaos-audit draw #{seed}: random faults + quorum traffic",
        flows=FlowsSpec(traffic=DataPlaneConfig(ops_per_epoch=24)),
        constraints=ConstraintsSpec(partitions=30),
        failure=FailureSpec(chaos=ChaosSpec(seed=seed, quiet_tail=8)),
        operations=OperationsSpec(epochs=24, seed=seed, audit=True),
    )
