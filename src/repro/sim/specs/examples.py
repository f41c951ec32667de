"""The scenarios the ``examples/`` scripts run, as specs.

``datacenter-outage`` and ``chaos-consistency`` compile to the *faulty*
twin; the examples derive their oracle twin by stripping
``net``/``data_plane`` off the compiled config.
"""

from __future__ import annotations

from repro.net.model import NetConfig
from repro.sim.config import DataPlaneConfig, ServingConfig
from repro.sim.scenario import (
    ChaosSpec,
    ConstraintsSpec,
    FailureSpec,
    FlowsSpec,
    OperationsSpec,
    OutageEvent,
    ScenarioEntry,
    ScenarioSpec,
)
from repro.sim.specs.paper import paper_spec, slashdot_spec

SPECS = (
    ScenarioEntry(slashdot_spec(
        "slashdot-surge",
        "examples/slashdot_surge: 61x spike over a 60-partition cloud",
        epochs=220, partitions=60, base_rate=2000.0,
        spike_epoch=40, ramp_epochs=25, decay_epochs=120,
    ), pin_epochs=8),
    ScenarioEntry(paper_spec(
        "multi-tenant-sla",
        "examples/multi_tenant_sla: 3 tenants, 3 SLA rings, 50 epochs",
        epochs=50, partitions=60,
    ), pin_epochs=8),
    ScenarioEntry(ScenarioSpec(
        name="datacenter-outage",
        summary="examples/datacenter_outage: DC dies under a lossy gossip net",
        flows=FlowsSpec(traffic=DataPlaneConfig()),
        constraints=ConstraintsSpec(partitions=60),
        failure=FailureSpec(
            events=(OutageEvent(epoch=30, depth=3),),
            net=NetConfig(loss=0.25, rounds_per_epoch=2, dead_rounds=8),
        ),
        operations=OperationsSpec(epochs=60),
    ), pin_epochs=8),
    ScenarioEntry(ScenarioSpec(
        name="serving-steady",
        summary="live front door: 256 req/epoch quorum serving, steady cloud",
        flows=FlowsSpec(serving=ServingConfig(
            requests_per_epoch=256, keyspace=128, workers=64,
        )),
        constraints=ConstraintsSpec(partitions=60),
        operations=OperationsSpec(epochs=60),
    ), pin_epochs=8),
    ScenarioEntry(ScenarioSpec(
        name="chaos-consistency",
        summary="examples/chaos_consistency: seeded fault draw + quorum audit",
        flows=FlowsSpec(traffic=DataPlaneConfig(ops_per_epoch=32)),
        constraints=ConstraintsSpec(partitions=40),
        failure=FailureSpec(chaos=ChaosSpec(seed=3, quiet_tail=10)),
        operations=OperationsSpec(epochs=40, audit=True),
    ), pin_epochs=12),
)
