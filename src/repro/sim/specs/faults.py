"""Fault-plane scenarios: lossy gossip, partitions, flaps, chaos audits.

These exercise the *failure* tier — explicit window schedules over
:class:`repro.net.model.NetConfig`, seeded chaos draws, and the
stale-view data plane riding on top.
"""

from __future__ import annotations

from repro.net.model import LinkFlap, NetConfig, NetPartition
from repro.sim.config import DataPlaneConfig
from repro.sim.scenario import (
    ChaosSpec,
    ConstraintsSpec,
    FailureSpec,
    FlowsSpec,
    JoinWave,
    OperationsSpec,
    OutageEvent,
    ScenarioEntry,
    ScenarioSpec,
)

SPECS = (
    ScenarioEntry(ScenarioSpec(
        name="lossy-gossip",
        summary="10% heartbeat loss, no cuts: false-suspicion economics",
        constraints=ConstraintsSpec(partitions=24),
        failure=FailureSpec(net=NetConfig(
            loss=0.1, rounds_per_epoch=2, dead_rounds=8,
        )),
        operations=OperationsSpec(epochs=30, seed=41),
    ), pin_epochs=8),
    ScenarioEntry(ScenarioSpec(
        name="asym-partition-quorum",
        summary="asymmetric country cut while quorum traffic keeps flowing",
        flows=FlowsSpec(traffic=DataPlaneConfig(ops_per_epoch=32)),
        constraints=ConstraintsSpec(partitions=24),
        failure=FailureSpec(net=NetConfig(
            loss=0.05, rounds_per_epoch=2, dead_rounds=8,
            partitions=(NetPartition(start=6, heal=14, depth=2,
                                     asymmetric=True),),
        )),
        operations=OperationsSpec(epochs=28, seed=42),
    ), pin_epochs=10),
    ScenarioEntry(ScenarioSpec(
        name="flap-storm",
        summary="three overlapping link-flap windows under light loss",
        flows=FlowsSpec(traffic=DataPlaneConfig(ops_per_epoch=24)),
        constraints=ConstraintsSpec(partitions=24),
        failure=FailureSpec(net=NetConfig(
            loss=0.03, rounds_per_epoch=2, dead_rounds=8,
            flaps=(LinkFlap(start=4, heal=9),
                   LinkFlap(start=7, heal=13),
                   LinkFlap(start=11, heal=16)),
        )),
        operations=OperationsSpec(epochs=28, seed=43),
    ), pin_epochs=10),
    ScenarioEntry(ScenarioSpec(
        name="shaky-region-churn",
        summary="a room outage + replacement join wave on a lossy net",
        constraints=ConstraintsSpec(partitions=24),
        failure=FailureSpec(
            events=(OutageEvent(epoch=8, depth=4),
                    JoinWave(epoch=12, count=10)),
            net=NetConfig(loss=0.08, rounds_per_epoch=2, dead_rounds=8),
        ),
        operations=OperationsSpec(epochs=30, seed=44),
    ), pin_epochs=10),
    ScenarioEntry(ScenarioSpec(
        name="chaos-audit-7",
        summary="chaos draw #7: random faults, quorum traffic, audit armed",
        flows=FlowsSpec(traffic=DataPlaneConfig(ops_per_epoch=24)),
        constraints=ConstraintsSpec(partitions=30),
        failure=FailureSpec(chaos=ChaosSpec(seed=7, quiet_tail=8)),
        operations=OperationsSpec(epochs=24, seed=7, audit=True),
    ), pin_epochs=12),
    ScenarioEntry(ScenarioSpec(
        name="zipf-dataplane-steady",
        summary="steady zipf quorum traffic on an honest (oracle) view",
        flows=FlowsSpec(traffic=DataPlaneConfig(ops_per_epoch=64,
                                              keyspace=128)),
        constraints=ConstraintsSpec(partitions=24),
        operations=OperationsSpec(epochs=24, seed=45),
    ), pin_epochs=8),
)
