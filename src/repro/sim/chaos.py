"""Randomized fault schedules and the consistency-audit harness.

The chaos side of ISSUE 7: draw a random-but-reproducible network
fault schedule (loss level, partition windows, link-flap windows) over
the PR 6 :class:`repro.net.model.NetConfig` machinery, run a
data-plane-enabled simulation under it, let the system quiesce (client
traffic paused, hints draining, anti-entropy running), and read the
linearizability-lite verdict the data-plane overlay folded request by
request (:mod:`repro.analysis.consistency`).

The schedules are *network-only* by design: partitions and flaps cut
links and manufacture false suspicion, loss thins heartbeats — but no
server's storage is destroyed.  Under that fault model the audit's
durability verdict must be GREEN: every acked copy physically
survives, the catalog mirror drains decommissioned replicas, and
parked hints count as surviving copies until they expire.  Lost
writes therefore indicate a real data-plane bug, not bad luck.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.consistency import ConsistencyReport
from repro.net.model import LinkFlap, NetConfig, NetPartition
from repro.sim.config import DataPlaneConfig, SimConfig
from repro.sim.engine import Simulation


class ChaosError(ValueError):
    """Raised for malformed chaos-harness parameters."""


def random_fault_schedule(
    seed: int,
    epochs: int,
    *,
    loss_range: Tuple[float, float] = (0.02, 0.15),
    max_partitions: int = 2,
    max_flaps: int = 2,
    quiet_tail: int = 10,
    base: Optional[NetConfig] = None,
) -> NetConfig:
    """Draw a reproducible random fault schedule for an ``epochs`` run.

    Every scheduled window ends at least ``quiet_tail`` epochs before
    the horizon, so the run finishes with all cuts healed and the
    settle phase drains hints against an (almost) honest view — loss
    keeps applying, which is exactly the residual noise the audit
    should tolerate.
    """
    if epochs < 1:
        raise ChaosError(f"epochs must be >= 1, got {epochs}")
    if quiet_tail < 0:
        raise ChaosError(f"quiet_tail must be >= 0, got {quiet_tail}")
    lo, hi = loss_range
    if not 0.0 <= lo <= hi < 1.0:
        raise ChaosError(f"bad loss_range {loss_range}")
    rng = np.random.default_rng(seed)
    horizon = max(2, epochs - quiet_tail)
    partitions: List[NetPartition] = []
    for _ in range(int(rng.integers(0, max_partitions + 1))):
        start = int(rng.integers(1, horizon - 1)) if horizon > 2 else 1
        length = int(rng.integers(2, 9))
        heal = min(start + length, horizon)
        if heal <= start:
            continue
        partitions.append(NetPartition(
            start=start, heal=heal,
            depth=int(rng.integers(2, 5)),
            asymmetric=bool(rng.integers(0, 2)),
        ))
    flaps: List[LinkFlap] = []
    for _ in range(int(rng.integers(0, max_flaps + 1))):
        start = int(rng.integers(1, horizon - 1)) if horizon > 2 else 1
        length = int(rng.integers(2, 7))
        heal = min(start + length, horizon)
        if heal <= start:
            continue
        flaps.append(LinkFlap(start=start, heal=heal))
    cfg = base if base is not None else NetConfig(
        rounds_per_epoch=2, dead_rounds=8
    )
    return dataclasses.replace(
        cfg,
        loss=float(rng.uniform(lo, hi)),
        partitions=tuple(partitions),
        flaps=tuple(flaps),
    )


@dataclass
class AuditRun:
    """A completed chaos run plus its audit verdict."""

    sim: Simulation
    report: ConsistencyReport
    settle_epochs: int

    @property
    def green(self) -> bool:
        return self.report.green


def run_consistency_audit(
    config: SimConfig,
    *,
    events=None,
    settle_epochs: int = 16,
    decider_factory=None,
) -> AuditRun:
    """Run ``config`` to its horizon, quiesce, and audit the requests.

    ``config`` must carry a ``data_plane`` (one is attached with
    defaults if missing).  After the configured horizon the harness
    keeps stepping for ``settle_epochs`` with client traffic paused,
    so in-flight hints drain toward rehabilitated targets; the audit
    then compares every committed write against the freshest
    surviving copy.
    """
    if settle_epochs < 0:
        raise ChaosError(
            f"settle_epochs must be >= 0, got {settle_epochs}"
        )
    if config.data_plane is None:
        config = dataclasses.replace(config, data_plane=DataPlaneConfig())
    kwargs = {}
    if decider_factory is not None:
        kwargs["decider_factory"] = decider_factory
    sim = Simulation(config, events=events, **kwargs)
    sim.run()
    plane = sim.data_plane
    assert plane is not None
    plane.serving_enabled = False
    for _ in range(settle_epochs):
        sim.step()
    return AuditRun(
        sim=sim, report=plane.consistency_report(),
        settle_epochs=settle_epochs,
    )
