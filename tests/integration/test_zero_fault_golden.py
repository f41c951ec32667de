"""Zero-fault network ⇒ the seven goldens, byte for byte.

The ISSUE 6 identity contract: wiring the full control plane — gossip
fabric carrying every heartbeat and price message, MembershipView seam
in decide/settle, retry queue armed — with a *zero-fault*
:class:`NetConfig` must reproduce every golden scenario's recorded
frame stream exactly, under both kernels.  The fabric genuinely runs
(the suite asserts messages were sent), so this proves the seam is
transparent, not bypassed.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from golden_scenarios import (
    build_config,
    build_events,
    golden_path,
    scenario_names,
    scenario_rtol,
)
from repro.net.model import HEARTBEAT, NetConfig
from repro.sim.engine import Simulation
from repro.sim.framedump import compare_streams, frames_digest

KERNELS = ("vectorized", "scalar")

#: The fabric still runs under zero faults — every knob that *changes
#: message counts* is exercised; only the fault knobs are zeroed.
ZERO_FAULT = NetConfig(fanout=3, rounds_per_epoch=2)


def run_with_net(name: str, kernel: str) -> Simulation:
    config = dataclasses.replace(
        build_config(name), kernel=kernel, net=ZERO_FAULT
    )
    events = build_events(name, config)
    sim = Simulation(config, events=events)
    sim.run()
    return sim


class TestZeroFaultGoldenIdentity:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", scenario_names())
    def test_reproduces_golden_through_the_seam(self, name, kernel):
        golden = json.loads(golden_path(name).read_text())
        sim = run_with_net(name, kernel)
        # The control plane actually carried traffic.
        service = sim.membership_service
        assert service is not None
        assert service.net.stats.snapshot()[HEARTBEAT][0] > 0
        # A zero-fault *network* never loses a message; pushes to a
        # host that just died still drop (the host is down, not the
        # net) and are accounted as partition drops.
        snap = service.net.stats.snapshot()
        assert all(row[2] == 0 for row in snap.values())
        assert sim.robustness is not None
        assert len(sim.robustness) == len(sim.metrics)
        assert sim.robustness.false_suspicion_rate() == 0.0
        frames = list(sim.metrics)
        if frames_digest(frames) == golden["digest"]:
            return
        problems = compare_streams(
            golden["frames"], frames, rtol=scenario_rtol(name)
        )
        if not problems:
            return  # within the scenario's opted-in tolerance
        pytest.fail(
            f"{name} [{kernel}] with a zero-fault net diverged from "
            f"the golden stream:\n" + "\n".join(problems[:20])
        )
