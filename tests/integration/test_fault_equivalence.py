"""Randomized fault-schedule equivalence sweep (net dimension).

Adds the network dimension to the randomized equivalence harness:

* **zero-fault identity** — every sampled scenario spec, re-run with a
  zero-fault :class:`NetConfig` threaded through the whole control
  plane, must emit a frame stream identical to its oracle
  (``net=None``) twin.  The spec sampler
  (:func:`tests.spec_samplers.sample_spec`) supplies the adversarial
  clouds; the net layer must be invisible at zero faults.
* **faulty determinism** — a run with active faults is not contracted
  to match its oracle twin (that divergence is the measurement), but
  it must be *reproducible*: same seed, same faults, same kernel ⇒
  same stream; and it must complete under both kernels.

Since ISSUE 8 the scenarios come from the same sampled-spec space as
``test_randomized_equivalence.py`` (which also supplies the decider
draw), so every dimension added to the spec schema is exercised under
the net layer automatically.

* **faulty-gossip pins** — determinism alone would accept a change
  that re-ordered ``faulty_net()``'s draws consistently.  The
  ``ControlPlaneFrame`` stream and the message totals of the fast seeds
  are therefore pinned in ``golden/faulty_net_control.json``, last
  regenerated when gossip delivery lost its delay draw (and the spec
  sampler its ``repair_iterations`` draw).  Regenerate
  (``PYTHONPATH=src python tests/integration/test_fault_equivalence.py``)
  only for a deliberate behavioral change, and say so in the commit.

Seeds 0–3 run in tier-1; the wider sweep carries ``slow``::

    PYTHONPATH=src python -m pytest -m slow tests/integration/test_fault_equivalence.py -q
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.net.model import HEARTBEAT, LinkFlap, NetConfig, NetPartition
from repro.sim.engine import Simulation
from repro.sim.framedump import dump_frames, frame_diff, frames_to_jsonable
from repro.sim.scenario import (
    LeaveWave,
    compile_events,
    compile_spec,
    load_spec,
)
from tests.spec_samplers import sample_spec
from test_randomized_equivalence import draw_decider

KERNELS = ("vectorized", "scalar")
FAST_SEEDS = tuple(range(4))
SLOW_SEEDS = tuple(range(4, 24))

ZERO_FAULT = NetConfig(rounds_per_epoch=2)

PIN_PATH = (
    Path(__file__).resolve().parent / "golden" / "faulty_net_control.json"
)


def run_stream(spec, config, decider):
    sim = Simulation(
        config,
        events=compile_events(spec, config),
        decider_factory=decider,
    )
    sim.run()
    return sim, frames_to_jsonable(sim.metrics)


def assert_streams_equal(left, right, rtol, label):
    assert len(left) == len(right), label
    if rtol <= 0.0:
        assert left == right, label
        return
    for i, (a, b) in enumerate(zip(left, right)):
        problems = frame_diff(a, b, rtol=rtol)
        assert not problems, (
            f"{label} epoch {i}: " + "; ".join(problems[:5])
        )


def assert_zero_fault_matches_oracle(seed: int) -> None:
    spec = sample_spec(seed)
    decider = draw_decider(seed)
    rtol = spec.operations.rtol
    for kernel in KERNELS:
        base = compile_spec(spec.with_operations(kernel=kernel)).config
        _, oracle = run_stream(spec, base, decider)
        wired = dataclasses.replace(base, net=ZERO_FAULT)
        sim, faulty = run_stream(spec, wired, decider)
        assert sim.membership_service.net.stats.snapshot()[HEARTBEAT][0] > 0
        assert_streams_equal(
            oracle, faulty, rtol,
            f"seed {seed} [{kernel}]: zero-fault net diverged from oracle",
        )


def faulty_net(epochs: int) -> NetConfig:
    mid = max(1, epochs // 3)
    return NetConfig(
        loss=0.15,
        rounds_per_epoch=3,
        dead_rounds=8,
        partitions=(
            NetPartition(
                start=mid, heal=mid + 2, depth=2,
                asymmetric=True,
            ),
        ),
        flaps=(LinkFlap(start=mid + 1, heal=mid + 3),),
    )


def run_faulty(seed: int, kernel: str):
    """One sampled spec under ``faulty_net()``: ``(sim, stream)``."""
    spec = sample_spec(seed)
    base = compile_spec(spec.with_operations(kernel=kernel)).config
    cfg = dataclasses.replace(
        base, net=faulty_net(spec.operations.epochs)
    )
    return run_stream(spec, cfg, draw_decider(seed))


def assert_faulty_run_deterministic(seed: int) -> None:
    for kernel in KERNELS:
        (sim, first), (_, second) = (
            run_faulty(seed, kernel) for _ in range(2)
        )
        assert first == second, (
            f"seed {seed} [{kernel}]: faulty run not reproducible"
        )
        log = sim.robustness
        assert log is not None and len(log) == sim.config.epochs
        assert log.message_totals()["HEARTBEAT"]["sent"] > 0


def faulty_control_plane(seed: int, kernel: str) -> dict:
    """Fingerprint one ``faulty_net()`` run's control-plane stream."""
    log = run_faulty(seed, kernel)[0].robustness
    return {
        "frames": len(log),
        "control_dump": hashlib.sha256(
            dump_frames(list(log)).encode()
        ).hexdigest(),
        "message_totals": log.message_totals(),
    }


PINS = json.loads(PIN_PATH.read_text()) if PIN_PATH.exists() else {}


class TestDelayedGossipPins:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_control_plane_stream_matches_parent_pins(self, seed, kernel):
        pin = PINS.get(f"{seed}/{kernel}")
        assert pin is not None, f"no pin for {seed}/{kernel}"
        assert faulty_control_plane(seed, kernel) == pin

    def test_pins_cover_the_fault_branches(self):
        """The pin is only a fence if the faults actually bit."""
        for key, pin in PINS.items():
            beats = pin["message_totals"]["HEARTBEAT"]
            assert beats["dropped_loss"] > 0, key
            assert beats["dropped_partition"] > 0, key
        assert any(
            pin["message_totals"]["NEW_NODE"]["delivered"] > 0
            for pin in PINS.values()
        )


class TestZeroFaultEquivalence:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_randomized_zero_fault_fast(self, seed):
        assert_zero_fault_matches_oracle(seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_randomized_zero_fault_sweep(self, seed):
        assert_zero_fault_matches_oracle(seed)


class TestFaultyDeterminism:
    @pytest.mark.parametrize("seed", FAST_SEEDS[:2])
    def test_faulty_runs_reproduce_fast(self, seed):
        assert_faulty_run_deterministic(seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS[:8])
    def test_faulty_runs_reproduce_sweep(self, seed):
        assert_faulty_run_deterministic(seed)


def split_on_ghost_spec(seed: int, kernel: str, epochs: int):
    """PR 13's "found, not fixed" reproducer: the faults-churn workload
    with inserts (hence splits) from epoch 0 and four more leave waves,
    so partitions split while replicas sit on undetected ghosts."""
    spec = load_spec(
        Path(__file__).parents[2]
        / "benchmarks/e2e/workloads/faults-churn.json"
    )
    inserts = dataclasses.replace(spec.flows.inserts, start_epoch=0)
    waves = tuple(LeaveWave(epoch=e, count=5) for e in (28, 31, 34, 37))
    return dataclasses.replace(
        spec,
        flows=dataclasses.replace(spec.flows, inserts=inserts),
        failure=dataclasses.replace(
            spec.failure, events=spec.failure.events + waves
        ),
    ).with_operations(seed=seed, kernel=kernel, epochs=epochs)


class TestSplitOnGhost:
    # crash_epoch: where the parent commit raised CapacityError "server
    # N is down" out of Simulation.step (the same under both kernels).
    @pytest.mark.parametrize("seed,crash_epoch,kernel", [
        (2, 6, "vectorized"), (2, 6, "scalar"),
        (5, 12, "scalar"), (0, 33, "vectorized"),
    ])
    def test_run_survives_and_catalog_stays_consistent(
            self, seed, crash_epoch, kernel):
        sim = compile_spec(
            split_on_ghost_spec(seed, kernel, crash_epoch + 3)
        ).simulation()
        for _ in range(crash_epoch + 3):
            sim.step()
            sim.catalog.check_consistency(
                {p.pid: p for ring in sim.rings for p in ring}
            )
        # every split adds one partition to the seeded 3 x 200
        assert sum(len(ring) for ring in sim.rings) > 600


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(
        {
            f"{seed}/{kernel}": faulty_control_plane(seed, kernel)
            for seed in FAST_SEEDS for kernel in KERNELS
        },
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {PIN_PATH}")
