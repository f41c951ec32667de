"""Randomized kernel-equivalence harness over the sampled-spec space.

The hand-picked golden scenarios pin seven behavioral regimes; this
harness removes the "hand-picked" qualifier.  Each seed draws a small
random *scenario spec* from :func:`tests.spec_samplers.sample_spec` —
cloud shape, partition counts, policy knobs (including tight
``repair_iterations`` bounds), base rate, optional fractional
per-country confidences, optional join/leave churn waves, optional
insert stream, optional flash-crowd/diurnal flow phases, optional
zipf data-plane traffic — compiles it, and runs it to completion under
both epoch kernels.  The frame streams must match exactly, or within
the 1e-9 relative tolerance the sampler assigns to
fractional-confidence draws (eq. 2 pair sums accumulate in different
orders across kernels there).

Sampling *specs* instead of ad-hoc knobs means this harness, the
spec-validation suite, the named-scenario digests and the sampled
paper-invariant checks all exercise the same declared scenario space
— a new flow or constraint added to the spec schema is automatically
sampled here.

On top of the spec, a test-side coin picks the decider: the economic
one, or an economic one blind to the believed view (physical liveness).

Seeds 0–3 run in tier-1; the remaining sweep (seeds 4–23) carries the
``slow`` marker and is opt-in::

    PYTHONPATH=src python -m pytest -m slow tests/integration/test_randomized_equivalence.py -q
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np
import pytest

from repro.core.decision import DecisionEngine
from repro.sim.engine import Simulation, economic_decider
from repro.sim.framedump import frame_diff, frames_to_jsonable
from repro.sim.scenario import compile_spec
from tests.spec_samplers import sample_spec

KERNELS = ("vectorized", "scalar")

FAST_SEEDS = tuple(range(4))
SLOW_SEEDS = tuple(range(4, 24))


def physical_liveness_decider(ctx) -> DecisionEngine:
    """An economic decider that reads physical liveness, not the
    believed view: the faulty-net control-plane pins
    (golden/faulty_net_control.json) were taken with this decider."""
    return DecisionEngine.from_context(
        dataclasses.replace(ctx, membership=None)
    )


def draw_decider(seed: int) -> Callable:
    """The test-side decider draw (kept out of the spec space on purpose:
    a decider is harness instrumentation, not scenario data)."""
    rng = np.random.default_rng(77_000 + seed)
    if rng.random() < 0.4:
        # The second draw once sized a scorer window.  Nothing reads it
        # now; it stays so each seed's draw sequence is the one the
        # pins were taken with.
        rng.integers(2, 7)
        return physical_liveness_decider
    return economic_decider


def assert_kernels_agree(seed: int) -> None:
    spec = sample_spec(seed)
    decider = draw_decider(seed)
    frames = {}
    for kernel in KERNELS:
        compiled = compile_spec(spec.with_operations(kernel=kernel))
        sim = Simulation(
            compiled.config,
            events=compiled.events(),
            decider_factory=decider,
        )
        sim.run()
        frames[kernel] = frames_to_jsonable(sim.metrics)
    rtol = spec.operations.rtol
    left, right = frames["vectorized"], frames["scalar"]
    assert len(left) == len(right)
    if rtol <= 0.0:
        assert left == right, f"seed {seed}: streams diverge bit-exactly"
        return
    for i, (a, b) in enumerate(zip(left, right)):
        problems = frame_diff(a, b, rtol=rtol)
        assert not problems, (
            f"seed {seed} epoch {i}: " + "; ".join(problems[:5])
        )


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", FAST_SEEDS)
    def test_random_scenarios_fast(self, seed):
        assert_kernels_agree(seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_random_scenarios_sweep(self, seed):
        assert_kernels_agree(seed)
