"""Churn-heavy splice-equivalence harness (ISSUE 9, wall (a)).

The vectorized kernel maintains its incidence alignment incrementally:
mutation epochs splice spawn/rehome/remove rows into the cached slot
order instead of re-running the full ``np.lexsort`` rebuild.  This
harness drives sampled scenario specs augmented with per-epoch
join/leave waves — every epoch mutates the cloud, catalog or registry
— and pins three agreements:

* the splice path actually runs (``align_splices > 0``), with the
  incidence's inline cross-check armed (``align_check``), so any
  divergence from the full rebuild raises inside the run;
* the spliced stream is byte-identical to an engine whose splice is
  disabled outright (every epoch takes the sanctioned lexsort
  rebuild);
* the vectorized stream still matches the scalar reference kernel
  under the spec's usual equivalence tolerance.

Specs come from the PR 8 sampler, so the churn rides on the same
declared scenario space as the randomized-equivalence sweeps.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.incidence import Incidence
from repro.sim.engine import Simulation, economic_decider
from repro.sim.framedump import frame_diff, frames_to_jsonable
from repro.sim.scenario import (
    FailureSpec,
    JoinWave,
    LeaveWave,
    compile_spec,
)
from tests.spec_samplers import sample_spec

SEEDS = tuple(range(3))
SLOW_SEEDS = tuple(range(3, 10))


def churnify(spec):
    """Replace the spec's failure plan with per-epoch join/leave waves.

    Alternating small waves across the whole horizon: every epoch
    starts with a cloud mutation, and the economy's own transfers keep
    the catalog and registry moving — the regime the incremental
    incidence splice (and its structural-fallback triggers) must
    survive.
    """
    epochs = spec.operations.epochs
    waves = []
    for epoch in range(1, max(2, epochs - 1)):
        if epoch % 2:
            waves.append(JoinWave(epoch=epoch, count=2))
        else:
            waves.append(LeaveWave(epoch=epoch, count=1))
    return dataclasses.replace(
        spec,
        name=spec.name + "-churn",
        failure=FailureSpec(events=tuple(waves)),
    )


def checked_decider(ctx):
    """The production engine with the splice cross-check armed: every
    splice is verified against the full rebuild in-line (KernelError on
    the first diverging row)."""
    engine = economic_decider(ctx)
    engine.incidence.align_check = True
    return engine


class ForcedRebuildIncidence(Incidence):
    """Splice disabled: every mutation epoch pays the full lexsort
    rebuild — the fallback the splice must be byte-equivalent to."""

    def _splice_touched(self, cache):
        return None


def forced_rebuild_decider(ctx):
    engine = economic_decider(ctx)
    engine.incidence.__class__ = ForcedRebuildIncidence
    return engine


def run_stream(spec, kernel, decider_factory):
    compiled = compile_spec(spec.with_operations(kernel=kernel))
    sim = Simulation(
        compiled.config,
        events=compiled.events(),
        decider_factory=decider_factory,
    )
    sim.run()
    return sim, frames_to_jsonable(sim.metrics)


def assert_splice_agrees(seed: int) -> None:
    spec = churnify(sample_spec(seed))

    sim, spliced = run_stream(spec, "vectorized", checked_decider)
    assert sim.decider.align_splices > 0, (
        f"seed {seed}: churn run never took the splice path "
        f"(rebuilds={sim.decider.align_rebuilds}, "
        f"reuses={sim.decider.align_reuses})"
    )

    __, rebuilt = run_stream(spec, "vectorized", forced_rebuild_decider)
    assert spliced == rebuilt, (
        f"seed {seed}: spliced incidence stream diverges from the "
        f"full-rebuild fallback"
    )

    __, scalar = run_stream(spec, "scalar", economic_decider)
    rtol = spec.operations.rtol
    assert len(spliced) == len(scalar)
    if rtol <= 0.0:
        assert spliced == scalar, (
            f"seed {seed}: kernels diverge bit-exactly under churn"
        )
        return
    for i, (a, b) in enumerate(zip(spliced, scalar)):
        problems = frame_diff(a, b, rtol=rtol)
        assert not problems, (
            f"seed {seed} epoch {i}: " + "; ".join(problems[:5])
        )


class TestChurnSpliceEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_churned_specs_fast(self, seed):
        assert_splice_agrees(seed)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_churned_specs_sweep(self, seed):
        assert_splice_agrees(seed)
