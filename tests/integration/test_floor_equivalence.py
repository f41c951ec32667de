"""The rent-floor proofs only *skip*: an engine-level A/B.

``PlacementScorer.rent_floor`` lets the §II-C pass prove a migration
hunt fruitless or an expansion unfunded without the eq. 3 scan.  This
suite runs the same spec twice under the vectorized kernel — once with
the production scorer, once with a test-only scorer whose floor is
``-inf`` (so no proof ever succeeds and every query falls through to
``best``) — and demands frame-for-frame identical streams.  Scenarios:
the flash crowd (expansions + contraction hunts), server churn with a
gossip control plane, and churn under *fractional* confidences; seeds 0
and 7, full horizon.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.decision import DecisionEngine
from repro.core.placement import PlacementScorer
from repro.sim import specs
from repro.sim.framedump import frames_to_jsonable
from repro.sim.scenario import compile_spec


class NoFloorScorer(PlacementScorer):
    """The production scorer with every floor proof disabled."""

    def rent_floor(self, *args, **kwargs) -> float:
        return float("-inf")


class NoFloorEngine(DecisionEngine):
    def _make_scorer(self, board):
        # Same constructor arguments as production, whatever they are:
        # build the real scorer, then swap in the floorless subclass.
        scorer = super()._make_scorer(board)
        scorer.__class__ = NoFloorScorer
        return scorer


def no_floor_decider(ctx):
    return NoFloorEngine.from_context(ctx)


def run(name: str, seed: int, **sim_kwargs):
    spec = specs.get(name).spec
    spec = dataclasses.replace(
        spec, operations=dataclasses.replace(spec.operations, seed=seed)
    )
    sim = compile_spec(spec).simulation(**sim_kwargs)
    sim.run()
    return sim


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "name", ["slashdot-spike", "shaky-region-churn", "churn-confidence"]
)
def test_floor_proofs_only_skip(name, seed):
    with_floor = run(name, seed)
    without = run(name, seed, decider_factory=no_floor_decider)
    assert frames_to_jsonable(with_floor.metrics) == frames_to_jsonable(
        without.metrics
    )
    # The A really had proofs to lose and the B really lost them.
    assert with_floor.decider.floor_proofs > 0
    assert without.decider.floor_proofs == 0
    assert without.decider.floor_asks == with_floor.decider.floor_asks
