"""The baseline deciders act on the believed view, as the economy does.

Under a gossip control plane a killed server stays *believed* alive
until detection.  Every decider built through
``DecisionEngine.from_context`` reads liveness through the simulation's
membership service, and the random ablation's scorer masks candidates
by the believed column — so ``--policy static|random --net`` compares
like with like.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines.random_placement import random_placement_decider
from repro.baselines.static import static_decider
from repro.sim.scenario import FailureSpec, LeaveWave, NetSpec, compile_spec
from repro.sim.specs import paper_spec

KILL_EPOCH = 2


def ghost_spec():
    """Two kills at epoch 2 that a lossy 10-round, 3-rounds-per-epoch
    detector cannot confirm before epoch 5 (a loss-free net is the
    oracle, which detects every kill the same epoch)."""
    spec = paper_spec(epochs=5, partitions=20)
    return dataclasses.replace(spec, failure=FailureSpec(
        events=(LeaveWave(epoch=KILL_EPOCH, count=2),),
        net=NetSpec(loss=0.05, rounds_per_epoch=3, dead_rounds=10),
    ))


@pytest.mark.parametrize(
    "factory", [static_decider, random_placement_decider],
    ids=["static", "random"],
)
def test_baselines_decide_on_the_believed_view(factory):
    sim = compile_spec(ghost_spec()).simulation(decider_factory=factory)
    assert sim.decider._membership is sim.membership_service
    scorers = []
    make_scorer = sim.decider._make_scorer

    def capture(board):
        scorers.append(make_scorer(board))
        return scorers[-1]

    sim.decider._make_scorer = capture
    for __ in range(KILL_EPOCH + 2):
        sim.step()
    service = sim.membership_service
    believed = service.believed_vector()
    # Inside the detection window: ghosts are believed alive.
    assert service.ghost_count > 0
    assert not np.array_equal(believed, sim.cloud.alive_vector())
    if factory is random_placement_decider:
        assert np.array_equal(scorers[-1]._alive, believed)
