"""Source-first migration refusals only *skip*: an engine-level A/B.

``DecisionEngine._refused_at_source`` refuses a migration hunt whose
source cannot ship the bytes without running the eq. 3 argmax the batch
would have refused anyway.  This suite runs the same spec twice under
the vectorized kernel — once as shipped, once with the refusal forced
off so every hunt goes on to ``best`` and ``add_migration`` — and
demands identical frames, per-epoch ``DecisionStats`` and transfer
accounting (``deferred``, ``len(failures)``).  Scenarios: back-to-back
flash crowds (the most contraction hunts), a surge against quartered
budgets, and regional tenants with eq. 4 proximity vectors; seeds 0 and
7, full horizon.  Under ``net`` the refusal must never be taken: the
liveness and reachability outcomes precede the budget checks and feed
the retry queue and the wasted-transfer tally.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.core.decision import DecisionEngine
from repro.sim import specs
from repro.sim.framedump import frames_to_jsonable
from repro.sim.scenario import compile_spec, load_spec
from repro.store.transfer import NO_DESTINATION, TransferOutcome

from tests.core.test_repair_semantics import build

REPO_ROOT = Path(__file__).resolve().parents[2]


class RecordingEngine(DecisionEngine):
    """The production engine, keeping each pass's stats and accounting."""

    def decide(self, *args, **kwargs):
        stats = super().decide(*args, **kwargs)
        transfers = self._transfers.stats
        vars(self).setdefault("passes", []).append((
            dataclasses.asdict(stats), transfers.deferred,
            len(transfers.failures),
        ))
        return stats


class HuntFirstEngine(RecordingEngine):
    """…with every source-first refusal forced off."""

    def _refused_at_source(self, *args, **kwargs) -> bool:
        return False


def run(spec, seed: int, engine_cls):
    spec = dataclasses.replace(
        spec, operations=dataclasses.replace(spec.operations, seed=seed)
    )
    sim = compile_spec(spec).simulation(
        decider_factory=engine_cls.from_context
    )
    sim.run()
    return sim


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "name", ["flash-crowd-cascade", "budget-crunch", "discrete-geo"]
)
def test_source_first_refusals_only_skip(name, seed):
    spec = specs.get(name).spec
    shipped = run(spec, seed, RecordingEngine)
    hunting = run(spec, seed, HuntFirstEngine)
    assert frames_to_jsonable(shipped.metrics) == frames_to_jsonable(
        hunting.metrics
    )
    assert shipped.decider.passes == hunting.decider.passes
    # The A really refused at the source and the B really hunted.
    assert shipped.decider.source_first_proofs > 0
    assert hunting.decider.source_first_proofs == 0
    assert hunting.decider.ceil_asks > shipped.decider.ceil_asks


def test_never_taken_under_a_faulty_network():
    """``faults-churn``: believed liveness differs from physical and a
    reachability function is installed, so no hunt is even put to the
    proof — and forcing it off changes no frame, retry or wasted count."""
    spec = load_spec(
        REPO_ROOT / "benchmarks/e2e/workloads/faults-churn.json"
    )
    spec = dataclasses.replace(
        spec, operations=dataclasses.replace(spec.operations, epochs=16)
    )
    shipped = run(spec, 0, RecordingEngine)
    hunting = run(spec, 0, HuntFirstEngine)
    assert shipped.transfers.reachability is not None
    assert shipped.decider.source_first_asks == 0
    assert shipped.decider.passes == hunting.decider.passes
    assert shipped.robustness.summary() == hunting.robustness.summary()
    assert frames_to_jsonable(shipped.metrics) == frames_to_jsonable(
        hunting.metrics
    )


class GhostView:
    """A membership view with one non-physical belief active."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def predicate(self):
        return self._inner.believed


@pytest.mark.parametrize("net", ["oracle", "predicate", "reachability"])
def test_precondition_gates_the_refusal(net):
    (cloud, rings, ring, catalog, registry, transfers, engine,
     board) = build()
    p = ring.partitions()[0]
    catalog.place(p, 0)
    registry.spawn(p.pid, 0)
    if net == "predicate":
        engine._membership = GhostView(engine._membership)
    elif net == "reachability":
        transfers.set_reachability(lambda src, dst: True)
    scorer = engine._make_scorer(board)
    budget = cloud.server(0).migration_budget
    budget.reserve(budget.available - (p.size - 1))
    batch = transfers.open_batch()
    refused = engine._refused_at_source(
        scorer, batch, p, 0, [0], float("inf"), "migration"
    )
    assert refused == (net == "oracle")
    assert engine.source_first_asks == engine.source_first_proofs == int(
        refused
    )
    assert transfers.stats.deferred == len(transfers.stats.failures) == int(
        refused
    )
    if refused:
        record = transfers.stats.failures[0]
        assert record.outcome is TransferOutcome.NO_SOURCE_BANDWIDTH
        assert (record.pid, record.src, record.dst, record.nbytes) == (
            p.pid, 0, NO_DESTINATION, p.size
        )
        # A source that can ship, or a hunt with no candidate under the
        # cap, is not refused here: the scan decides.
        assert not engine._refused_at_source(
            scorer, batch, p, 0, [0], 0.0, "migration"
        )
        budget.release(1)
        batch = transfers.open_batch()
        assert not engine._refused_at_source(
            scorer, batch, p, 0, [0], float("inf"), "migration"
        )
        assert engine.source_first_proofs == 1
