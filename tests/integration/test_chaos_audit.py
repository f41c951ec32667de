"""Multi-seed consistency-audit chaos sweep (ISSUE 7 harness).

Each seed draws a different network-only fault schedule — loss level,
partition windows, link flaps — runs quorum client traffic through
the stale-view data plane, settles, and audits the recorded history.
The sweep-wide contract:

* **zero lost writes** — every committed QUORUM write survives on a
  replica copy or a parked hint; network faults alone can never lose
  acked data,
* **no dirty ghost reads** — contact goes through
  ``membership.responds``, so a physically dead replica never serves,
* **hints drain** — after the quiet tail plus the settle phase the
  hint queue is empty (nothing parked forever against a healed cloud).

Strong stale reads are allowed (the sloppy-quorum window the audit
measures), but only while hints were in flight.

Since ISSUE 8 each seed's scenario is drawn from the declarative spec
space (:func:`tests.spec_samplers.sample_chaos_spec`) — the same seeds
compile to the exact configs this sweep historically hand-built
(``tests/sim/test_scenario_spec.py`` pins that equality), so the
sweep's verdicts are unchanged by the migration.

Seeds 0-1 run in tier-1; the wider sweep carries ``slow``::

    PYTHONPATH=src python -m pytest -m slow tests/integration/test_chaos_audit.py -q

The ``slow`` tier also checks the crash side of the contract on the
benchmark's ``faults-churn`` workload (leave waves kill servers, so
acked writes *can* die there): every write the front door still loses
must sit inside the sloppy-quorum bound — each of its ack-time holders
(the replicas that acked it, the targets of its parked hints) has
crashed out of the cloud.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.sim.scenario import compile_spec, load_spec
from tests.spec_samplers import sample_chaos_spec

FAST_SEEDS = tuple(range(2))
SLOW_SEEDS = tuple(range(2, 18))


def run_audit(seed: int):
    return compile_spec(sample_chaos_spec(seed)).run_audit()


def check(audit) -> None:
    report = audit.report
    assert report.operations > 0
    assert report.lost_writes == 0, report.render()
    assert report.dirty_ghost_reads == 0, report.render()
    assert audit.green
    assert audit.sim.data_plane.hints.depth == 0, (
        "hints still parked after the settle phase"
    )


@pytest.mark.parametrize("seed", FAST_SEEDS)
def test_audit_green_fast_seeds(seed):
    check(run_audit(seed))


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_audit_green_slow_sweep(seed):
    check(run_audit(seed))


FAULTS_CHURN = (
    Path(__file__).resolve().parents[2]
    / "benchmarks/e2e/workloads/faults-churn.json"
)
#: Seed -> acked front-door writes ``faults-churn`` loses at its horizon,
#: every one on a single-replica partition whose replica crashed.
BOUND_LOSSES = {0: 11, 7: 9}


@pytest.mark.slow
@pytest.mark.parametrize("seed", sorted(BOUND_LOSSES))
def test_faults_churn_losses_sit_inside_the_bound(seed):
    spec = load_spec(FAULTS_CHURN).with_operations(seed=seed)
    sim = compile_spec(spec).simulation()
    front = sim.serving
    holders = {}
    put = front.store.put

    def recording_put(app_id, ring_id, key, value, **kwargs):
        result = put(app_id, ring_id, key, value, **kwargs)
        holders[(app_id, ring_id, key, result.version)] = (
            result.acked + result.hinted
        )
        return result

    front.store.put = recording_put
    sim.run(spec.operations.epochs)
    lost = front.lost_writes()
    for app_id, ring_id, key, version, __ in lost:
        ack_time = holders[(app_id, ring_id, key, version)]
        assert ack_time, key
        assert not any(sid in sim.cloud for sid in ack_time), key
    assert len(lost) == BOUND_LOSSES[seed]
