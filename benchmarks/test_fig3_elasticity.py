"""Fig. 3 — Total (per ring) number of virtual nodes upon upgrades/failures.

Paper claim (§III-C): with 20 servers added at epoch 100 and 20
different servers removed at epoch 200, "the total number of virtual
nodes remains constant after adding resources to the data cloud and
increases upon failure to maintain high availability".

This bench runs the base scenario for 300 epochs under exactly that
event schedule and prints the per-ring virtual-node totals over time.
"""

import dataclasses

from conftest import print_figure, run_once
from repro.analysis.series import relative_spread, step_change
from repro.analysis.tables import ClaimTable
from repro.sim.scenario import FailureSpec, JoinWave, LeaveWave, compile_spec
from repro.sim.specs import paper_spec

EPOCHS = 300
ADD_EPOCH, REMOVE_EPOCH, COUNT = 100, 200, 20


def test_fig3_server_arrival_and_failure(benchmark):
    def make_and_run():
        spec = dataclasses.replace(
            paper_spec(epochs=EPOCHS),
            failure=FailureSpec(events=(
                JoinWave(epoch=ADD_EPOCH, count=COUNT),
                LeaveWave(epoch=REMOVE_EPOCH, count=COUNT),
            )),
        )
        sim = compile_spec(spec).simulation()
        sim.run()
        return sim

    sim = run_once(benchmark, make_and_run)
    log = sim.metrics
    totals = log.series("vnodes_total")

    # Window means around the two events (skipping the event epoch).
    flat_around_add = relative_spread(totals[ADD_EPOCH - 30:ADD_EPOCH + 30])
    failure_step = step_change(
        totals, REMOVE_EPOCH, before_window=30, after_window=30
    )
    recovered = log.last.unsatisfied_partitions == 0

    claims = ClaimTable()
    claims.add(
        "Fig.3", "total vnodes constant after adding 20 servers",
        f"spread over epochs {ADD_EPOCH - 30}..{ADD_EPOCH + 30}: "
        f"{flat_around_add:.1%}",
        flat_around_add < 0.05,
    )
    claims.add(
        "Fig.3", "total vnodes increases upon failure (repair burst)",
        f"repairs in epochs {REMOVE_EPOCH}..{REMOVE_EPOCH + 10}: "
        f"{int(log.series('repairs')[REMOVE_EPOCH:REMOVE_EPOCH + 10].sum())}",
        log.series("repairs")[REMOVE_EPOCH:REMOVE_EPOCH + 10].sum() > 0,
    )
    claims.add(
        "Fig.3", "availability restored after failures",
        f"{log.last.unsatisfied_partitions} unsatisfied partitions at end",
        recovered,
    )
    claims.add(
        "Fig.3", "every ring holds at least its target replica count",
        str({
            ring: int(log.last.vnodes_per_ring[ring])
            for ring in sorted(log.last.vnodes_per_ring)
        }),
        all(
            log.last.vnodes_per_ring[(r.app_id, r.ring_id)]
            >= r.level.target_replicas * len(r)
            for r in sim.rings
        ),
    )

    print_figure(
        "Fig. 3 — per-ring vnode totals under +20 servers (ep.100) / "
        "-20 servers (ep.200)",
        log,
        {
            "servers": log.series("live_servers"),
            "ring0(2rep)": log.ring_series("vnodes_per_ring", (0, 0)),
            "ring1(3rep)": log.ring_series("vnodes_per_ring", (1, 1)),
            "ring2(4rep)": log.ring_series("vnodes_per_ring", (2, 2)),
            "total": totals,
            "repairs": log.series("repairs"),
        },
        points=24,
        claims=claims,
    )
    print(
        f"step change of vnode total at failure epoch: {failure_step:+.1%}"
    )
    assert claims.all_hold
