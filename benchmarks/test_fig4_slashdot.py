"""Fig. 4 — Average query load per virtual ring per server over time.

Paper claim (§III-D): under a Slashdot spike — mean rate climbing from
3 000 to 183 000 queries/epoch over 25 epochs, then decaying back over
250 epochs — "the query load per server remains quite balanced despite
the variations in the total query load", with applications 1/2/3
attracting 4/7, 2/7 and 1/7 of the load.

This bench runs the full 400-epoch spike scenario and prints the
figure's series: each ring's average per-server query load, plus the
Jain fairness of the per-server load at sampled epochs.
"""


from conftest import print_figure, run_once
from repro.analysis.stats import jain_index
from repro.analysis.tables import ClaimTable
from repro.sim.scenario import compile_spec
from repro.sim.specs import slashdot_spec

EPOCHS = 400
SPIKE_EPOCH, RAMP, DECAY = 100, 25, 250


def test_fig4_slashdot_effect(benchmark):
    jains = {}

    def make_and_run():
        sim = compile_spec(slashdot_spec(
            epochs=EPOCHS, spike_epoch=SPIKE_EPOCH,
            ramp_epochs=RAMP, decay_epochs=DECAY,
        )).simulation()
        # Step manually so per-epoch server loads can be sampled
        # (queries_this_epoch is reset at the next epoch's start).
        for epoch in range(EPOCHS):
            sim.step()
            if epoch % 10 == 0 or SPIKE_EPOCH <= epoch <= SPIKE_EPOCH + RAMP:
                loads = [s.queries_this_epoch for s in sim.cloud]
                jains[epoch] = jain_index(loads)
        return sim

    sim = run_once(benchmark, make_and_run)
    log = sim.metrics

    totals = log.series("total_queries")
    peak_region = range(SPIKE_EPOCH + RAMP - 5, SPIKE_EPOCH + RAMP + 40)
    peak_jains = [jains[e] for e in jains if e in peak_region]
    served = {
        ring: log.ring_series("queries_per_ring", ring).sum()
        for ring in log.rings()
    }
    grand = sum(served.values())
    shares = {ring: served[ring] / grand for ring in served}

    claims = ClaimTable()
    claims.add(
        "Fig.4", "mean rate reaches ~183000 at the spike peak",
        f"max queries/epoch = {int(totals.max())}",
        totals.max() > 150_000,
    )
    claims.add(
        "Fig.4", "query load per server remains quite balanced at peak",
        f"Jain index during peak: min {min(peak_jains):.2f}",
        min(peak_jains) > 0.5,
    )
    claims.add(
        "Fig.4", "apps attract 4/7, 2/7, 1/7 of the query load",
        ", ".join(f"{ring}: {shares[ring]:.3f}" for ring in sorted(shares)),
        abs(shares[(0, 0)] - 4 / 7) < 0.02
        and abs(shares[(1, 1)] - 2 / 7) < 0.02
        and abs(shares[(2, 2)] - 1 / 7) < 0.02,
    )
    vnodes = log.series("vnodes_total")
    claims.add(
        "Fig.4", "replication adapts to the query rate (expand+contract)",
        f"vnodes: before {int(vnodes[SPIKE_EPOCH - 1])}, "
        f"peak {int(vnodes.max())}, end {int(vnodes[-1])}",
        vnodes.max() > vnodes[SPIKE_EPOCH - 1] * 1.2
        and vnodes[-1] < vnodes.max() * 0.9,
    )

    print_figure(
        "Fig. 4 — average query load per virtual ring per server",
        log,
        {
            "rate": totals,
            "ring0/srv": log.query_load_series((0, 0)),
            "ring1/srv": log.query_load_series((1, 1)),
            "ring2/srv": log.query_load_series((2, 2)),
            "vnodes": vnodes,
            "eco_repl": log.series("economic_replications"),
            "suicides": log.series("suicides"),
        },
        points=24,
        claims=claims,
    )
    print("Jain fairness of per-server load (sampled):")
    for epoch in sorted(jains)[::4]:
        print(f"  epoch {epoch:>3}: {jains[epoch]:.3f}")
    assert claims.all_hold
