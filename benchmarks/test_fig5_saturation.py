"""Fig. 5 — Storage saturation: insert failures vs used capacity.

Paper claim (§III-E): saturating the cloud with 2 000 insert
requests/epoch of 500 KB each, "our approach manages to balance the
used storage efficiently and fast enough so that there are no data
losses for used capacity up to 96% of the total storage".

This bench fills the (storage-scaled) base cloud with the insert
stream and prints the figure's series: used-capacity fraction and
insert failures per epoch.  The claim under test is the *shape* —
zero failures until the cloud is nearly full, with storage balanced
tightly across servers (low Gini) throughout.
"""

import numpy as np

from conftest import print_figure, run_once
from repro.analysis.stats import gini
from repro.analysis.tables import ClaimTable
from repro.sim.scenario import compile_spec
from repro.sim.specs import saturation_spec

EPOCHS = 150
INSERT_RATE = 4000  # 2x paper rate: halves the epochs to saturation


def test_fig5_storage_saturation(benchmark):
    ginis = {}

    def make_and_run():
        sim = compile_spec(
            saturation_spec(epochs=EPOCHS, insert_rate=INSERT_RATE)
        ).simulation()
        for epoch in range(EPOCHS):
            sim.step()
            if epoch % 10 == 0:
                ginis[epoch] = gini(
                    [s.storage_usage for s in sim.cloud]
                )
        return sim

    sim = run_once(benchmark, make_and_run)
    log = sim.metrics

    fractions = log.storage_fraction_series()
    failures = log.series("insert_failures")
    first_failure = next(
        (i for i, f in enumerate(failures) if f > 0), None
    )
    frac_at_first = (
        fractions[first_failure] if first_failure is not None else 1.0
    )

    claims = ClaimTable()
    claims.add(
        "Fig.5", "no insert failures until used capacity is near total "
        "(paper: 96%)",
        f"first failure at {frac_at_first:.1%} used capacity",
        frac_at_first > 0.80,
    )
    claims.add(
        "Fig.5", "used storage balanced efficiently across servers",
        f"storage Gini at sampled epochs: max "
        f"{max(ginis.values()):.3f}",
        max(ginis.values()) < 0.15,
    )
    claims.add(
        "Fig.5", "cloud actually saturates during the run",
        f"final used capacity {fractions[-1]:.1%}",
        fractions[-1] > 0.85,
    )
    claims.add(
        "Fig.5", "no server overcommits its storage",
        "all servers within capacity",
        all(
            s.storage_used <= s.storage_capacity for s in sim.cloud
        ),
    )

    print_figure(
        "Fig. 5 — storage saturation: insert failures vs used capacity",
        log,
        {
            "used_frac": fractions,
            "inserts": log.series("insert_attempts"),
            "failures": failures,
            "cum_failures": log.cumulative_insert_failures(),
            "migrations": log.series("migrations"),
            "partitions": np.array(
                [f.vnodes_total for f in log], dtype=float
            ),
        },
        points=24,
        claims=claims,
    )
    print("storage Gini over time (lower = better balanced):")
    for epoch in sorted(ginis):
        print(f"  epoch {epoch:>3}: {ginis[epoch]:.4f}")
    assert claims.all_hold
