"""Ablation — ground-truthing eq. 2 against correlated failures.

Eq. 2 replaces unknowable failure probabilities by geographic
diversity.  In simulation the failure probabilities ARE knowable: this
bench injects an explicit correlated-failure model (continents …
servers fail with their own rates, killing everything beneath them)
and measures the *true* per-epoch data-loss probability of the
placements each policy produces.  If the paper's premise holds, the
diversity-seeking economic placement must lose data less often than
the diversity-blind baselines — at equal or lower cost.
"""

import numpy as np

from conftest import run_once
from repro.analysis.durability import FailureModel, summarize_durability
from repro.analysis.tables import ClaimTable
from repro.baselines.random_placement import random_placement_decider
from repro.baselines.static import static_decider
from repro.sim.engine import economic_decider
from repro.sim.reporting import format_table
from repro.sim.scenario import compile_spec
from repro.sim.specs import paper_spec

EPOCHS = 50
PARTITIONS = 80
TRIALS = 4000

POLICIES = {
    "economic": economic_decider,
    "static": static_decider,
    "random": random_placement_decider,
}


def test_ablation_ground_truth_durability(benchmark):
    results = {}

    def make_and_run():
        sim = None
        model = FailureModel()
        for name, factory in POLICIES.items():
            sim = compile_spec(paper_spec(
                epochs=EPOCHS, partitions=PARTITIONS, seed=13,
            )).simulation(decider_factory=factory)
            sim.run()
            summary = summarize_durability(
                sim.cloud, sim.catalog, model, trials=TRIALS,
                rng=np.random.default_rng(99),
            )
            results[name] = {
                "mean_loss": summary.mean_loss,
                "max_loss": summary.max_loss,
                "nines": summary.mean_nines,
                "vnodes": sim.metrics.last.vnodes_total,
            }
        return sim

    run_once(benchmark, make_and_run)

    print("\n" + "=" * 72)
    print("Ablation — true per-epoch loss probability under correlated "
          "failures")
    print("=" * 72)
    print(format_table(
        ["policy", "mean P(loss)/epoch", "max P(loss)", "mean nines",
         "vnodes"],
        [
            [name, f"{r['mean_loss']:.2e}", f"{r['max_loss']:.2e}",
             f"{r['nines']:.2f}", r["vnodes"]]
            for name, r in results.items()
        ],
    ))

    econ = results["economic"]
    stat = results["static"]
    claims = ClaimTable()
    claims.add(
        "durability",
        "diversity-driven placement survives correlated failures better "
        "than successor placement",
        f"mean loss {econ['mean_loss']:.2e} vs {stat['mean_loss']:.2e}",
        econ["mean_loss"] <= stat["mean_loss"],
    )
    claims.add(
        "durability",
        "worst-protected partition is also safer under the economy",
        f"max loss {econ['max_loss']:.2e} vs {stat['max_loss']:.2e}",
        econ["max_loss"] <= stat["max_loss"],
    )
    print(claims.render())
    assert claims.all_hold
