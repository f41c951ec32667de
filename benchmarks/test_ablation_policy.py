"""Ablation — sensitivity of the economy's own knobs.

DESIGN.md calls out three implementation choices on top of the paper's
equations; this bench quantifies each:

* hysteresis ``f`` — epochs of one-signed balance before acting;
* migration margin — how much cheaper a host must be to move;
* insert routing — keyspace (new keys hash uniformly) vs popularity
  (inflow follows query skew), the interpretation §III-E leaves open.
"""

from dataclasses import replace


from conftest import run_once
from repro.analysis.tables import ClaimTable
from repro.core.decision import EconomicPolicy
from repro.sim.engine import Simulation
from repro.sim.reporting import format_table
from repro.sim.scenario import compile_spec
from repro.sim.specs import paper_spec, saturation_spec

EPOCHS = 60
PARTITIONS = 100


def run_with_policy(policy):
    cfg = compile_spec(
        paper_spec(epochs=EPOCHS, partitions=PARTITIONS, seed=3)
    ).config
    cfg = replace(cfg, policy=policy)
    sim = Simulation(cfg)
    log = sim.run()
    tail = slice(EPOCHS - 20, EPOCHS)
    return {
        "migrations_tail": float(log.series("migrations")[tail].mean()),
        "actions_total": sum(log.action_totals().values()),
        "unsat": log.last.unsatisfied_partitions,
        "vnodes": log.last.vnodes_total,
    }


def test_ablation_hysteresis_and_margin(benchmark):
    variants = {
        "f=1, margin=0": EconomicPolicy(hysteresis=1, migration_margin=0.0),
        "f=3, margin=0": EconomicPolicy(hysteresis=3, migration_margin=0.0),
        "f=3, margin=5%": EconomicPolicy(hysteresis=3,
                                         migration_margin=0.05),
        "f=6, margin=5%": EconomicPolicy(hysteresis=6,
                                         migration_margin=0.05),
    }
    results = {}

    def make_and_run():
        sim = None
        for name, policy in variants.items():
            results[name] = run_with_policy(policy)
        sim = compile_spec(paper_spec(epochs=2, partitions=10)).simulation()
        sim.run()
        return sim

    run_once(benchmark, make_and_run)

    print("\n" + "=" * 72)
    print("Ablation — hysteresis f and migration margin")
    print("=" * 72)
    print(format_table(
        ["variant", "migr/epoch (tail)", "total actions", "unsat",
         "vnodes"],
        [
            [name, r["migrations_tail"], r["actions_total"], r["unsat"],
             r["vnodes"]]
            for name, r in results.items()
        ],
    ))

    churny = results["f=1, margin=0"]
    stable = results["f=3, margin=5%"]
    claims = ClaimTable()
    claims.add(
        "ablation", "margin + hysteresis suppress steady-state churn",
        f"tail migrations/epoch: {churny['migrations_tail']:.1f} "
        f"(f=1,m=0) vs {stable['migrations_tail']:.1f} (f=3,m=5%)",
        stable["migrations_tail"] < churny["migrations_tail"],
    )
    claims.add(
        "ablation", "all variants meet the SLAs",
        str({k: v["unsat"] for k, v in results.items()}),
        all(r["unsat"] == 0 for r in results.values()),
    )
    print(claims.render())
    assert claims.all_hold


def test_ablation_insert_routing(benchmark):
    """Keyspace vs popularity insert routing under saturation."""
    results = {}

    def make_and_run():
        sim = None
        for routing in ("keyspace", "popularity"):
            sim = compile_spec(saturation_spec(
                epochs=80, insert_rate=4000, insert_routing=routing,
            )).simulation()
            log = sim.run()
            failures = log.series("insert_failures")
            fractions = log.storage_fraction_series()
            first = next(
                (i for i, f in enumerate(failures) if f > 0), None
            )
            results[routing] = {
                "first_fail_frac": (
                    float(fractions[first]) if first is not None else 1.0
                ),
                "failures": int(failures.sum()),
                "final_frac": float(fractions[-1]),
            }
        return sim

    run_once(benchmark, make_and_run)

    print("\n" + "=" * 72)
    print("Ablation — insert routing: keyspace vs popularity")
    print("=" * 72)
    print(format_table(
        ["routing", "first fail @frac", "total failures", "final frac"],
        [
            [name, r["first_fail_frac"], r["failures"], r["final_frac"]]
            for name, r in results.items()
        ],
    ))

    claims = ClaimTable()
    claims.add(
        "ablation", "keyspace routing defers failures far longer "
        "(the reading under which Fig.5's 96% is reachable)",
        f"first failure at {results['keyspace']['first_fail_frac']:.1%} "
        f"vs {results['popularity']['first_fail_frac']:.1%}",
        results["keyspace"]["first_fail_frac"]
        > results["popularity"]["first_fail_frac"],
    )
    print(claims.render())
    assert claims.all_hold
