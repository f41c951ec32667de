"""Ablation — what the economic placement itself buys.

The paper positions Skute against static key-value stores (§I): one
store per application with fixed replication would either waste money
or violate SLAs, and placement ignoring geography cannot survive
correlated failures cheaply.  This bench runs the identical scenario
under three policies and compares cost and availability:

* ``economic``  — the full §II policy (this paper);
* ``static``    — Dynamo-style fixed-count successor placement;
* ``random``    — the §II policy with random feasible placement
  (isolates eq. 3's diversity/cost scoring).
"""


from conftest import run_once
from repro.analysis.tables import ClaimTable
from repro.baselines.random_placement import random_placement_decider
from repro.baselines.static import static_decider
from repro.core.availability import availability
from repro.sim.engine import economic_decider
from repro.sim.reporting import format_table
from repro.sim.scenario import compile_spec
from repro.sim.specs import paper_spec

EPOCHS = 60
PARTITIONS = 100

POLICIES = {
    "economic": economic_decider,
    "static": static_decider,
    "random": random_placement_decider,
}


def run_policy(name):
    sim = compile_spec(paper_spec(
        epochs=EPOCHS, partitions=PARTITIONS, seed=7,
    )).simulation(decider_factory=POLICIES[name])
    sim.run()
    return sim


def summarise(sim):
    log = sim.metrics
    last = log.last
    avails = []
    min_avail = float("inf")
    for ring in sim.rings:
        for p in ring:
            a = availability(sim.cloud, sim.catalog.servers_of(p.pid))
            avails.append(a - ring.level.threshold)
            min_avail = min(min_avail, a - ring.level.threshold)
    expensive_share = last.vnodes_on_expensive / max(last.vnodes_total, 1)
    return {
        "vnodes": last.vnodes_total,
        "rent/epoch": last.mean_price * last.vnodes_total,
        "exp_share": expensive_share,
        "slack_min": min_avail,
        "unsat": last.unsatisfied_partitions,
    }


def test_ablation_placement_policies(benchmark):
    results = {}

    def make_and_run():
        for name in POLICIES:
            results[name] = summarise(run_policy(name))
        return run_policy("economic")  # returned sim only anchors the API

    run_once(benchmark, make_and_run)

    headers = ["policy", "vnodes", "rent/epoch", "exp_share", "slack_min",
               "unsat"]
    rows = [
        [name, r["vnodes"], r["rent/epoch"], r["exp_share"],
         r["slack_min"], r["unsat"]]
        for name, r in results.items()
    ]
    print("\n" + "=" * 72)
    print("Ablation — placement policy comparison (identical scenario)")
    print("=" * 72)
    print(format_table(headers, rows))

    econ, stat, rand = (
        results["economic"], results["static"], results["random"]
    )
    claims = ClaimTable()
    claims.add(
        "ablation", "economic placement avoids expensive servers",
        f"expensive-server vnode share: economic "
        f"{econ['exp_share']:.1%} vs static {stat['exp_share']:.1%}",
        econ["exp_share"] < stat["exp_share"],
    )
    claims.add(
        "ablation", "all policies eventually protect every partition",
        f"unsatisfied: {econ['unsat']}/{stat['unsat']}/{rand['unsat']}",
        econ["unsat"] == 0,
    )
    claims.add(
        "ablation", "diversity-aware placement keeps availability slack "
        "per replica high",
        f"min slack above threshold: economic {econ['slack_min']:.0f} "
        f"vs static {stat['slack_min']:.0f}",
        econ["slack_min"] >= stat["slack_min"],
    )
    claims.add(
        "ablation", "random placement needs at least as many replicas",
        f"vnodes: random {rand['vnodes']} vs economic {econ['vnodes']}",
        rand["vnodes"] >= econ["vnodes"],
    )
    print(claims.render())
    assert claims.all_hold
