"""Ablation — the cost of *not* differentiating availability levels.

The paper's structural argument (§I): without per-application virtual
rings, a shared cloud must give every tenant the availability of the
most demanding one.  This bench compares the differentiated base
scenario against its undifferentiated transform (every ring pinned to
the 4-replica level) and prices the difference.
"""


from conftest import run_once
from repro.analysis.tables import ClaimTable
from repro.baselines.single_ring import expected_replica_bytes, undifferentiated
from repro.sim.engine import Simulation
from repro.sim.reporting import format_table
from repro.sim.scenario import compile_spec
from repro.sim.specs import paper_spec

EPOCHS = 60
PARTITIONS = 100


def test_ablation_differentiated_vs_single_level(benchmark):
    results = {}

    def make_and_run():
        base_cfg = compile_spec(paper_spec(
            epochs=EPOCHS, partitions=PARTITIONS, seed=11,
        )).config
        flat_cfg = undifferentiated(base_cfg)
        for name, cfg in (("differentiated", base_cfg),
                          ("single-level", flat_cfg)):
            sim = Simulation(cfg)
            log = sim.run()
            last = log.last
            results[name] = {
                "vnodes": last.vnodes_total,
                "storage": last.storage_used,
                "rent/epoch": last.mean_price * last.vnodes_total,
                "unsat": last.unsatisfied_partitions,
                "per_ring": dict(last.vnodes_per_ring),
                "planned_bytes": expected_replica_bytes(cfg),
            }
            results[name]["sim"] = sim
        return results["differentiated"]["sim"]

    run_once(benchmark, make_and_run)

    diff = results["differentiated"]
    flat = results["single-level"]
    overhead_vnodes = flat["vnodes"] / diff["vnodes"] - 1.0
    overhead_storage = flat["storage"] / diff["storage"] - 1.0
    overhead_rent = flat["rent/epoch"] / diff["rent/epoch"] - 1.0

    print("\n" + "=" * 72)
    print("Ablation — differentiated rings vs one shared availability level")
    print("=" * 72)
    print(format_table(
        ["variant", "vnodes", "storage(B)", "rent/epoch", "unsat"],
        [
            ["differentiated", diff["vnodes"], diff["storage"],
             diff["rent/epoch"], diff["unsat"]],
            ["single-level", flat["vnodes"], flat["storage"],
             flat["rent/epoch"], flat["unsat"]],
        ],
    ))
    print(f"single-level overhead: vnodes {overhead_vnodes:+.1%}, "
          f"storage {overhead_storage:+.1%}, rent {overhead_rent:+.1%}")

    claims = ClaimTable()
    claims.add(
        "ablation", "undifferentiated cloud needs more replicas",
        f"vnodes {flat['vnodes']} vs {diff['vnodes']} "
        f"({overhead_vnodes:+.1%})",
        flat["vnodes"] > diff["vnodes"],
    )
    claims.add(
        "ablation", "undifferentiated cloud stores more bytes",
        f"storage {flat['storage']} vs {diff['storage']} "
        f"({overhead_storage:+.1%})",
        flat["storage"] > diff["storage"],
    )
    claims.add(
        "ablation", "undifferentiated cloud pays more rent",
        f"rent/epoch {flat['rent/epoch']:.1f} vs "
        f"{diff['rent/epoch']:.1f} ({overhead_rent:+.1%})",
        flat["rent/epoch"] > diff["rent/epoch"],
    )
    claims.add(
        "ablation", "both variants satisfy their SLAs",
        f"unsatisfied: {diff['unsat']} / {flat['unsat']}",
        diff["unsat"] == 0 and flat["unsat"] == 0,
    )
    print(claims.render())
    assert claims.all_hold
