"""Ablation — geographic data placement per application (§I advantage 2).

"Data that is mostly accessed from a certain geographical region should
be moved close to that region."  This bench runs one regional
application (90 % of clients in one country) twice — once with its real
geography driving eq. 4, once pretending clients are uniform — and
measures what proximity-aware placement buys in expected response time
(the latency model the paper's conclusion defers to future work), plus
the maintenance traffic both runs pay.
"""


from conftest import run_once
from repro.analysis.latency import (
    LatencyModel,
    OverheadLedger,
    app_response_times,
)
from repro.analysis.tables import ClaimTable
from repro.cluster.topology import CloudLayout
from repro.core.policy import EconomicPolicy
from repro.sim.config import AppConfig, RingConfig, SimConfig
from repro.sim.engine import Simulation
from repro.sim.reporting import format_table
from repro.workload.clients import hotspot, uniform_geography

LAYOUT = CloudLayout()  # the paper's 200-server cloud
HOT_COUNTRY = 3
EPOCHS = 60


def regional_config(geography, seed=5):
    return SimConfig(
        layout=LAYOUT,
        apps=(
            AppConfig(
                app_id=0, name="regional", query_share=1.0,
                geography=geography,
                rings=(
                    RingConfig(
                        ring_id=0, threshold=80.0, target_replicas=3,
                        partitions=100,
                    ),
                ),
            ),
        ),
        epochs=EPOCHS,
        seed=seed,
        base_rate=3000.0,
        policy=EconomicPolicy(hysteresis=2),
    )


def run_variant(geography):
    sim = Simulation(regional_config(geography))
    log = sim.run()
    ledger = OverheadLedger()
    for frame in log:
        ledger.record(frame.replication_bytes, frame.migration_bytes)
    model = LatencyModel()
    hot_geo = hotspot(LAYOUT, HOT_COUNTRY, concentration=0.9)
    rtt = app_response_times(
        model, sim.cloud, sim.catalog,
        sim.catalog.partitions(), hot_geo,
    )
    return {
        "rtt": rtt,
        "overhead_gb": ledger.total_bytes / 2**30,
        "unsat": log.last.unsatisfied_partitions,
        "vnodes": log.last.vnodes_total,
    }


def test_ablation_geographic_placement(benchmark):
    results = {}

    def make_and_run():
        results["geo-aware"] = run_variant(
            hotspot(LAYOUT, HOT_COUNTRY, concentration=0.9)
        )
        results["geo-blind"] = run_variant(uniform_geography())
        sim = Simulation(regional_config(uniform_geography()))
        sim.run()
        return sim

    run_once(benchmark, make_and_run)

    aware, blind = results["geo-aware"], results["geo-blind"]
    print("\n" + "=" * 72)
    print("Ablation — eq. 4 geographic placement for a regional app")
    print("(response times measured against the true 90%-hotspot clients)")
    print("=" * 72)
    print(format_table(
        ["variant", "mean RTT (ms)", "p95 RTT (ms)", "maintenance (GiB)",
         "vnodes", "unsat"],
        [
            [name, r["rtt"]["mean_ms"], r["rtt"]["p95_ms"],
             r["overhead_gb"], r["vnodes"], r["unsat"]]
            for name, r in results.items()
        ],
    ))

    claims = ClaimTable()
    claims.add(
        "geo", "data moves close to the region it is accessed from",
        f"mean client RTT {aware['rtt']['mean_ms']:.1f}ms geo-aware vs "
        f"{blind['rtt']['mean_ms']:.1f}ms geo-blind",
        aware["rtt"]["mean_ms"] < blind["rtt"]["mean_ms"],
    )
    claims.add(
        "geo", "proximity does not sacrifice the SLA",
        f"unsatisfied partitions: {aware['unsat']}",
        aware["unsat"] == 0,
    )
    print(claims.render())
    assert claims.all_hold
