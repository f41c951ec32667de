"""Fig. 2 — Replication process at startup: virtual nodes per server.

Paper claim (§III-B): starting from an arbitrary assignment, virtual
nodes replicate and migrate until "the system soon reaches equilibrium,
where fewer virtual nodes reside at expensive servers".

This bench runs the §III-A base scenario (200 servers, 3 applications,
200 partitions each, Poisson(3000) queries) for 100 epochs and prints
the observables Fig. 2 plots: the evolution of the total virtual-node
population and the final per-server distribution, split by server cost
class.
"""

import numpy as np

from conftest import print_figure, run_once
from repro.analysis.series import convergence_epoch
from repro.analysis.stats import describe
from repro.analysis.tables import ClaimTable
from repro.sim.reporting import format_table, histogram_table
from repro.sim.scenario import compile_spec
from repro.sim.specs import paper_spec

EPOCHS = 100


def test_fig2_startup_convergence(benchmark):
    def make_and_run():
        sim = compile_spec(paper_spec(epochs=EPOCHS)).simulation()
        sim.run()
        return sim

    sim = run_once(benchmark, make_and_run)
    log = sim.metrics
    totals = log.series("vnodes_total")
    cheap = log.series("vnodes_on_cheap")
    expensive = log.series("vnodes_on_expensive")

    settle = convergence_epoch(totals, tolerance=0.03, window=30)
    last = log.last
    exp_servers = [
        s.server_id for s in sim.cloud if s.monthly_rent > 100.0
    ]
    cheap_servers = [
        s.server_id for s in sim.cloud if s.monthly_rent <= 100.0
    ]
    per_exp = np.mean([last.vnodes_per_server[s] for s in exp_servers])
    per_cheap = np.mean([last.vnodes_per_server[s] for s in cheap_servers])

    claims = ClaimTable()
    claims.add(
        "Fig.2", "system soon reaches equilibrium",
        f"vnode total within 3% band from epoch {settle}",
        settle is not None and settle <= EPOCHS // 2,
    )
    claims.add(
        "Fig.2", "fewer virtual nodes reside at expensive servers",
        f"mean vnodes/server: expensive {per_exp:.2f} vs cheap "
        f"{per_cheap:.2f}",
        per_exp < per_cheap,
    )
    claims.add(
        "Fig.2", "every partition protected at equilibrium",
        f"{last.unsatisfied_partitions} unsatisfied partitions",
        last.unsatisfied_partitions == 0,
    )

    print_figure(
        "Fig. 2 — replication process at startup (vnodes per server)",
        log,
        {
            "vnodes_total": totals,
            "on_cheap(140)": cheap,
            "on_expensive(60)": expensive,
            "repairs": log.series("repairs"),
            "migrations": log.series("migrations"),
        },
        claims=claims,
    )
    print("final vnodes-per-server distribution:")
    print(histogram_table(last.vnodes_per_server, bins=8))
    dist = describe(list(last.vnodes_per_server.values()))
    print(
        format_table(
            ["stat", "value"],
            [[k, v] for k, v in dist.items()],
        )
    )
    assert claims.all_hold
