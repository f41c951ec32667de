#!/usr/bin/env python
"""Multi-tenant differentiated SLAs: the paper's three-application cloud.

Reproduces the §III-A setting in miniature: three applications share
one 200-server cloud through three virtual rings demanding 2, 3 and 4
well-dispersed replicas.  Shows that each ring converges to its own
replication degree, that expensive servers end up underused, and what
each tenant's protection level costs.

The scenario is the ``multi-tenant-sla`` entry of the declarative spec
registry (:mod:`repro.sim.specs`); this script compiles and runs it.

Run:            python examples/multi_tenant_sla.py
Dump the spec:  python examples/multi_tenant_sla.py --spec sla.json
                python -m repro.cli scenario run sla.json
"""

import argparse

import numpy as np

from repro import availability
from repro.analysis.stats import describe
from repro.sim.reporting import format_table
from repro.sim.scenario import compile_spec
from repro.sim import specs

SPEC = specs.get("multi-tenant-sla").spec


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Three-tenant SLAs (registry spec: multi-tenant-sla)"
    )
    parser.add_argument(
        "--spec", metavar="PATH", default=None,
        help="write the scenario spec JSON to PATH and exit "
             "('-' for stdout)",
    )
    return parser.parse_args(argv)


def dump_spec(path: str) -> None:
    if path == "-":
        print(SPEC.to_json())
        return
    with open(path, "w") as fh:
        fh.write(SPEC.to_json() + "\n")
    print(f"wrote {path}")


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.spec:
        dump_spec(args.spec)
        return
    compiled = compile_spec(SPEC)
    config = compiled.config
    sim = compiled.simulation()
    log = sim.run()
    last = log.last

    print(f"{last.live_servers}-server cloud, "
          f"{last.vnodes_total} virtual nodes after {len(log)} epochs\n")

    rows = []
    for ring in sim.rings:
        spec = config.app(ring.app_id)
        partitions = ring.partitions()
        replica_counts = [
            sim.catalog.replica_count(p.pid) for p in partitions
        ]
        avails = [
            availability(sim.cloud, sim.catalog.servers_of(p.pid))
            for p in partitions
        ]
        rows.append([
            spec.name,
            f"{ring.level.target_replicas}",
            f"{ring.level.threshold:.0f}",
            f"{np.mean(replica_counts):.2f}",
            f"{min(avails):.0f}",
            f"{sum(1 for a in avails if a < ring.level.threshold)}",
        ])
    print(format_table(
        ["tenant", "SLA replicas", "threshold", "mean replicas",
         "min avail", "violations"],
        rows,
    ))

    print("\nwho pays for what (vnodes on expensive 125$ servers):")
    print(f"  expensive servers host {last.vnodes_on_expensive} of "
          f"{last.vnodes_total} vnodes "
          f"({last.vnodes_on_expensive / last.vnodes_total:.1%})")

    loads = describe(list(last.vnodes_per_server.values()))
    print("\nvnode placement balance across servers:")
    print(f"  mean {loads['mean']:.1f}, min {loads['min']:.0f}, "
          f"max {loads['max']:.0f}, Jain {loads['jain']:.3f}, "
          f"Gini {loads['gini']:.3f}")


if __name__ == "__main__":
    main()
