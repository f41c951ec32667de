#!/usr/bin/env python
"""Riding a Slashdot surge: elastic replication under a 61x load spike.

Reproduces the §III-D experiment in miniature: the query rate climbs
from its baseline to 61x over 25 epochs, then slowly decays.  Watch the
economy replicate popular partitions while the spike builds (balancing
per-server load), then suicide the surplus replicas as traffic fades —
no operator, no global coordinator.

The scenario itself is the ``slashdot-surge`` entry of the declarative
spec registry (:mod:`repro.sim.specs`); this script compiles and runs it.

Run:            python examples/slashdot_surge.py
Dump the spec:  python examples/slashdot_surge.py --spec surge.json
                python -m repro.cli scenario run surge.json
"""

import argparse

from repro.analysis.stats import jain_index
from repro.sim.scenario import compile_spec
from repro.sim import specs

SPEC = specs.get("slashdot-surge").spec
SURGE = SPEC.flows.surges[0]
EPOCHS = SPEC.operations.epochs
SPIKE_EPOCH = SURGE.spike_epoch


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Slashdot surge (registry spec: slashdot-surge)"
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
    sim = compile_spec(SPEC).simulation()

    print(f"{'epoch':>6} {'rate':>8} {'vnodes':>7} {'jain':>6} "
          f"{'repl':>5} {'suic':>5}")
    for epoch in range(EPOCHS):
        frame = sim.step()
        if epoch % 10 == 0:
            loads = [s.queries_this_epoch for s in sim.cloud]
            jain = jain_index(loads) if sum(loads) else float("nan")
            print(f"{epoch:>6} {frame.total_queries:>8} "
                  f"{frame.vnodes_total:>7} {jain:>6.2f} "
                  f"{frame.economic_replications:>5} "
                  f"{frame.suicides:>5}")

    log = sim.metrics
    vnodes = log.series("vnodes_total")
    print("\nsummary:")
    print(f"  replicas before spike : {int(vnodes[SPIKE_EPOCH - 1])}")
    print(f"  replicas at peak      : {int(vnodes.max())}")
    print(f"  replicas at the end   : {int(vnodes[-1])}")
    actions = log.action_totals()
    print(f"  economic replications : {actions['economic_replications']}")
    print(f"  suicides (contraction): {actions['suicides']}")
    print(f"  SLA violations at end : {log.last.unsatisfied_partitions}")


if __name__ == "__main__":
    main()
