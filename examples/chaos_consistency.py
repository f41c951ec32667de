#!/usr/bin/env python
"""Chaos-testing the stale-view data plane: does quorum hold up?

Skute's control plane is gossip: every router acts on a *believed*
membership view that lags reality.  This example measures what that
lag costs the data plane.  It draws randomized-but-reproducible
network fault schedules (loss, partitions, link flaps — storage is
never destroyed), pushes quorum client traffic through the believed
view while the faults run — the data plane is a second instance of
the serving front door, folding every request into the
linearizability-lite consistency audit as it completes — and lets the
system quiesce so hinted handoff drains before reading the verdict.

The invariant being demonstrated: under network-only faults the audit
is GREEN — **zero committed QUORUM writes lost** — because every ack
either lives on a replica or is parked as a TTL-bounded hint that
counts as a surviving copy.  Strong stale reads *can* appear while
hints are in flight; the audit reports them as the measured
consistency cost of sloppy quorum.  (Crashes are a different fault
model: there an acked write is lost only when every ack-time holder
crashes before a copy reaches a survivor — docs/ARCHITECTURE.md.)

The base scenario is the ``chaos-consistency`` entry of the
declarative spec registry (:mod:`repro.sim.specs`); each sweep seed
replaces only the chaos draw in the failure tier.

Run:            python examples/chaos_consistency.py
Dump the spec:  python examples/chaos_consistency.py --spec chaos.json
                python -m repro.cli scenario run chaos.json
"""

import argparse
import dataclasses

from repro.sim.scenario import compile_spec
from repro.sim import specs

BASE_SPEC = specs.get("chaos-consistency").spec
EPOCHS = BASE_SPEC.operations.epochs
SEEDS = (3, 11, 42)


def spec_for(seed: int):
    """The base spec with only the chaos draw swapped out."""
    failure = dataclasses.replace(
        BASE_SPEC.failure,
        chaos=dataclasses.replace(BASE_SPEC.failure.chaos, seed=seed),
    )
    return dataclasses.replace(BASE_SPEC, failure=failure)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Chaos audit sweep (registry spec: chaos-consistency)"
    )
    parser.add_argument(
        "--spec", metavar="PATH", default=None,
        help="write the scenario spec JSON to PATH and exit "
             "('-' for stdout)",
    )
    return parser.parse_args(argv)


def dump_spec(path: str) -> None:
    if path == "-":
        print(BASE_SPEC.to_json())
        return
    with open(path, "w") as fh:
        fh.write(BASE_SPEC.to_json() + "\n")
    print(f"wrote {path}")


def main(argv=None) -> None:
    args = parse_args(argv)
    if args.spec:
        dump_spec(args.spec)
        return
    for seed in SEEDS:
        compiled = compile_spec(spec_for(seed))
        net = compiled.config.net
        print(f"schedule #{seed}: loss={net.loss:.1%}, "
              f"{len(net.partitions)} partition window(s), "
              f"{len(net.flaps)} flap window(s)")
        for cut in net.partitions:
            kind = "asymmetric" if cut.asymmetric else "symmetric"
            print(f"  partition depth {cut.depth} ({kind}) over epochs "
                  f"[{cut.start}, {cut.heal})")
        for flap in net.flaps:
            print(f"  link flap over epochs "
                  f"[{flap.start}, {flap.heal})")

        audit = compiled.run_audit()

        summary = audit.sim.robustness.data_plane_summary()
        print(f"  served {summary['reads']} reads / "
              f"{summary['writes']} writes; "
              f"{summary['replica_timeouts']} ghost timeouts, "
              f"{summary['replica_unreachable']} unreachable, "
              f"{summary['suspects_skipped']} suspects skipped")
        print(f"  repair ladder: hints {summary['hints_parked']}p/"
              f"{summary['hints_drained']}d/{summary['hints_expired']}x "
              f"(peak depth {summary['peak_hint_queue_depth']}), "
              f"{summary['read_repairs']} read-repairs, "
              f"anti-entropy {summary['anti_entropy_keys']} keys")
        print("  " + audit.report.render().replace("\n", "\n  "))
        print()


if __name__ == "__main__":
    main()
