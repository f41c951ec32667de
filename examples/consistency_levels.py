#!/usr/bin/env python
"""Consistency levels on the quorum data plane.

The economy charges for write propagation between replicas (§II-C);
this example shows the semantics being paid for.  A 3-replica partition
takes writes at different consistency levels while one replica is down,
demonstrating the staleness window of ONE, the read-your-writes
guarantee of QUORUM (R + W > N) and read repair healing the divergence.

The placement run is a declarative spec (``SPEC`` below, a short paper
cloud); ``--spec`` dumps it as JSON for
``python -m repro.cli scenario run``.

Run:            python examples/consistency_levels.py
Dump the spec:  python examples/consistency_levels.py --spec levels.json
"""

import argparse

from repro.cluster import Location
from repro.sim.scenario import (
    ConstraintsSpec,
    OperationsSpec,
    ScenarioSpec,
    compile_spec,
)
from repro.store.quorum import Level, QuorumError, QuorumKVStore

#: The convergence run: the paper cloud, 30 partitions, 20 epochs.
SPEC = ScenarioSpec(
    name="consistency-levels",
    summary="short paper-cloud run used to place the 3-replica ring",
    constraints=ConstraintsSpec(partitions=30),
    operations=OperationsSpec(epochs=20),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Quorum consistency levels on a converged placement"
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
    # Converge the paper cloud so ring 1 (3-replica SLA) is placed.
    sim = compile_spec(SPEC).simulation()
    sim.run()
    store = QuorumKVStore(sim.cloud, sim.rings, sim.catalog)

    app, ring = 1, 1  # the 3-replica application
    key = "profile:1"

    w = store.put(app, ring, key, b"v1", level=Level.ALL)
    replicas = list(w.acked)
    print(f"{key!r} written at ALL to replicas {replicas} "
          f"(version {w.version})")

    # One replica goes dark; a QUORUM write still succeeds.
    victim = replicas[-1]
    sim.cloud.server(victim).fail()
    w2 = store.put(app, ring, key, b"v2", level=Level.QUORUM)
    print(f"server {victim} down -> QUORUM write acked by {w2.acked}, "
          f"missed {w2.missed}")

    try:
        store.put(app, ring, key, b"v3", level=Level.ALL)
    except QuorumError as exc:
        print(f"ALL write correctly refused: {exc}")

    # The dead replica comes back stale.
    sim.cloud.server(victim).restore()
    print(f"divergence across replicas: "
          f"{store.divergence(app, ring, key)} version(s)")

    # A client right next to the stale replica, reading at ONE, can see
    # the old value...
    stale_loc = sim.cloud.server(victim).location
    client = Location(*stale_loc.parts())
    r_one = store.get(app, ring, key, level=Level.ONE, client=client)
    print(f"ONE read near stale replica  -> {r_one.value!r} "
          f"(version {r_one.version})")

    # ...while a QUORUM read must overlap the write quorum and returns
    # the fresh value, repairing the stale copy on the way.
    r_q = store.get(app, ring, key, level=Level.QUORUM, client=client)
    print(f"QUORUM read                  -> {r_q.value!r} "
          f"(version {r_q.version}, repaired {r_q.stale_replicas})")
    print(f"divergence after read repair : "
          f"{store.divergence(app, ring, key)}")


if __name__ == "__main__":
    main()
