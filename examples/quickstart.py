#!/usr/bin/env python
"""Quickstart: a Skute cloud as a key-value store with an SLA.

Builds a small geo-distributed cloud, creates one application with a
2-replica availability SLA, lets the virtual economy place and protect
the replicas, and then uses the data-plane KV API (put / get / delete)
against the resulting placement.

The scenario is a declarative spec (:mod:`repro.sim.scenario`) — one
app, one ring, an SLA of 2 dispersed replicas (threshold 20 forces at
least cross-datacenter pairs); ``--spec`` dumps it as JSON for
``python -m repro.cli scenario run``.

Run:            python examples/quickstart.py
Dump the spec:  python examples/quickstart.py --spec quickstart.json
"""

import argparse

from repro import (
    CloudLayout,
    Level,
    QuorumKVStore,
    Router,
    availability,
)
from repro.cluster import Location
from repro.sim.scenario import (
    ConstraintsSpec,
    FlowsSpec,
    OperationsSpec,
    ScenarioSpec,
    ServerClassesSpec,
    StructureSpec,
    TenantSpec,
    TierSpec,
    compile_spec,
)

SPEC = ScenarioSpec(
    name="quickstart",
    summary="one app, one 2-replica SLA ring on a 96-server toy cloud",
    structure=StructureSpec(
        layout=CloudLayout(
            countries=4, countries_per_continent=2,
            datacenters_per_country=2, rooms_per_datacenter=1,
            racks_per_room=2, servers_per_rack=3,
        ),
        classes=ServerClassesSpec(
            storage=4 * 1024 * 1024, query_capacity=500
        ),
    ),
    flows=FlowsSpec(base_rate=300.0),
    constraints=ConstraintsSpec(
        tenants=(
            TenantSpec(
                name="quickstart-app", share=1.0,
                tiers=(
                    TierSpec(
                        replicas=2, threshold=20.0, partitions=16,
                        partition_capacity=64 * 1024, initial_size=0,
                        ring_id=0,
                    ),
                ),
            ),
        ),
        replication_budget=1024 * 1024,
        migration_budget=512 * 1024,
    ),
    operations=OperationsSpec(epochs=15),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Skute quickstart: economy-placed KV store"
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
    # -- 1. Describe the scenario: compile the spec.
    compiled = compile_spec(SPEC)
    layout = compiled.config.layout

    # -- 2. Let the economy converge: agents replicate until every
    #       partition meets the availability threshold.
    sim = compiled.simulation()
    log = sim.run()
    last = log.last
    print(f"cloud: {last.live_servers} servers over "
          f"{layout.countries} countries")
    print(f"after {len(log)} epochs: {last.vnodes_total} replicas for "
          f"{len(sim.rings.layout().partitions)} partitions, "
          f"{last.unsatisfied_partitions} below SLA")

    # -- 3. Use the data plane against the converged placement.
    store = QuorumKVStore(sim.cloud, sim.rings, sim.catalog)
    store.put(0, 0, "user:42", b'{"name": "Ada"}')
    store.put(0, 0, "user:43", b'{"name": "Grace"}')

    # A read at ONE is served by the replica nearest the client.
    client = Location(1, 0, 0, 0, 0, 0)  # a client in continent 1
    result = store.get(0, 0, "user:42", level=Level.ONE, client=client)
    router = Router(sim.cloud, sim.rings, sim.catalog)
    partition = router.partition_of(0, 0, "user:42")
    route = router.route_partition(partition.pid, client=client)
    print(f"get(user:42) -> {result.value!r} served by server "
          f"{route.server_id} at geographic distance {route.distance}")

    # -- 4. Inspect the SLA the economy maintains.
    replicas = sim.catalog.servers_of(partition.pid)
    avail = availability(sim.cloud, replicas)
    print(f"partition {partition.pid}: replicas on servers {replicas}, "
          f"availability {avail:.0f} (threshold "
          f"{sim.rings.ring(0, 0).level.threshold:.0f})")
    for sid in replicas:
        print(f"  server {sid}: {sim.cloud.server(sid).location}")

    store.delete(0, 0, "user:43")
    print("deleted user:43; found ->",
          store.get(0, 0, "user:43").found)


if __name__ == "__main__":
    main()
