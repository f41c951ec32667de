#!/usr/bin/env python
"""Per-data-item availability tiers within one application.

Skute offers "differentiated availability guarantees per data item"
(§I): one application can run several virtual rings at different
availability levels and place each item on the ring matching its
value.  This example models a shop whose order records are critical
(4-replica gold tier) while session caches are expendable (2-replica
standard tier), and prices the difference.

The two-tier tenant is exactly what a :class:`TenantSpec` with two
:class:`TierSpec` entries says (thresholds default to the paper's per
replica count); ``--spec`` dumps ``SPEC`` as JSON for
``python -m repro.cli scenario run``.

Run:            python examples/tiered_application.py
Dump the spec:  python examples/tiered_application.py --spec shop.json
"""

import argparse

from repro import KVStore, availability
from repro.sim.scenario import (
    ConstraintsSpec,
    FlowsSpec,
    OperationsSpec,
    ScenarioSpec,
    TenantSpec,
    TierSpec,
    compile_spec,
)

GOLD, STANDARD = 0, 1

SPEC = ScenarioSpec(
    name="tiered-application",
    summary="one shop tenant with 4-replica gold and 2-replica "
            "standard tiers",
    flows=FlowsSpec(base_rate=2000.0),
    constraints=ConstraintsSpec(
        tenants=(
            TenantSpec(
                name="shop", share=1.0,
                tiers=(
                    TierSpec(replicas=4, partitions=40, ring_id=GOLD),
                    TierSpec(replicas=2, partitions=40,
                             ring_id=STANDARD),
                ),
            ),
        ),
    ),
    operations=OperationsSpec(epochs=40),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Gold/standard availability tiers in one application"
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
    log = sim.run()

    gold_ring = sim.rings.ring(0, GOLD)
    std_ring = sim.rings.ring(0, STANDARD)
    gold_vnodes = log.last.vnodes_per_ring[(0, GOLD)]
    std_vnodes = log.last.vnodes_per_ring[(0, STANDARD)]
    print("one application, two availability tiers on one cloud:")
    print(f"  gold tier     : {len(gold_ring)} partitions, "
          f"{gold_vnodes} replicas "
          f"({gold_vnodes / len(gold_ring):.2f} per partition)")
    print(f"  standard tier : {len(std_ring)} partitions, "
          f"{std_vnodes} replicas "
          f"({std_vnodes / len(std_ring):.2f} per partition)")
    ratio = (gold_vnodes / len(gold_ring)) / (std_vnodes / len(std_ring))
    print(f"  gold costs {ratio:.1f}x the storage of standard\n")

    # The data plane picks the tier per item.
    store = KVStore(sim.cloud, sim.rings, sim.catalog)
    store.put(0, GOLD, "order:1001", b'{"total": 99.90}')
    store.put(0, STANDARD, "session:abc", b'{"cart": []}')

    for ring_id, key in ((GOLD, "order:1001"), (STANDARD, "session:abc")):
        ring = sim.rings.ring(0, ring_id)
        partition = ring.lookup(key)
        replicas = sim.catalog.servers_of(partition.pid)
        avail = availability(sim.cloud, replicas)
        tier = "gold" if ring_id == GOLD else "standard"
        print(f"{key!r} [{tier}] -> {len(replicas)} replicas, "
              f"availability {avail:.0f} "
              f"(threshold {ring.level.threshold:.0f})")
        continents = sorted(
            {sim.cloud.server(s).location.continent for s in replicas}
        )
        print(f"   spread over continents {continents}")


if __name__ == "__main__":
    main()
