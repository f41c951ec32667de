#!/usr/bin/env python
"""Surviving correlated failures: a whole datacenter goes dark.

The paper's introduction motivates geographic diversity with exactly
this scenario: "in case of a PDU failure ~500-1000 machines suddenly
disappear, or in case of a rack failure ~40-80 machines instantly go
down".  This example fails an entire datacenter mid-run and shows

* that no partition loses all replicas (diversity paid off),
* how the repair burst restores every SLA within a few epochs,
* where the replacement replicas land,

then replays the exact same outage under a *lossy gossip control
plane*: detection is no longer instant — the outage has to be noticed
by the failure detector through dropped heartbeats — and the report
shows how many epochs that lag cost and what it did to availability
(the oracle-vs-faulty twin pattern from ``repro.analysis.divergence``).
The faulty twin also carries quorum client traffic through the
stale-view data plane, so next to the detection lag you see what the
lag *served*: replica timeouts, diverted (hinted) writes, and the
consistency-audit verdict over the whole history.

The faulty twin is the ``datacenter-outage`` entry of the declarative
spec registry (:mod:`repro.sim.specs`) — outage event, lossy net and
quorum traffic all in the spec; the oracle twin is the same compiled
config with the net and data plane stripped.

Run:            python examples/datacenter_outage.py
Dump the spec:  python examples/datacenter_outage.py --spec outage.json
                python -m repro.cli scenario run outage.json
"""

import argparse
import dataclasses

from repro import Simulation, availability
from repro.analysis.divergence import compare_runs
from repro.analysis.series import first_nonzero_epoch
from repro.sim.scenario import compile_events, compile_spec
from repro.sim import specs

SPEC = specs.get("datacenter-outage").spec
EPOCHS = SPEC.operations.epochs
OUTAGE_EPOCH = SPEC.failure.events[0].epoch

def build_sim(config) -> Simulation:
    return Simulation(config, events=compile_events(SPEC, config))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Datacenter outage (registry spec: datacenter-outage)"
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
    faulty_config = compile_spec(SPEC).config
    config = dataclasses.replace(
        faulty_config, net=None, data_plane=None
    )
    sim = build_sim(config)

    for epoch in range(EPOCHS):
        frame = sim.step()
        if epoch == OUTAGE_EPOCH - 1:
            before = frame
        if epoch == OUTAGE_EPOCH:
            at_outage = frame
    log = sim.metrics
    after = log.last

    lost_servers = sim.events.log.all_removed
    print(f"datacenter outage at epoch {OUTAGE_EPOCH}: "
          f"{len(lost_servers)} servers vanished "
          f"({before.live_servers} -> {at_outage.live_servers})")

    repairs = log.series("repairs")[OUTAGE_EPOCH:OUTAGE_EPOCH + 10]
    print(f"repair burst (10 epochs after outage): "
          f"{int(repairs.sum())} re-replications")

    print(f"partitions lost outright: {after.lost_partitions} "
          f"(every partition had replicas outside the datacenter)")
    print(f"partitions below SLA at the end: "
          f"{after.unsatisfied_partitions}")

    # Verify the diversity claim explicitly.
    worst_slack = float("inf")
    for ring in sim.rings:
        for p in ring:
            avail = availability(
                sim.cloud, sim.catalog.servers_of(p.pid)
            )
            worst_slack = min(worst_slack, avail - ring.level.threshold)
    print(f"worst availability slack over all partitions: "
          f"{worst_slack:+.0f}")

    # Where did the replacements go?  Count replicas per country.
    per_country = {}
    for pid in sim.catalog.partitions():
        for sid in sim.catalog.servers_of(pid):
            loc = sim.cloud.server(sid).location
            key = (loc.continent, loc.country)
            per_country[key] = per_country.get(key, 0) + 1
    print("replica distribution per (continent, country):")
    for key in sorted(per_country):
        print(f"  {key}: {per_country[key]}")

    # -- same outage, lossy control plane ------------------------------
    faulty = build_sim(faulty_config)
    faulty.run()
    rlog = faulty.robustness

    detections = rlog.series("detections")
    lag = first_nonzero_epoch(detections[OUTAGE_EPOCH:])
    detected_at = None if lag is None else OUTAGE_EPOCH + lag
    print(f"\nsame outage under a lossy gossip net "
          f"(loss={faulty_config.net.loss:.0%}):")
    print(f"  outage at epoch {OUTAGE_EPOCH}, gossip detected it at "
          f"epoch {detected_at} "
          f"({int(detections.sum())} detections total)")
    totals = rlog.message_totals()["HEARTBEAT"]
    print(f"  heartbeats: {totals['sent']} sent, "
          f"{totals['dropped_loss']} lost in flight")
    print(f"  false-suspicion rate: "
          f"{rlog.false_suspicion_rate():.4%}")

    # What the detection lag looked like to clients: the quorum data
    # plane routed every op through the *believed* view the whole time.
    dp = rlog.data_plane_summary()
    audit = faulty.data_plane.consistency_report()
    print(f"  data plane while flying blind: "
          f"{dp['reads']} reads / {dp['writes']} writes, "
          f"{dp['replica_timeouts']} replica timeouts (ghosts), "
          f"{dp['suspects_skipped']} healthy replicas skipped on "
          f"suspicion")
    print(f"  hinted handoff: {dp['hints_parked']} parked, "
          f"{dp['hints_drained']} drained, "
          f"{dp['read_repairs']} read-repairs")
    print(f"  consistency audit: "
          f"{'GREEN' if audit.green else 'RED'} — "
          f"{audit.lost_writes} lost writes, "
          f"{audit.stale_reads} strong stale reads, "
          f"{audit.dirty_ghost_reads} dirty ghost reads")

    report = compare_runs(log, faulty.metrics)
    print(f"  availability delta vs instant detection (oracle-faulty): "
          f"mean {report.availability_gap:+.2f}, peak "
          f"{report.peak_availability_gap:+.2f} at epoch "
          f"{report.peak_availability_epoch}")
    deltas = report.deltas()
    print(f"  extra maintenance while flying blind: "
          f"repairs {deltas['repairs']:+.0f}, replication bytes "
          f"{deltas['replication_bytes']:+,.0f}")


if __name__ == "__main__":
    main()
