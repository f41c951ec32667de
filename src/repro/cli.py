"""Command-line front end: run scenarios and print their series.

Examples::

    python -m repro.cli info
    python -m repro.cli run --scenario paper --epochs 50
    python -m repro.cli run --scenario slashdot --epochs 200 --points 25
    python -m repro.cli run --scenario paper --fig3-events --epochs 300
    python -m repro.cli run --net-loss 0.2 --net-partition 30:40:2:asym \
        --divergence --epochs 80
    python -m repro.cli compare --epochs 40 --partitions 80
    python -m repro.cli report --scenario paper --epochs 60
    python -m repro.cli profile --scenario slashdot --epochs 60
    python -m repro.cli profile --kernel vectorized --cprofile
    python -m repro.cli scenario list
    python -m repro.cli scenario show slashdot-spike
    python -m repro.cli scenario run chaos-consistency --points 10
    python -m repro.cli scenario run my_spec.json --epochs 20

``run`` executes one scenario and prints the per-epoch series the
paper's figures plot; ``compare`` runs the economic policy against the
static and random baselines on an identical scenario; ``report`` runs
one scenario and prints the per-agent economics the agent ledger
accumulates (wealth distributions, epochs alive, migration counts,
Fig. 2-style per-ring convergence); ``profile`` measures epoch
throughput under the vectorized and scalar epoch kernels (optionally
with a cProfile hot-spot listing); ``scenario`` works with the
declarative spec registry (:mod:`repro.sim.specs`) — ``list`` the
catalog, ``show`` one spec as JSON, or ``run`` a registry name or a
spec JSON file (honoring the spec's failure schedules, data-plane
traffic and audit toggle).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.baselines.random_placement import random_placement_decider
from repro.baselines.static import static_decider
from repro.core.policy import KERNELS
from repro.sim.engine import Simulation, economic_decider
from repro.sim.profiling import compare_kernels, measure_throughput, speedup
from repro.sim.reporting import format_table, series_table, summarize
from repro.sim.scenario import (
    CompiledScenario,
    ScenarioSpec,
    SpecError,
    compile_events,
    compile_spec,
    load_spec,
)
from repro.sim import specs

#: The built-in presets: the paper's three parameter sets, at the
#: ``profile`` subcommand's default horizon (every other subcommand
#: passes ``--epochs``).
PRESETS = {
    "paper": specs.paper_spec,
    "slashdot": specs.slashdot_spec,
    "saturation": specs.saturation_spec,
}
SCENARIOS = tuple(PRESETS)

POLICIES = {
    "economic": economic_decider,
    "static": static_decider,
    "random": random_placement_decider,
}


class CliError(SystemExit):
    """Raised (as exit) for invalid command lines."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Skute (ICDE 2010) reproduction — scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario, print its series")
    run.add_argument("--scenario", choices=SCENARIOS, default="paper")
    run.add_argument("--epochs", type=int, default=100)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--partitions", type=int, default=200,
                     help="partitions per application ring")
    run.add_argument("--points", type=int, default=20,
                     help="epochs sampled in the output table")
    run.add_argument("--policy", choices=sorted(POLICIES),
                     default="economic")
    run.add_argument("--fig3-events", action="store_true",
                     help="add the +20/-20 server schedule of Fig. 3")
    run.add_argument("--net", action="store_true",
                     help="run the gossip control plane (zero-fault "
                          "unless loss/partition flags are given)")
    run.add_argument("--net-loss", type=float, default=0.0,
                     help="per-message loss probability (implies --net)")
    run.add_argument("--net-delay", type=int, default=0,
                     help="max gossip delivery delay in rounds "
                          "(implies --net)")
    run.add_argument("--net-partition", action="append", default=None,
                     metavar="START:HEAL[:DEPTH[:asym]]",
                     help="cut one location subtree off for epochs "
                          "[START, HEAL); DEPTH 1-5 (default 2 = "
                          "country); append ':asym' for a one-way cut; "
                          "repeatable (implies --net)")
    run.add_argument("--net-flap", action="append", default=None,
                     metavar="START:END[:PERIOD]",
                     help="flap one drawn server's links inside "
                          "[START, END): down/up windows of PERIOD "
                          "epochs (one continuous window if PERIOD "
                          "omitted); repeatable (implies --net)")
    run.add_argument("--serve", action="store_true",
                     help="run the live-serving front door: open-loop "
                          "get/put requests over the quorum data plane "
                          "with per-epoch p50/p99/p999 latency tails")
    run.add_argument("--serve-rate", type=int, default=None,
                     metavar="N",
                     help="serving requests per epoch (implies --serve)")
    run.add_argument("--serve-read-fraction", type=float, default=None,
                     metavar="F",
                     help="fraction of serving requests that are reads "
                          "(implies --serve)")
    run.add_argument("--serve-workers", type=int, default=None,
                     metavar="N",
                     help="virtual executors of the front door's event "
                          "loop (implies --serve)")
    run.add_argument("--serve-level", choices=("one", "quorum", "all"),
                     default=None,
                     help="consistency level of serving requests "
                          "(implies --serve)")
    run.add_argument("--divergence", action="store_true",
                     help="also run the oracle (net=None) twin and "
                          "print the divergence report")
    run.add_argument("--consistency-audit", action="store_true",
                     help="run quorum client traffic through the "
                          "believed-membership data plane, settle, and "
                          "print the consistency-audit report "
                          "(implies --net)")

    compare = sub.add_parser(
        "compare", help="economic vs static vs random on one scenario"
    )
    compare.add_argument("--epochs", type=int, default=40)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument("--partitions", type=int, default=100)

    report = sub.add_parser(
        "report",
        help="run one scenario, print its per-agent economics",
    )
    report.add_argument("--scenario", choices=SCENARIOS, default="paper")
    report.add_argument("--epochs", type=int, default=60)
    report.add_argument("--seed", type=int, default=0)
    report.add_argument("--partitions", type=int, default=200,
                        help="partitions per application ring")

    profile = sub.add_parser(
        "profile",
        help="measure epoch throughput of the epoch kernels",
    )
    profile.add_argument("--scenario", default="slashdot",
                         metavar="NAME|PATH",
                         help="built-in preset (paper, slashdot, "
                              "saturation), a scenario-registry name "
                              "(see 'scenario list'), or a spec JSON "
                              "file")
    profile.add_argument("--epochs", type=int, default=None,
                         help="epochs to time (default 60; registry "
                              "specs default to their own horizon)")
    profile.add_argument("--seed", type=int, default=None,
                         help="rng seed (default 0; registry specs "
                              "default to their own seed)")
    profile.add_argument("--partitions", type=int, default=200)
    profile.add_argument("--scale", type=int, default=1,
                         help="grow the scenario N× (partitions and "
                              "cloud together, as the perf harness's "
                              "10x/100x variants do)")
    profile.add_argument("--repeats", type=int, default=2,
                         help="timed runs per kernel (best-of)")
    profile.add_argument("--warmup", type=int, default=0,
                         help="untimed epochs before the measurement")
    profile.add_argument("--kernel", choices=("both",) + KERNELS,
                         default="both")
    profile.add_argument("--cprofile", action="store_true",
                         help="print cProfile hot spots of one "
                              "vectorized run")
    profile.add_argument("--top", type=int, default=20,
                         help="rows of the --cprofile hot-spot table")
    profile.add_argument("--json", dest="json_path", default=None,
                         help="also write the results to this JSON file")

    scenario = sub.add_parser(
        "scenario",
        help="declarative spec registry: list / show / run",
    )
    scen_sub = scenario.add_subparsers(
        dest="scenario_command", required=True
    )
    scen_list = scen_sub.add_parser(
        "list", help="list the named scenarios in the registry"
    )
    scen_list.add_argument("--json", action="store_true",
                           help="emit the catalog as JSON")
    scen_show = scen_sub.add_parser(
        "show", help="print one spec as JSON"
    )
    scen_show.add_argument("spec", metavar="NAME|PATH",
                           help="registry name or spec JSON file")
    scen_run = scen_sub.add_parser(
        "run", help="compile one spec and run it"
    )
    scen_run.add_argument("spec", metavar="NAME|PATH",
                          help="registry name or spec JSON file")
    scen_run.add_argument("--epochs", type=int, default=None,
                          help="override the spec's horizon")
    scen_run.add_argument("--seed", type=int, default=None,
                          help="override the spec's seed")
    scen_run.add_argument("--kernel", choices=KERNELS, default=None,
                          help="override the spec's epoch kernel")
    scen_run.add_argument("--points", type=int, default=20,
                          help="epochs sampled in the output table")
    scen_run.add_argument("--policy", choices=sorted(POLICIES),
                          default="economic")

    sub.add_parser("info", help="print the paper scenario's parameters")
    return parser


def parse_partition(token: str) -> Dict:
    """``START:HEAL[:DEPTH[:asym]]`` → one ``net.partitions`` row."""
    parts = token.split(":")
    asymmetric = False
    if parts and parts[-1] == "asym":
        asymmetric = True
        parts = parts[:-1]
    if not 2 <= len(parts) <= 3:
        raise CliError(
            f"--net-partition wants START:HEAL[:DEPTH[:asym]], "
            f"got {token!r}"
        )
    try:
        # No DEPTH: the key is left out and NetPartition's default holds.
        row = {key: int(part)
               for key, part in zip(("start", "heal", "depth"), parts)}
    except ValueError as exc:
        raise CliError(f"bad --net-partition {token!r}: {exc}")
    row["asymmetric"] = asymmetric
    return row


def parse_flap(token: str) -> List[Dict]:
    """``START:END[:PERIOD]`` → alternating ``net.flaps`` rows.

    With a PERIOD the server's links go down for PERIOD epochs, up for
    PERIOD, down again … inside [START, END) — the repeated-flap
    pattern that manufactures recurring false suspicion.  Without a
    PERIOD the whole interval is one continuous flap window.
    """
    parts = token.split(":")
    if not 2 <= len(parts) <= 3:
        raise CliError(
            f"--net-flap wants START:END[:PERIOD], got {token!r}"
        )
    try:
        start, end = int(parts[0]), int(parts[1])
        period = int(parts[2]) if len(parts) == 3 else 0
        if period < 0:
            raise ValueError(f"PERIOD must be >= 0, got {period}")
        if end <= start:
            raise ValueError(f"END must be > START, got {end} <= {start}")
    except ValueError as exc:
        raise CliError(f"bad --net-flap {token!r}: {exc}")
    if period == 0:
        return [{"start": start, "heal": end}]
    return [
        {"start": at, "heal": min(at + period, end)}
        for at in range(start, end, 2 * period)
    ]


def resolve_spec(token: str, partitions: int = 200) -> ScenarioSpec:
    """A preset, a registry name, or a path to a spec JSON file."""
    if token == "saturation":
        # Fig. 5's disks and insert rate encode a deliberate
        # oversubscription ratio: the preset ignores --partitions.
        return specs.saturation_spec(epochs=60)
    if token in PRESETS:
        return PRESETS[token](epochs=60, partitions=partitions)
    if token in specs.REGISTRY:
        return specs.REGISTRY[token].spec
    if os.path.exists(token):
        try:
            return load_spec(token)
        except SpecError as exc:
            raise CliError(f"bad spec file {token!r}: {exc}")
    raise CliError(
        f"unknown scenario {token!r} (and no such file); "
        f"see 'scenario list'"
    )


def lower_run_flags(args, data: Dict) -> None:
    """``run``'s fault / serving / audit flags, onto a spec's JSON form."""
    flows, failure = data["flows"], data["failure"]
    if args.fig3_events:
        failure["events"] += [
            {"kind": "join", "epoch": 100, "count": 20},
            {"kind": "leave", "epoch": 200, "count": 20},
        ]
    partitions = [parse_partition(t) for t in args.net_partition or ()]
    flaps = [f for t in args.net_flap or () for f in parse_flap(t)]
    if (args.net or args.net_loss > 0.0 or args.net_delay > 0
            or partitions or flaps or args.divergence
            or args.consistency_audit):
        failure["net"] = {
            "loss": args.net_loss,
            "delay_max": args.net_delay,
            "partitions": partitions,
            "flaps": flaps,
        }
    serving = {
        "requests_per_epoch": args.serve_rate,
        "read_fraction": args.serve_read_fraction,
        "workers": args.serve_workers,
        "level": args.serve_level,
    }
    serving = {k: v for k, v in serving.items() if v is not None}
    if args.serve or serving:
        flows["serving"] = serving
    if args.consistency_audit:
        data["operations"]["audit"] = True
        if flows["traffic"] is None:
            flows["traffic"] = {}


def build_scenario(token: str, args) -> CompiledScenario:
    """The one ``args → ScenarioSpec → SimConfig`` path of every subcommand.

    Resolve ``token`` to a spec, lower the subcommand's flags onto the
    spec's JSON form (the same form a spec file has), and compile — so
    a flag combination is validated by exactly the checks a spec file
    gets.
    """
    flags = vars(args)
    scale = flags.get("scale", 1)
    spec = resolve_spec(token, flags.get("partitions", 200) * scale)
    data = spec.to_dict()
    for key in ("epochs", "seed"):
        if flags.get(key) is not None:
            data["operations"][key] = flags[key]
    if flags.get("kernel") in KERNELS:  # profile's "both" is not a kernel
        data["operations"]["kernel"] = flags["kernel"]
    if scale > 1:
        data["structure"]["scale"] = scale
    if args.command == "run":
        lower_run_flags(args, data)
    try:
        return compile_spec(ScenarioSpec.from_dict(data))
    except SpecError as exc:
        raise CliError(f"scenario {spec.name!r} does not compile: {exc}")


def print_robustness(sim, out) -> None:
    summary = sim.robustness.summary()
    stale = summary["staleness"]
    retries = summary["retries"]
    print(
        f"control plane: false-suspicion rate "
        f"{summary['false_suspicion_rate']:.4%}, staleness "
        f"mean {stale['mean']:.2f} / p95 {stale['p95']:.2f} / "
        f"max {stale['max']:.0f} epochs",
        file=out,
    )
    print(
        f"  detections={summary['detections']} "
        f"wasted_transfers={summary['wasted_transfers']} "
        f"retries={retries['pushed']}p/{retries['succeeded']}s/"
        f"{retries['dropped']}d "
        f"price_lag<={summary['max_price_version_lag']}",
        file=out,
    )
    rows = [
        [code, c["sent"], c["delivered"], c["dropped_loss"],
         c["dropped_partition"]]
        for code, c in sorted(summary["messages"].items())
    ]
    print(
        format_table(
            ["message", "sent", "delivered", "drop(loss)", "drop(cut)"],
            rows,
        ),
        file=out,
    )


def print_data_plane(sim, out) -> None:
    summary = sim.robustness.data_plane_summary()
    print(
        f"data plane: {summary['reads']} reads / "
        f"{summary['writes']} writes "
        f"({summary['read_failures'] + summary['write_failures']} "
        f"failed), {summary['replica_timeouts']} replica timeouts, "
        f"{summary['replica_unreachable']} unreachable, "
        f"{summary['suspects_skipped']} suspects skipped",
        file=out,
    )
    print(
        f"  repair ladder: {summary['read_repairs']} read-repairs, "
        f"hints {summary['hints_parked']}p/"
        f"{summary['hints_drained']}d/{summary['hints_expired']}x "
        f"(peak depth {summary['peak_hint_queue_depth']}, final "
        f"{summary['final_hint_queue_depth']}), anti-entropy "
        f"{summary['anti_entropy_keys']} keys / "
        f"{summary['anti_entropy_bytes']:,} bytes",
        file=out,
    )
    rows = [
        [level, row["ok"], row["timeouts"], row["stale"]]
        for level, row in sorted(summary["levels"].items())
    ]
    if rows:
        print(
            format_table(["level", "ok", "timeouts", "stale"], rows),
            file=out,
        )


def print_serving(sim, out) -> None:
    summary = sim.serving_log.summary()
    if not summary.get("epochs"):
        print("serving: no frames collected", file=out)
        return
    print(
        f"serving: {summary['requests']} requests "
        f"({summary['reads']} reads / {summary['writes']} writes, "
        f"{summary['read_failures'] + summary['write_failures']} "
        f"failed) at {summary['mean_requests_per_sec']:.1f} req/s, "
        f"SLA attainment {summary['sla_attainment']:.2%}",
        file=out,
    )
    rows = [
        ["read", summary["read_p50_ms"], summary["read_p99_ms"],
         summary["read_p999_ms"], summary["peak_read_p999_ms"]],
        ["write", summary["write_p50_ms"], summary["write_p99_ms"],
         summary["write_p999_ms"], summary["peak_write_p999_ms"]],
    ]
    rows = [
        [kind] + [f"{v:.1f}" for v in vals]
        for kind, *vals in rows
    ]
    print(
        format_table(
            ["op", "p50 ms", "p99 ms", "p999 ms", "peak p999"], rows
        ),
        file=out,
    )
    tenants = sim.serving.sla.tenant_view()
    tenant_rows = [
        [f"app {app_id} ring {ring_id}", row["requests"],
         row["read_violations"], row["write_violations"],
         f"{row['attainment']:.2%}"]
        for (app_id, ring_id), row in tenants.items()
    ]
    if tenant_rows:
        print(
            format_table(
                ["tenant", "requests", "read viol", "write viol",
                 "attainment"],
                tenant_rows,
            ),
            file=out,
        )


def print_series_report(config, sim, log, points, out,
                        audit=None) -> None:
    """The per-epoch series table plus whatever planes the run had."""
    columns = {
        "queries": log.series("total_queries"),
        "servers": log.series("live_servers"),
        "vnodes": log.series("vnodes_total"),
        "repairs": log.series("repairs"),
        "migr": log.series("migrations"),
        "unsat": log.series("unsatisfied_partitions"),
    }
    if config.inserts is not None:
        columns["ins_fail"] = log.series("insert_failures")
        columns["used%"] = 100.0 * log.storage_fraction_series()
    print(series_table(log, columns, points=points), file=out)
    print("-" * 60, file=out)
    print(summarize(log), file=out)
    if sim.membership_service is not None:
        print("-" * 60, file=out)
        print_robustness(sim, out)
    if sim.data_plane is not None:
        print("-" * 60, file=out)
        print_data_plane(sim, out)
    if sim.serving is not None:
        print("-" * 60, file=out)
        print_serving(sim, out)
    if audit is not None:
        print("-" * 60, file=out)
        print(audit.report.render(), file=out)


def run_scenario(compiled: CompiledScenario, args, header: str,
                 out) -> int:
    """Run a compiled scenario (audited if the spec says so) and report."""
    decider = POLICIES[args.policy]
    audit = None
    if compiled.spec.operations.audit:
        audit = compiled.run_audit(decider_factory=decider)
        sim = audit.sim
        log = sim.metrics
    else:
        sim = compiled.simulation(decider_factory=decider)
        log = sim.run()
    print(header, file=out)
    print_series_report(
        compiled.config, sim, log, args.points, out, audit=audit
    )
    if getattr(args, "divergence", False):
        from repro.analysis.divergence import (
            compare_runs,
            oracle_twin_config,
        )

        twin_cfg = oracle_twin_config(compiled.config)
        twin = Simulation(
            twin_cfg, events=compile_events(compiled.spec, twin_cfg),
            decider_factory=decider,
        )
        # Match the faulty run's horizon (an audit run keeps stepping
        # through its settle phase, so the log can exceed config.epochs).
        twin.run(len(log))
        print("-" * 60, file=out)
        print(compare_runs(twin.metrics, log).render(), file=out)
    return 0


def cmd_run(args, out) -> int:
    return run_scenario(
        build_scenario(args.scenario, args), args,
        f"scenario={args.scenario} policy={args.policy} seed={args.seed}",
        out,
    )


def cmd_compare(args, out) -> int:
    rows = []
    compiled = build_scenario("paper", args)
    for name, factory in sorted(POLICIES.items()):
        log = compiled.simulation(decider_factory=factory).run()
        last = log.last
        rows.append([
            name,
            last.vnodes_total,
            f"{last.vnodes_on_expensive / max(last.vnodes_total, 1):.1%}",
            f"{last.mean_price * last.vnodes_total:.1f}",
            last.unsatisfied_partitions,
            sum(log.action_totals().values()),
        ])
    print(
        format_table(
            ["policy", "vnodes", "on-expensive", "rent/epoch", "unsat",
             "actions"],
            rows,
        ),
        file=out,
    )
    return 0


def cmd_report(args, out) -> int:
    """Per-agent economics: the ledger arrays as human-readable tables."""
    from repro.analysis.economics import summarize_economics

    sim = build_scenario(args.scenario, args).simulation()
    log = sim.run()
    bundle = summarize_economics(sim.registry, log)
    econ = bundle["agents"]
    print(
        f"scenario={args.scenario} seed={args.seed} epochs={len(log)} "
        f"agents={econ.agents}",
        file=out,
    )
    print("\nper-agent economics (ledger arrays):", file=out)
    rows = []
    for name, dist in (
        ("wealth", econ.wealth),
        ("epochs alive", econ.epochs_alive),
        ("moves", econ.moves),
    ):
        rows.append([
            name, dist["mean"], dist["std"], dist["min"],
            dist["median"], dist["max"],
        ])
    print(
        format_table(
            ["metric", "mean", "std", "min", "median", "max"], rows
        ),
        file=out,
    )
    print(
        f"wealth gini: {econ.wealth_gini:.4f}   "
        f"total migrations: {econ.total_moves}",
        file=out,
    )
    print("\nper-ring economy (Fig. 2-style convergence):", file=out)
    convergence = bundle["convergence"]
    ring_rows = []
    for entry in bundle["rings"]:
        settled = convergence.get(entry.ring)
        ring_rows.append([
            f"{entry.ring[0]}/{entry.ring[1]}",
            entry.agents,
            entry.wealth_mean,
            entry.epochs_alive_mean,
            entry.moves_total,
            "-" if settled is None else settled,
        ])
    print(
        format_table(
            ["app/ring", "agents", "wealth/agent", "epochs alive",
             "moves", "settled@"],
            ring_rows,
        ),
        file=out,
    )
    print(
        f"\nvnode spread across servers (gini, Fig. 2): "
        f"{bundle['spread_first']:.4f} (epoch 0) -> "
        f"{bundle['spread_last']:.4f} (final)",
        file=out,
    )
    return 0


def cmd_profile(args, out) -> int:
    if args.scale < 1:
        raise CliError("--scale must be >= 1")
    if args.scale > 1 and args.scenario not in PRESETS:
        raise CliError("--scale supports the built-in presets")
    if args.scale > 1 and args.scenario == "saturation":
        # Growing only the cloud would silently destroy the
        # oversubscription ratio the saturation parameters encode.
        raise CliError("--scale supports the paper and slashdot scenarios")
    # Presets, registry specs and spec files all profile as compiled:
    # the spec carries its own horizon, seed, layout and failure
    # schedule; explicit --epochs/--seed override it.
    compiled = build_scenario(args.scenario, args)
    config = compiled.config
    args.epochs = config.epochs
    args.seed = config.seed
    # What ran, in one unit: the total over every ring (the saturation
    # preset ignores --partitions, and a preset's flag counts per ring).
    args.partitions = sum(
        ring.partitions for app in config.apps for ring in app.rings
    )
    # Schedules are stateful (rng draws, event log): each timed repeat
    # needs a fresh, identically-seeded instance.
    events_factory = compiled.events if compiled.spec.failure.events else None
    if args.kernel == "both":
        results = compare_kernels(
            config, epochs=args.epochs, warmup_epochs=args.warmup,
            repeats=args.repeats, events_factory=events_factory,
        )
    else:
        # build_scenario lowered --kernel onto the spec already.
        results = {
            args.kernel: measure_throughput(
                config, epochs=args.epochs, warmup_epochs=args.warmup,
                repeats=args.repeats, events_factory=events_factory,
            )
        }
    headers = ["kernel", "epochs", "seconds", "epochs/s", "queries/s",
               "hunts asked / floor-proved / scanned",
               "argmaxes asked / ceiling-proved / built "
               "(first + winner + release)",
               "moves asked / source-refused",
               "routes asked / compiled / read plans compiled"]
    # The front door's column only on a run that has a front door.
    width = len(headers) - (config.serving is None)
    rows = [
        [
            kernel,
            r.epochs,
            f"{r.seconds:.3f}",
            f"{r.epochs_per_sec:.2f}",
            f"{r.total_queries / max(r.seconds, 1e-9):,.0f}",
            f"{r.floor_asks} / {r.floor_proofs} "
            f"/ {r.floor_asks - r.floor_proofs}",
            f"{r.ceil_asks} / {r.ceil_proofs} / {r.ceil_builds} "
            f"({r.ceil_builds_first} + {r.ceil_builds_winner} "
            f"+ {r.ceil_builds_release})",
            f"{r.source_first_asks} / {r.source_first_proofs}",
            f"{r.route_compiles + r.route_reuses} / {r.route_compiles} "
            f"/ {r.read_plan_compiles}",
        ][:width]
        for kernel, r in sorted(results.items())
    ]
    print(
        f"scenario={args.scenario} partitions={args.partitions} "
        f"seed={args.seed} scale={args.scale} warmup={args.warmup}",
        file=out,
    )
    print(
        format_table(headers[:width], rows),
        file=out,
    )
    ratio = speedup(results)
    if ratio is not None:
        print(f"speedup (vectorized / scalar): {ratio:.2f}x", file=out)
    if args.json_path:
        payload = {
            "scenario": args.scenario,
            "partitions": args.partitions,
            "scale": args.scale,
            "seed": args.seed,
            "results": {
                kernel: {
                    "epochs": r.epochs,
                    "seconds": r.seconds,
                    "epochs_per_sec": r.epochs_per_sec,
                }
                for kernel, r in results.items()
            },
            "speedup_vectorized_over_scalar": ratio,
        }
        with open(args.json_path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}", file=out)
    if args.cprofile:
        import cProfile
        import pstats

        sim = Simulation(
            dataclasses.replace(config, kernel="vectorized"),
            events=events_factory() if events_factory is not None
            else None,
        )
        if args.warmup:
            sim.run(args.warmup)
        profiler = cProfile.Profile()
        profiler.enable()
        sim.run(args.epochs)
        profiler.disable()
        stats = pstats.Stats(profiler, stream=out)
        stats.sort_stats("tottime").print_stats(args.top)
    return 0


def cmd_scenario_list(args, out) -> int:
    entries = [specs.get(name) for name in specs.names()]
    if args.json:
        catalog = {
            e.name: {
                "summary": e.summary,
                "epochs": e.spec.operations.epochs,
                "pin_epochs": e.pin_epochs,
            }
            for e in entries
        }
        print(json.dumps(catalog, indent=2, sort_keys=True), file=out)
        return 0
    rows = [
        [e.name, e.spec.operations.epochs, e.pin_epochs, e.summary]
        for e in entries
    ]
    print(
        format_table(["scenario", "epochs", "pin", "summary"], rows),
        file=out,
    )
    return 0


def cmd_scenario_show(args, out) -> int:
    spec = resolve_spec(args.spec)
    print(spec.to_json(), file=out)
    return 0


def cmd_scenario_run(args, out) -> int:
    compiled = build_scenario(args.spec, args)
    spec = compiled.spec
    ops = spec.operations
    header = (
        f"scenario={spec.name} policy={args.policy} seed={ops.seed} "
        f"epochs={ops.epochs} kernel={ops.kernel}"
    )
    if spec.summary:
        header += "\n" + spec.summary
    return run_scenario(compiled, args, header, out)


def cmd_scenario(args, out) -> int:
    if args.scenario_command == "list":
        return cmd_scenario_list(args, out)
    if args.scenario_command == "show":
        return cmd_scenario_show(args, out)
    return cmd_scenario_run(args, out)


def cmd_info(args, out) -> int:
    cfg = build_scenario("paper", args).config
    rows = [
        ["servers", cfg.layout.total_servers],
        ["countries", cfg.layout.countries],
        ["applications", len(cfg.apps)],
        ["partitions/app", cfg.apps[0].rings[0].partitions],
        ["partition capacity (MB)",
         cfg.apps[0].rings[0].partition_capacity >> 20],
        ["replication budget (MB/epoch)", cfg.replication_budget >> 20],
        ["migration budget (MB/epoch)", cfg.migration_budget >> 20],
        ["base query rate (/epoch)", cfg.base_rate],
        ["cheap rent ($/month)", cfg.cheap_rent],
        ["expensive rent ($/month)", cfg.expensive_rent],
        ["expensive fraction", cfg.expensive_fraction],
    ]
    print("paper scenario (§III-A):", file=out)
    print(format_table(["parameter", "value"], rows), file=out)
    for app in cfg.apps:
        ring = app.rings[0]
        print(
            f"  {app.name}: share {app.query_share:.3f}, ring "
            f"{ring.ring_id}, threshold {ring.threshold:.0f} "
            f"({ring.target_replicas} replicas)",
            file=out,
        )
    return 0


def main(argv: Optional[Sequence[str]] = None,
         out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "compare":
        return cmd_compare(args, out)
    if args.command == "report":
        return cmd_report(args, out)
    if args.command == "profile":
        return cmd_profile(args, out)
    if args.command == "scenario":
        return cmd_scenario(args, out)
    return cmd_info(args, out)


if __name__ == "__main__":
    raise SystemExit(main())
