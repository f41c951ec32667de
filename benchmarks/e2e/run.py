"""The repo's end-to-end benchmark: one command, one workload, one seed.

    python3 benchmarks/e2e/run.py --workload econ-spike --seed 0 \
        --seconds 30 --trace 0

replays the workload's seeded window ``REPLAYS`` times, prints every
metric by name with its unit, checks the run's outputs, and prints the
result as one JSON object on the last line.  ``--trace 0`` reports the
end-to-end metrics from the untraced replays; ``--trace 1`` runs traced
replays too and reports the per-layer metrics.  The metric names, units
and regression bounds live in ``BENCHMARK.json`` at the repo root;
README.md beside this file explains them.

    python3 benchmarks/e2e/run.py --check-noise 2 5

runs two back-to-back sets of five runs per workload and says whether
the benchmark resolves its own bounds on this machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = ROOT / "BENCHMARK.json"

#: Replays of the window per run: the envelope is the per-epoch minimum
#: over these.  The windows are sized so five fit ``run_seconds`` on a
#: quiet 2-core box; a run that overruns ``--seconds`` is flagged, never
#: cut short, because a minimum over fewer replays reads higher in
#: exactly the runs the host already inflated.
REPLAYS = 5
#: A ``--trace 1`` run: this many untraced replays (the envelope that
#: ``trace_overhead_share`` is measured against), then this many traced
#: ones, of which the quietest supplies the per-layer numbers.
TRACE_BASELINE_REPLAYS = 2
TRACED_REPLAYS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="overrides the spec's operations.seed")
    parser.add_argument("--pin-seed", type=int, default=None,
                        help="overrides --seed; BENCHMARK.json's command "
                             "sets it, so the runs it is appended to "
                             "replay one input (README, 'Seeds')")
    parser.add_argument("--seconds", type=float, default=None,
                        help="what the timed replays should fit in; a run "
                             "that takes longer is flagged (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--epochs", type=int, default=None,
                        help="truncate the timed window (skips the "
                             "workload-shape guards)")
    parser.add_argument("--replays", type=int, default=None,
                        help="untraced replays; for the smoke test only")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result-*.json / trace-*.json")
    parser.add_argument("--check-noise", nargs=2, type=int,
                        metavar=("SETS", "RUNS"))
    args = parser.parse_args(argv)
    if args.check_noise is None and args.workload is None:
        parser.error("--workload is required")
    args.seed_requested = args.seed
    if args.pin_seed is not None:
        args.seed = args.pin_seed
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    manifest = json.loads(MANIFEST.read_text())
    if args.check_noise is not None:
        from bench_noise import check_noise

        sets, runs = args.check_noise
        names = [args.workload] if args.workload else [
            w["name"] for w in manifest["workloads"]
        ]
        return check_noise(manifest, names, sets, runs, args.seed, args.out)
    return run_workload(args, manifest)


def run_workload(args: argparse.Namespace, manifest: dict) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    from repro.sim.scenario import load_spec

    import bench_replay as br
    from bench_trace import Tracer
    from bench_workloads import WORKLOADS
    import_ms = (time.perf_counter() - started) * 1e3

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(have {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    spec = load_spec(workload.spec_path)
    window = spec.operations.epochs - workload.warmup
    epochs = window if args.epochs is None else args.epochs
    if not 1 <= epochs <= window:
        print(f"error: --epochs must be in [1, {window}]", file=sys.stderr)
        return 2
    if args.replays is not None and args.replays < 1:
        print("error: --replays must be >= 1", file=sys.stderr)
        return 2
    spec = spec.with_operations(seed=args.seed,
                                epochs=workload.warmup + epochs)
    seconds = (
        manifest["run_seconds"] if args.seconds is None else args.seconds
    )

    wanted = args.replays
    if wanted is None:
        wanted = TRACE_BASELINE_REPLAYS if args.trace else REPLAYS
    replays = [br.run_replay(workload, spec, epochs) for _ in range(wanted)]
    tracer = traced = None
    every = list(replays)
    for _ in range(TRACED_REPLAYS if args.trace else 0):
        candidate = Tracer()
        replay = br.run_replay(workload, spec, epochs, candidate)
        every.append(replay)
        if traced is None or sum(replay.step_s) < sum(traced.step_s):
            tracer, traced = candidate, replay

    # Output checks, then the workload's shape guard.
    problems = [
        f"replays disagree on {key}" for key in br.disagreements(every)
    ]
    facts = dict(replays[0].facts)
    e2e, reduction = br.end_to_end(replays)
    measured_s = sum(sum(r.step_s) for r in every)
    over_budget = args.replays is None and measured_s > seconds
    layered = None
    if traced is not None:
        layered = br.per_layer(replays, traced, tracer, import_ms)
    guards = "skipped (truncated window)"
    if epochs == window:
        serving = spec.flows.serving
        if serving is not None:
            facts["requests_offered"] = serving.requests_per_epoch * epochs
            facts["read_fraction"] = serving.read_fraction
        failed_guards = workload.guard(
            facts, layered if layered is not None else facts["counters"]
        )
        guards = "FAILED" if failed_guards else "passed"
        problems += [f"guard: {p}" for p in failed_guards]

    emitted = _with_units(
        layered if args.trace else e2e,
        manifest["per_layer" if args.trace else "end_to_end"],
    )
    # The benchmark's own operations are sim.step() calls; a request the
    # modelled network drops is the simulator working (sim_ops_failed).
    attempted = sum(len(r.step_s) for r in every)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": emitted,
    }
    _write_record(args.out, tracer, {
        "workload": workload.name,
        "seed": args.seed,
        "seed_requested": args.seed_requested,
        "trace": args.trace,
        "measured_s": measured_s,
        "over_budget": over_budget,
        **result,
        "problems": problems,
        "guards": guards,
        "end_to_end": e2e,
        "per_layer": layered,
        "reduction": reduction,
        "host_import_ms": import_ms,
        "frames_digest": facts["frames_digest"],
        "sim_ops_attempted": facts["sim_ops_attempted"],
        "sim_ops_failed": facts["sim_ops_failed"],
        "serving_summary": facts["serving_summary"],
        "robustness_summary": facts["robustness_summary"],
        "spec": dataclasses.asdict(spec.operations),
    })

    pinned = "" if args.pin_seed is None else (
        f" (pinned; --seed {args.seed_requested})"
    )
    print(f"workload {workload.name}  seed {args.seed}{pinned}  "
          f"{reduction['replays']} replays x {epochs} epochs"
          f"{f' + {TRACED_REPLAYS} traced' if args.trace else ''}  "
          f"envelope {reduction['raw_envelope_s']:.3f} s  "
          f"tail {reduction['tail_percentile']}")
    print(f"frames_digest {facts['frames_digest']}")
    print(f"sim_ops {facts['sim_ops_failed']} failed of "
          f"{facts['sim_ops_attempted']}  guards {guards}  "
          f"host.calib_ms {reduction['host_calib_ms']:.3f} "
          f"= {reduction['host_slowdown']:.3f} x the reference machine's")
    for name, entry in emitted.items():
        print(f"{name:<48} {entry['value']!r:>24} {entry['unit']}")
    if over_budget:
        print(f"FLAG: the timed replays took {measured_s:.1f} s, over "
              f"--seconds {seconds:g}: slow machine phase, or the "
              f"window has outgrown its budget")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps(result, sort_keys=True))
    return 1 if problems else 0


def _write_record(out: Path, tracer, record: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    name = record["workload"]
    (out / f"result-{name}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    if tracer is not None:
        (out / f"trace-{name}.json").write_text(
            json.dumps(tracer.dump(), separators=(",", ":")) + "\n"
        )


def _with_units(values: dict, declared: list) -> dict:
    """``name -> {value, unit}`` for exactly the manifest's metrics."""
    names = [m["name"] for m in declared]
    if set(names) != set(values):
        raise SystemExit(
            f"BENCHMARK.json and the benchmark disagree on metric names: "
            f"{sorted(set(names) ^ set(values))}"
        )
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }


if __name__ == "__main__":
    sys.exit(main())
