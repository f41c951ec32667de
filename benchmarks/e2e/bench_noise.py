"""``--check-noise SETS RUNS``: does the benchmark resolve its own bounds?

Runs SETS back-to-back sets of RUNS fresh-process runs per workload, all
replaying ``--seed``, then prints, per workload x end-to-end metric, every set's median and spread (the distance between the first
and third quartile as a share of the median), the largest distance, in
either direction, between the first set's median and a later one, the
metric's bound, and PASS/FAIL.  A host-time metric passes when every
spread and that gap stay within the bound (``setup_s`` is judged on the
gap alone).  Simulated metrics and byte counts repeat exactly for a
given seed, so they pass only when every run of every set reads ``==``
the first, as must the per-layer call counts and counters of
one traced run per set.  Each set's median ``host.calib_ms`` is printed
beside them: when it moved, so did the machine.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, seed: int, seconds: int, trace: int,
         out: Path) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited "
            f"{done.returncode}:\n{done.stdout}{done.stderr}"
        )
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # Printed by every run, next to the numbers a slow phase inflates.
    metrics["host.calib_ms"] = float(
        re.search(r"host\.calib_ms ([0-9.]+)", done.stdout).group(1)
    )
    return metrics


def _spread(values: Sequence[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_noise(manifest: dict, workloads: List[str], sets: int, runs: int,
                seed: int, out: Path) -> int:
    if sets < 2 or runs < 2:
        raise SystemExit("--check-noise needs SETS >= 2 and RUNS >= 2")
    seconds = manifest["run_seconds"]
    timed: List[Dict[str, List[Dict[str, float]]]] = []
    traced: List[Dict[str, Dict[str, float]]] = []
    for s in range(sets):
        set_out = out / f"noise-set{s}"
        timed.append({})
        traced.append({})
        for workload in workloads:
            timed[s][workload] = [
                _run(workload, seed, seconds, 0, set_out)
                for _ in range(runs)
            ]
            traced[s][workload] = _run(workload, seed, seconds, 1, set_out)
            print(f"set {s}: {workload} done", flush=True)
    out.mkdir(parents=True, exist_ok=True)
    (out / "noise-runs.json").write_text(
        json.dumps({"timed": timed, "traced": traced}, indent=1) + "\n"
    )

    exact_units = {
        m["name"] for m in manifest["per_layer"]
        if m["unit"] in ("count", "B")
    }
    failures = 0
    print(f"nproc {os.cpu_count()}  run_seconds {seconds}  "
          f"{runs} runs/set  seed {seed}")
    print(f"{'workload':<13} {'metric':<26} "
          + " ".join(f"{'median' + str(s):>13} {'iqr' + str(s):>6}"
                     for s in range(sets))
          + f" {'gap':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for metric in manifest["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = [
                [run[name] for run in timed[s][workload]]
                for s in range(sets)
            ]
            medians = [statistics.median(c) for c in columns]
            spreads = [_spread(c) for c in columns]
            gap = max(abs(m - medians[0]) / medians[0] for m in medians[1:])
            limit = f"{bound:.0%}"
            if name.startswith("sim_") or name == "telemetry_bytes":
                limit = "exact"
                ok = all(v == columns[0][0] for c in columns for v in c)
            else:
                ok = gap <= bound
                if name != "setup_s":
                    ok = ok and max(spreads) <= bound
            failures += not ok
            print(f"{workload:<13} {name:<26} "
                  + " ".join(f"{m:>13.6g} {sp:>6.1%}"
                             for m, sp in zip(medians, spreads))
                  + f" {gap:>7.1%} {limit:>6}  "
                  + ("PASS" if ok else "FAIL"))
        calib = [
            statistics.median(run["host.calib_ms"] for run in timed[s][workload])
            for s in range(sets)
        ]
        print(f"{workload:<13} {'host.calib_ms (no bound)':<26} "
              + " ".join(f"{c:>13.6g} {'':>6}" for c in calib))
        first = traced[0][workload]
        moved = sorted(
            name for name in exact_units
            if any(traced[s][workload][name] != first[name]
                   for s in range(1, sets))
        )
        failures += bool(moved)
        print(f"{workload:<13} {len(exact_units)} exact per-layer counts  "
              + ("PASS" if not moved else f"FAIL: {moved}"))
    print("check-noise:", "PASS" if not failures else f"{failures} FAILED")
    return 1 if failures else 0
