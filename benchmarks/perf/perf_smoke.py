"""Opt-in wall-clock perf gates (nothing here runs in tier-1).

Re-measures the ``fig4-slashdot-100x`` probe (the post-bootstrap ramp
into the Slashdot spike — the window the steady-state optimisations
target) and the ``fig4-serving-steady`` probe (the live front door's
request throughput) and compares each against the numbers recorded in
the checked-in ``BENCH_epoch_throughput.json``; then re-measures both
epoch kernels on ``fig4-slashdot`` and its 10× variant and holds the
vectorized kernel to ``MIN_SPEEDUP`` × the scalar reference.  A miss
exits non-zero, which is what lets ``scripts/verify_slow.sh`` catch a
perf regression without anyone remembering to eyeball the bench JSON.

The budget is deliberately loose (25%) because the reference number
was measured on whatever machine last opted into the 100× bench —
shared-runner steal alone moves single-vCPU timings by tens of
percent, and the gate must only fire on real losses (a clobbered
cache, an accidentally quadratic pass), not on scheduler noise.

Usage::

    PYTHONPATH=src python benchmarks/perf/perf_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_epoch_throughput import (  # noqa: E402
    BENCH_PATH,
    FIG4_10X_EPOCHS,
    FIG4_10X_WARMUP,
    FIG4_100X_EPOCHS,
    FIG4_100X_WARMUP,
    FIG4_EPOCHS,
    FIG4_SERVE_EPOCHS,
    FIG4_SERVE_RATE,
    _fig4_config,
    _fig4_scaled_config,
)

from repro.sim.config import ServingConfig  # noqa: E402
from repro.sim.engine import Simulation  # noqa: E402
from repro.sim.profiling import (  # noqa: E402
    compare_kernels,
    measure_throughput,
    speedup,
)

SCENARIO = "fig4-slashdot-100x"
SERVE_SCENARIO = "fig4-serving-steady"
MAX_REGRESSION = 0.25

#: The vectorized kernel must stay at least this much faster than the
#: scalar reference on the Fig. 4 scenario — the PR-1 acceptance bar.
#: Measured at PR 1: ~4.7× on fig4-slashdot and ~8× on the 10× variant,
#: so the floor leaves ~1.5× headroom for shared-machine timer noise
#: while a real regression (losing the batched settlement, the
#: incremental availability, or the expansion rent floor) still fails
#: loudly.
MIN_SPEEDUP = 3.0


def _scenario_entry(name: str) -> dict | None:
    if not BENCH_PATH.exists():
        return None
    try:
        payload = json.loads(BENCH_PATH.read_text())
    except ValueError:
        return None
    return payload.get("scenarios", {}).get(name)


def reference_eps() -> float | None:
    """The checked-in vectorized epochs/s of the ramp probe, if any."""
    entry = _scenario_entry(SCENARIO)
    if entry is None:
        return None
    return entry.get("epochs_per_sec", {}).get("vectorized")


def check_ramp() -> int:
    ref = reference_eps()
    if ref is None:
        print(
            f"perf smoke: no {SCENARIO!r} reference in "
            f"{BENCH_PATH.name} — run the 100x bench "
            f"(REPRO_BENCH_100X=1) to record one; skipping"
        )
        return 0
    config = dataclasses.replace(
        _fig4_scaled_config(100, FIG4_100X_WARMUP, FIG4_100X_EPOCHS),
        kernel="vectorized",
    )
    result = measure_throughput(
        config, epochs=FIG4_100X_EPOCHS,
        warmup_epochs=FIG4_100X_WARMUP, repeats=2,
    )
    measured = result.epochs_per_sec
    floor = ref * (1.0 - MAX_REGRESSION)
    verdict = "OK" if measured >= floor else "REGRESSION"
    print(
        f"perf smoke: {SCENARIO} vectorized {measured:.3f} epochs/s "
        f"vs reference {ref:.3f} (floor {floor:.3f}) — {verdict}"
    )
    if measured < floor:
        print(
            f"perf smoke: ramp probe lost more than "
            f"{MAX_REGRESSION:.0%} vs the checked-in bench JSON",
            file=sys.stderr,
        )
        return 1
    return 0


def check_serving() -> int:
    """Re-run the serving probe against its checked-in throughput row.

    Same skip-if-absent contract as the ramp gate: the row only exists
    after the bench harness has been run once, and the budget is the
    same loose 25% so only a real serving-path slowdown (a per-request
    rescan, an accidentally quadratic costing pass) fires it.
    """
    entry = _scenario_entry(SERVE_SCENARIO)
    ref = (entry or {}).get("requests_per_sec_wall")
    if ref is None:
        print(
            f"perf smoke: no {SERVE_SCENARIO!r} reference in "
            f"{BENCH_PATH.name} — run the perf bench to record one; "
            f"skipping"
        )
        return 0
    import time

    config = dataclasses.replace(
        _fig4_config(200),
        epochs=FIG4_SERVE_EPOCHS,
        serving=ServingConfig(requests_per_epoch=FIG4_SERVE_RATE),
    )
    start = time.perf_counter()
    sim = Simulation(config)
    sim.run()
    elapsed = time.perf_counter() - start
    requests = sim.serving_log.summary()["requests"]
    measured = requests / elapsed
    floor = ref * (1.0 - MAX_REGRESSION)
    verdict = "OK" if measured >= floor else "REGRESSION"
    print(
        f"perf smoke: {SERVE_SCENARIO} {measured:.1f} requests/s "
        f"vs reference {ref:.1f} (floor {floor:.1f}) — {verdict}"
    )
    if measured < floor:
        print(
            f"perf smoke: serving probe lost more than "
            f"{MAX_REGRESSION:.0%} vs the checked-in bench JSON",
            file=sys.stderr,
        )
        return 1
    return 0


def check_speedup() -> int:
    """Hold the vectorized kernel to MIN_SPEEDUP× the scalar reference."""
    rows = {
        "fig4-slashdot": compare_kernels(
            _fig4_config(200), epochs=FIG4_EPOCHS, repeats=2,
        ),
        "fig4-slashdot-10x": compare_kernels(
            _fig4_scaled_config(10, FIG4_10X_WARMUP, FIG4_10X_EPOCHS),
            epochs=FIG4_10X_EPOCHS, warmup_epochs=FIG4_10X_WARMUP,
        ),
    }
    failed = 0
    for name, results in rows.items():
        ratio = speedup(results)
        ok = ratio >= MIN_SPEEDUP  # both kernels ran, so never None
        print(
            f"perf smoke: {name} vectorized/scalar {ratio:.2f}x "
            f"(floor {MIN_SPEEDUP}x) — {'OK' if ok else 'REGRESSION'}"
        )
        failed |= not ok
    return int(failed)


def main() -> int:
    return check_ramp() or check_serving() or check_speedup()


if __name__ == "__main__":
    sys.exit(main())
