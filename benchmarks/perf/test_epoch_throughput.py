"""Epoch-throughput regression harness (perf baseline since PR 1).

Measures the production (vectorized) and reference (scalar) epoch
kernels on the Fig. 4 Slashdot scenario and a 10×-partitions variant,
and writes ``BENCH_epoch_throughput.json`` so the perf trajectory is
tracked across PRs.  The scalar kernel preserves the pre-refactor
implementation (per-replica settlement, per-use O(R²) availability,
per-agent list rebuilds), so the recorded ratio is the refactor's
speedup, measured on whatever machine runs the bench.

Under pytest the harness asserts only what is deterministic: both
kernels emit the same ``frames_digest`` over each measured window, so
the ratio is a pure throughput comparison.  The wall-clock floor on
that ratio (``MIN_SPEEDUP``) lives in the opt-in ``perf_smoke.py`` gate
— a shared single-vCPU box moved it between 3.06× and 4.41× on one
tree, which is not something tier-1 may fail on.

Two 100× scale probes (60 000 partitions on a 20 000-server cloud,
vectorized kernel only — the scalar reference would need hours per
run) are gated behind ``REPRO_BENCH_100X=1`` so CI stays fast; when
skipped, the previously measured entries are carried over in the JSON
unchanged.  ``fig4-slashdot-100x`` times epochs 25–30 (after the
bootstrap warm-up) — the ramp into the Slashdot spike; the measured
trajectory is ~1.6 epochs/s at PR 2 and ~5.2 at PR 3 (dense
partition-index stores, row-space incidence rebuild, visited-only
decision pass, top-k shortlists — see PERFORMANCE.md).
``fig4-slashdot-100x-bootstrap`` times the *first* epochs after
single-replica seeding — the §II-C repair storm, where nearly every
eq. 3 argmax is answered off the ceiling certificate.  ``fig4-asymmetric-partition`` runs the same fig4 shape
with the gossip control plane on — loss plus an asymmetric country cut
— and records per-code message counts alongside epochs/s, the control-plane
overhead row PERFORMANCE.md tracks (PR 6).
``fig4-quorum-under-faults`` routes quorum client traffic through the
stale-view data plane under loss=10% plus one link-flap window and
records client ops/s plus the consistency audit's anomaly counts —
the lost-write count doubles as a regression gate on the
sloppy-quorum durability contract (PR 7).
``fig4-serving-steady`` runs the live-serving front door (open-loop
get/put requests, quorum level) on a steady fig4 cloud and records
sustained requests/s (wall clock), the steady-state p50/p99/p999
read & write tails and SLA attainment — the serving cost-model row
the perf-smoke gate tracks (PR 10).

Under pytest the full harness is ``-m slow`` (``scripts/verify_slow.sh``
runs it); tier-1 keeps only a short vectorized == scalar digest pin at
fig4 shape.  The harness's JSON goes to ``tmp_path`` so a test run
leaves the working tree as it found it; the tracked
``BENCH_epoch_throughput.json`` at the repo root is rewritten only when
the module is run as a script::

    PYTHONPATH=src python -m pytest benchmarks/perf -q -s -m slow
    PYTHONPATH=src python benchmarks/perf/test_epoch_throughput.py

(prefix ``REPRO_BENCH_100X=1`` to either for the 100× probes).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import dataclasses

import numpy as np
import pytest

from repro.cluster.events import AddServers, EventSchedule, RemoveServers
from repro.net.model import LinkFlap, NetConfig, NetPartition
from repro.sim.chaos import run_consistency_audit
from repro.sim.config import (
    DataPlaneConfig,
    ServingConfig,
    scaled_paper_layout,
)
from repro.sim.engine import Simulation
from repro.sim.profiling import compare_kernels, speedup
from repro.sim.scenario import compile_spec
from repro.sim.specs import slashdot_spec

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = REPO_ROOT / "BENCH_epoch_throughput.json"

#: Scenario horizons: long enough to cross the Slashdot ramp and give
#: stable timings, short enough for CI.
FIG4_EPOCHS = 150
FIG4_10X_EPOCHS = 12
#: The scaled variants measure the steady state at scale: the first
#: epochs after single-replica seeding are a transfer-bound replication
#: bootstrap in any kernel, so they warm up untimed.
FIG4_10X_WARMUP = 25
FIG4_100X_EPOCHS = 5
FIG4_100X_WARMUP = 25
#: The 100× *bootstrap* window: the first epochs after single-replica
#: seeding, where nearly every partition runs a §II-C repair chain.
#: Measured from epoch 0 with no warmup (the storm itself is the
#: workload).
FIG4_100X_BOOT_EPOCHS = 4
#: The 100× *churn* probe (ISSUE 9): post-bootstrap epochs carrying
#: join/leave waves — every epoch mutates the cloud and catalog, so
#: the whole window exercises the incremental-incidence splice (wall
#: (a)); the mutation-side epochs/s of its churn split is the headline
#: before/after number.
FIG4_100X_CHURN_EPOCHS = 6
FIG4_100X_CHURN_WARMUP = 25
FIG4_100X_CHURN_WAVE = 100

#: The faulty-net control-plane probe: the Fig. 4 scenario with the
#: full gossip fabric carrying every heartbeat/price message under
#: loss plus a mid-run asymmetric country cut — the per-epoch overhead
#: of the ISSUE 6 control plane relative to plain fig4-slashdot.
FIG4_NET_EPOCHS = 60

#: The stale-view data-plane probe (ISSUE 7): quorum client traffic
#: routed through the believed membership view under loss=10% with
#: one link-flap window, settled, and audited.  The row tracks client
#: ops/s (whole-run wall clock: economy + control plane + serving)
#: and the audit's anomaly counts — the lost-write count must be zero
#: or the sloppy-quorum durability contract broke.
FIG4_DP_EPOCHS = 40
FIG4_DP_SETTLE = 16
FIG4_DP_FLAP = (10, 20)

#: The live-serving probe (ISSUE 10): an open-loop front door pushing
#: quorum get/put requests through the router + store every epoch on
#: the fig4 shape while the economy rebalances underneath.  The row
#: tracks sustained requests/s (wall clock) plus the steady-state
#: latency tails — the serving-path cost model PERFORMANCE.md tracks.
FIG4_SERVE_EPOCHS = 40
FIG4_SERVE_RATE = 256

#: Opt-in gate for the 100× probes (minutes of wall clock on a
#: 20 000-server cloud whose bootstrap peaks near 220 MiB RSS — not CI
#: material).
RUN_100X = os.environ.get("REPRO_BENCH_100X", "") not in ("", "0")


def _asymmetric_net(start: int) -> NetConfig:
    return NetConfig(
        loss=0.1,
        rounds_per_epoch=2,
        partitions=(
            NetPartition(
                start_epoch=start, heal_epoch=start + 10, depth=2,
                asymmetric=True,
            ),
        ),
    )


def _fig4_config(partitions: int):
    # Compress the spike into the measured window so the bench exercises
    # the surge regime (ramp + peak + early decay), not just idle load.
    return compile_spec(slashdot_spec(
        epochs=FIG4_EPOCHS,
        seed=0,
        partitions=partitions,
        spike_epoch=30,
        ramp_epochs=25,
        decay_epochs=60,
    )).config


def _fig4_scaled_config(scale: int, warmup: int, epochs: int):
    # scale× partitions on a scale× cloud (same geography tree, deeper
    # racks): scaling only the partition count would oversubscribe the
    # paper cloud's storage and measure a permanent repair storm
    # instead of epoch throughput.
    cfg = _fig4_config(200 * scale)
    return dataclasses.replace(
        cfg,
        epochs=warmup + epochs,
        layout=scaled_paper_layout(scale),
    )


def _churn_schedule_factory(config, warmup: int, epochs: int,
                            wave: int = FIG4_100X_CHURN_WAVE):
    """Fresh join/leave wave schedules for the churn probe.

    Schedules are stateful (rng draws, event log), so each repeat gets
    a new, identically-seeded instance.  Waves alternate joins and
    leaves across the measured window — every measured epoch starts
    with a cloud mutation, the regime the incidence splice targets.
    """
    def factory():
        events = []
        for i in range(epochs):
            epoch = warmup + i
            if i % 2 == 0:
                events.append(AddServers(epoch=epoch, count=wave))
            else:
                events.append(RemoveServers(epoch=epoch, count=wave))
        return EventSchedule(
            events, layout=config.layout,
            rng=np.random.default_rng(999),
        )
    return factory


def _entry(config, results, warmup_epochs: int = 0):
    ratio = speedup(results)
    messages = {
        kernel: r.messages
        for kernel, r in results.items()
        if r.messages is not None
    }
    extra = {"messages": messages} if messages else {}
    churn_split = {}
    for kernel, r in results.items():
        if not (r.mutation_epochs or r.steady_epochs):
            continue
        mut_eps = r.mutation_epochs_per_sec
        steady_eps = r.steady_epochs_per_sec
        churn_split[kernel] = {
            "mutation_epochs": r.mutation_epochs,
            "mutation_epochs_per_sec": (
                round(mut_eps, 3) if mut_eps is not None else None
            ),
            "steady_epochs": r.steady_epochs,
            "steady_epochs_per_sec": (
                round(steady_eps, 3) if steady_eps is not None else None
            ),
        }
    if churn_split:
        extra["churn_split"] = churn_split
    return {
        **extra,
        "epochs": {k: r.epochs for k, r in results.items()},
        # Untimed epochs before the measurement window: the scaled
        # variants time the epochs right after the bootstrap — for the
        # Slashdot shape that is the ramp into the spike, the regime
        # the steady-state optimisations target.
        "warmup_epochs": warmup_epochs,
        "partitions_per_app": config.apps[0].rings[0].partitions,
        "total_partitions": sum(
            ring.partitions for app in config.apps for ring in app.rings
        ),
        # Three decimals: the 100× bootstrap window runs below 1
        # epoch/s, where two would round away the comparison.
        "epochs_per_sec": {
            kernel: round(r.epochs_per_sec, 3)
            for kernel, r in results.items()
        },
        # Peak resident bytes of the run's stored frame stream — the
        # columnar FrameStore's memory trajectory across PRs (dict
        # frames dominated at scale before PR 4; see PERFORMANCE.md).
        "frame_store_bytes": {
            kernel: r.frame_store_bytes for kernel, r in results.items()
        },
        "frames_digest": {
            kernel: r.frames_digest for kernel, r in results.items()
        },
        "speedup_vectorized_over_scalar": (
            round(ratio, 2) if ratio is not None else None
        ),
    }


#: Tier-1's kernel pin at fig4 shape: both kernels through the first
#: ten epochs of the Slashdot ramp must emit one ``frames_digest``.
FIG4_PIN_EPOCHS = 40


def test_fig4_kernels_share_a_digest():
    results = compare_kernels(_fig4_config(200), epochs=FIG4_PIN_EPOCHS)
    assert results["vectorized"].frames_digest == (
        results["scalar"].frames_digest
    )


@pytest.mark.slow
def test_epoch_throughput_fig4(tmp_path):
    payload = run_harness(tmp_path / BENCH_PATH.name)
    for name in ("fig4-slashdot", "fig4-slashdot-10x"):
        digests = payload["scenarios"][name]["frames_digest"]
        assert set(digests) == {"vectorized", "scalar"}
        assert digests["vectorized"] == digests["scalar"], (
            f"{name}: the kernels' measured windows diverged"
        )


def run_harness(out_path: Path) -> dict:
    """Measure every scenario, write ``out_path``, return the payload."""
    payload = {
        "harness": "benchmarks/perf/test_epoch_throughput.py",
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "scenarios": {},
    }

    base = _fig4_config(200)
    base_results = compare_kernels(
        base, epochs=FIG4_EPOCHS, repeats=2, split=True
    )
    payload["scenarios"]["fig4-slashdot"] = _entry(base, base_results)

    scaled = _fig4_scaled_config(
        10, FIG4_10X_WARMUP, FIG4_10X_EPOCHS
    )
    scaled_results = compare_kernels(
        scaled, epochs=FIG4_10X_EPOCHS, warmup_epochs=FIG4_10X_WARMUP,
        split=True,
    )
    payload["scenarios"]["fig4-slashdot-10x"] = _entry(
        scaled, scaled_results, warmup_epochs=FIG4_10X_WARMUP
    )

    # Same fig4 shape with the gossip control plane on: loss=10% and an
    # asymmetric country cut mid-run.  Message counts land in the
    # entry; the epochs/s ratio against fig4-slashdot is the
    # control-plane overhead PERFORMANCE.md tracks.
    net_cfg = dataclasses.replace(
        _fig4_config(200),
        epochs=FIG4_NET_EPOCHS,
        net=_asymmetric_net(FIG4_NET_EPOCHS // 3),
    )
    net_results = compare_kernels(
        net_cfg, epochs=FIG4_NET_EPOCHS, repeats=2, split=True
    )
    assert all(
        r.messages is not None
        and r.messages["HEARTBEAT"]["sent"] > 0
        and r.messages["HEARTBEAT"]["dropped_partition"] > 0
        for r in net_results.values()
    ), "the faulty-net probe must actually carry (and cut) traffic"
    payload["scenarios"]["fig4-asymmetric-partition"] = _entry(
        net_cfg, net_results
    )

    # Quorum serving under faults: client ops through the believed
    # view at loss=10% with one flap window, then the consistency
    # audit over the settled history.
    dp_cfg = dataclasses.replace(
        _fig4_config(200),
        epochs=FIG4_DP_EPOCHS,
        net=NetConfig(
            loss=0.1,
            rounds_per_epoch=2,
            flaps=(LinkFlap(
                start_epoch=FIG4_DP_FLAP[0], heal_epoch=FIG4_DP_FLAP[1],
            ),),
        ),
        data_plane=DataPlaneConfig(ops_per_epoch=32),
    )
    start = time.perf_counter()
    audit = run_consistency_audit(dp_cfg, settle_epochs=FIG4_DP_SETTLE)
    elapsed = time.perf_counter() - start
    report = audit.report
    dp_summary = audit.sim.robustness.data_plane_summary()
    assert report.operations > 0
    assert audit.green, report.render()
    payload["scenarios"]["fig4-quorum-under-faults"] = {
        "epochs": FIG4_DP_EPOCHS,
        "settle_epochs": FIG4_DP_SETTLE,
        "net": {"loss": 0.1, "flap_window": list(FIG4_DP_FLAP)},
        "client_ops": report.operations,
        "ops_per_sec": round(report.operations / elapsed, 1),
        "anomalies": {
            "lost_writes": report.lost_writes,
            "strong_stale_reads": report.stale_reads,
            "dirty_ghost_reads": report.dirty_ghost_reads,
            "weak_stale_reads": report.weak_stale_reads,
            "failed_ops": report.failed_ops,
        },
        "serving": {
            "replica_timeouts": dp_summary["replica_timeouts"],
            "replica_unreachable": dp_summary["replica_unreachable"],
            "suspects_skipped": dp_summary["suspects_skipped"],
            "hints_parked": dp_summary["hints_parked"],
            "hints_drained": dp_summary["hints_drained"],
            "hints_expired": dp_summary["hints_expired"],
            "read_repairs": dp_summary["read_repairs"],
        },
        "audit_green": audit.green,
    }

    # Live serving on a steady cloud: the front door's own wall-clock
    # cost plus the latency tails it reports.  epochs_per_sec is what
    # the perf-smoke gate tracks for this row.
    serve_cfg = dataclasses.replace(
        _fig4_config(200),
        epochs=FIG4_SERVE_EPOCHS,
        serving=ServingConfig(requests_per_epoch=FIG4_SERVE_RATE),
    )
    start = time.perf_counter()
    serve_sim = Simulation(serve_cfg)
    serve_sim.run()
    elapsed = time.perf_counter() - start
    serve_summary = serve_sim.serving_log.summary()
    assert serve_summary["requests"] == (
        FIG4_SERVE_RATE * FIG4_SERVE_EPOCHS
    )
    payload["scenarios"]["fig4-serving-steady"] = {
        "epochs": FIG4_SERVE_EPOCHS,
        "requests_per_epoch": FIG4_SERVE_RATE,
        "requests": serve_summary["requests"],
        "requests_per_sec_wall": round(
            serve_summary["requests"] / elapsed, 1
        ),
        "epochs_per_sec": {
            "vectorized": round(FIG4_SERVE_EPOCHS / elapsed, 3)
        },
        "latency_ms": {
            "read": {
                "p50": round(serve_summary["read_p50_ms"], 2),
                "p99": round(serve_summary["read_p99_ms"], 2),
                "p999": round(serve_summary["read_p999_ms"], 2),
            },
            "write": {
                "p50": round(serve_summary["write_p50_ms"], 2),
                "p99": round(serve_summary["write_p99_ms"], 2),
                "p999": round(serve_summary["write_p999_ms"], 2),
            },
        },
        "sla_attainment": round(serve_summary["sla_attainment"], 4),
        "failures": (
            serve_summary["read_failures"]
            + serve_summary["write_failures"]
        ),
    }

    if RUN_100X:
        big = _fig4_scaled_config(
            100, FIG4_100X_WARMUP, FIG4_100X_EPOCHS
        )
        big_results = compare_kernels(
            big, epochs=FIG4_100X_EPOCHS,
            warmup_epochs=FIG4_100X_WARMUP,
            kernels=("vectorized",), split=True,
        )
        entry = _entry(big, big_results, warmup_epochs=FIG4_100X_WARMUP)
        # Stamp where this number was measured: when later runs carry
        # it over, the top-level machine block describes *them*.
        entry["measured_on"] = dict(payload["machine"])
        payload["scenarios"]["fig4-slashdot-100x"] = entry

        boot = _fig4_scaled_config(100, 0, FIG4_100X_BOOT_EPOCHS)
        boot_results = compare_kernels(
            boot, epochs=FIG4_100X_BOOT_EPOCHS,
            kernels=("vectorized",), split=True,
        )
        boot_entry = _entry(boot, boot_results)
        boot_entry["measured_on"] = dict(payload["machine"])
        payload["scenarios"]["fig4-slashdot-100x-bootstrap"] = boot_entry

        # Mutation-heavy epochs at 100×: alternating join/leave waves
        # across the measured window, so every timed epoch pays the
        # incidence-rebuild path.  The churn_split's mutation side is
        # the wall-(a) before/after number.
        churn = _fig4_scaled_config(
            100, FIG4_100X_CHURN_WARMUP, FIG4_100X_CHURN_EPOCHS
        )
        churn_results = compare_kernels(
            churn, epochs=FIG4_100X_CHURN_EPOCHS,
            warmup_epochs=FIG4_100X_CHURN_WARMUP,
            kernels=("vectorized",), split=True,
            events_factory=_churn_schedule_factory(
                churn, FIG4_100X_CHURN_WARMUP, FIG4_100X_CHURN_EPOCHS
            ),
        )
        churn_entry = _entry(
            churn, churn_results, warmup_epochs=FIG4_100X_CHURN_WARMUP
        )
        churn_entry["churn_wave_servers"] = FIG4_100X_CHURN_WAVE
        churn_entry["measured_on"] = dict(payload["machine"])
        payload["scenarios"]["fig4-churn-100x"] = churn_entry
    elif BENCH_PATH.exists():
        # Keep the last opted-in measurements on record instead of
        # silently dropping the scenarios from the JSON.  A corrupt
        # file (interrupted write) must not wedge the harness — a
        # script-mode rewrite heals it.
        try:
            previous = json.loads(BENCH_PATH.read_text())
        except ValueError:
            previous = {}
        for name in (
            "fig4-slashdot-100x",
            "fig4-slashdot-100x-bootstrap",
            "fig4-churn-100x",
        ):
            carried = previous.get("scenarios", {}).get(name)
            if carried is not None:
                payload["scenarios"][name] = carried

    # Before/after bookkeeping: a ``baseline_pr9`` block (captured on
    # the pre-optimization tree) rides along verbatim so the JSON keeps
    # both sides of the ISSUE 9 comparison in one place.
    if BENCH_PATH.exists():
        try:
            previous = json.loads(BENCH_PATH.read_text())
        except ValueError:
            previous = {}
        baseline = previous.get("baseline_pr9")
        if baseline is not None:
            payload["baseline_pr9"] = baseline

    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True))

    print("\nepoch throughput (epochs/sec):")
    for name, entry in payload["scenarios"].items():
        eps = entry.get("epochs_per_sec")
        if eps is None:
            # The data-plane row tracks client ops/s, not kernel
            # epochs/s.
            anomalies = entry["anomalies"]
            print(
                f"  {name:20s} {entry['client_ops']} client ops at "
                f"{entry['ops_per_sec']:8.1f} ops/s   audit "
                f"{'GREEN' if entry['audit_green'] else 'RED'} "
                f"(lost {anomalies['lost_writes']}, stale "
                f"{anomalies['strong_stale_reads']})"
            )
            continue
        scalar = (
            f"{eps['scalar']:8.2f}" if "scalar" in eps else "       —"
        )
        ratio = entry.get("speedup_vectorized_over_scalar")
        print(
            f"  {name:20s} vectorized {eps['vectorized']:8.2f}   "
            f"scalar {scalar}   "
            f"speedup {ratio if ratio is not None else '—'}x"
        )

    return payload


if __name__ == "__main__":
    run_harness(BENCH_PATH)
