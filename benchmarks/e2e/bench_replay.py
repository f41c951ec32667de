"""Replay one seeded window, and reduce replays to metrics.

The simulator is deterministic per seed, so epoch *i* of every replay of
a window is the same work plus whatever noise the host added.  One *run*
therefore replays the identical window K times on fresh ``Simulation``
objects, times every ``sim.step()``, and keeps the per-epoch minimum —
the **envelope** ``env[i] = min_k t[k][i]``.  Every host-time metric is
computed from the envelope, never from a single pass; what licenses the
minimum is that all replays are checked to have produced byte-identical
frame streams, summaries and counters (:func:`disagreements`).

The envelope removes what the host adds for less than a run.  The hosts
this runs on also have phases of minutes in which everything takes up
to twice as long, so a fixed reference kernel (:func:`reference_slice`)
is timed after every epoch and reduced with the same envelope, and the
host-time metrics are reported at the reference machine's speed:
divided by how much slower than :data:`REFERENCE_SLICE_MS` the kernel
ran beside them (:func:`host_slowdown`).

Counters are read from public attributes and frames after the window,
as differences against a snapshot taken after warm-up, so they describe
the timed window only.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.model import MessageStats
from repro.sim.framedump import frames_digest
from repro.sim.scenario import ScenarioSpec, compile_spec

from bench_trace import SPANS, Tracer, instrumented
from bench_workloads import Workload

DECISION_COUNTERS = ("align_splices", "align_rebuilds", "align_reuses")
PLACEMENT_COUNTERS = ("class_gain_reuses", "class_div_extends")
ACTION_COUNTERS = (
    "repairs", "economic_replications", "migrations", "suicides", "deferred",
)
TRANSFER_COUNTERS = (
    "replications", "migrations", "bytes_moved", "no_destination",
)
CONTROL_COUNTERS = (
    "detections", "false_suspects", "retries_pushed", "retries_succeeded",
    "retries_dropped",
)
QUORUM_COUNTERS = (
    "replica_timeouts", "replica_unreachable", "read_repairs",
    "anti_entropy_keys",
)
HINT_COUNTERS = ("parked", "drained", "expired")


#: Milliseconds one :func:`reference_slice` takes on the machine the
#: bounds in ``BENCHMARK.json`` were measured on (2-core Xeon at 2.1 GHz,
#: quiet phase).  Changing it or the kernel rescales every host-time
#: metric, so it is part of the benchmark's definition.
REFERENCE_SLICE_MS = 4.7

_SMALL_ARRAYS = [np.arange(64, dtype=np.float64) + i for i in range(64)]
#: Small heap objects in shuffled order, more of them than a cache holds
#: between two visits: a slice walks ``_OBJECTS_PER_SLICE`` of them.
_OBJECTS = [(i, float(i), str(i)) for i in range(1 << 16)]
random.Random(1).shuffle(_OBJECTS)
_OBJECTS_PER_SLICE = 1 << 12


def reference_slice(i: int) -> float:
    """Seconds the ``i``-th slice of the fixed reference kernel takes now.

    It does the same work in every run of every commit, and work of the
    simulator's kind: many small numpy calls and a walk over cold Python
    objects.  In a slow phase of the host a tight loop was measured to
    slow 1.4x, these two parts 1.8x and 2.1x, and the workloads' replays
    1.75-1.93x, which is what makes it their yardstick (README, "Host
    slowdown").
    """
    start = time.perf_counter()
    total = 0.0
    for _ in range(10):
        for values in _SMALL_ARRAYS:
            scaled = values * 1.5 + 2.0
            total += float(scaled[scaled > 50.0].sum())
            total += float(np.maximum(values, 3.0).max())
    at = i * _OBJECTS_PER_SLICE % len(_OBJECTS)
    seen = {}
    for number, real, text in _OBJECTS[at:at + _OBJECTS_PER_SLICE]:
        total += number + real
        if number & 7 == 0:
            seen[text] = (number, total)
    sorted(seen.values())
    return time.perf_counter() - start


def _numbers_held(frame) -> int:
    """Scalars in one control- or data-plane frame, dict rows unrolled."""
    held = 0
    for field in dataclasses.fields(frame):
        value = getattr(frame, field.name)
        if isinstance(value, dict):
            held += sum(len(row) for row in value.values())
        else:
            held += 1
    return held


def _telemetry_bytes(sim) -> int:
    """Bytes resident in the run's three telemetry logs."""
    total = sim.metrics.nbytes
    if sim.serving_log is not None:
        total += sim.serving_log.nbytes
    log = sim.robustness
    if log is not None:
        # RobustnessLog is list-backed and has no ``nbytes`` today.
        # ``sys.getsizeof`` over its frames is not replay-stable (an
        # instance dict's size depends on allocation history), so count
        # what a column store would hold: 8 bytes per number.
        nbytes = getattr(log, "nbytes", None)
        if nbytes is None:
            nbytes = 8 * sum(
                _numbers_held(f) for f in list(log) + log.data_plane
            )
        total += nbytes
    return int(total)


def _overlay_stores(sim) -> list:
    return [
        overlay.store for overlay in (sim.data_plane, sim.serving)
        if overlay is not None
    ]


def _monotone_counters(sim) -> Dict[str, int]:
    """Counters the engine only increments, from public attributes."""
    out = {
        f"core.decision.{name}": getattr(sim.decider, name)
        for name in DECISION_COUNTERS
    }
    messages = [0] * len(MessageStats.FIELDS)
    if sim.membership_service is not None:
        for row in sim.membership_service.net.stats.snapshot().values():
            messages = [a + b for a, b in zip(messages, row)]
    for name, value in zip(MessageStats.FIELDS, messages):
        out[f"net.messages.{name}"] = value
    stores = _overlay_stores(sim)
    for name in QUORUM_COUNTERS:
        out[f"store.quorum.{name}"] = sum(
            getattr(s.stats, name) for s in stores
        )
    for name in HINT_COUNTERS:
        out[f"store.hints.{name}"] = sum(
            getattr(s.hints, name) for s in stores
        )
    out["cluster.servers_joined"] = len(sim.events.log.all_added)
    out["cluster.servers_left"] = len(sim.events.log.all_removed)
    # The partition count: every split adds one, so its growth over
    # the window is the number of splits.
    out["ring.splits"] = sum(len(ring) for ring in sim.rings)
    return out


@dataclass
class Replay:
    """One pass over the window: its clocks and everything it produced."""

    setup_s: float
    step_s: List[float]
    #: The reference kernel's slice after each timed epoch.
    calib_s: List[float]
    #: Exact outputs; equal across replays or the run fails.
    facts: Dict[str, object]
    #: What only a traced replay can count — ``<span>.calls`` and the
    #: ``core.placement.*`` counters, which live on per-epoch scorers;
    #: equal across the traced replays or the run fails.
    layer_counts: Optional[Dict[str, int]] = None


def run_replay(workload: Workload, spec: ScenarioSpec, epochs: int,
               tracer: Optional[Tracer] = None) -> Replay:
    """Set up a fresh simulation, warm it up, and time ``epochs`` steps."""
    warmup = workload.warmup
    gc.collect()
    started = time.perf_counter()
    sim = compile_spec(spec).simulation()
    for _ in range(warmup):
        sim.step()
    setup_s = time.perf_counter() - started

    base = _monotone_counters(sim)
    transfers = dict.fromkeys(TRANSFER_COUNTERS + ("failures",), 0)
    partitions: List[int] = []
    placement = None
    scorers: list = []
    if tracer is not None:
        # The decider builds one scorer per epoch and keeps no reference.
        placement = dict.fromkeys(PLACEMENT_COUNTERS, 0)
        make_scorer = sim.decider._make_scorer

        def capture_scorer(board):
            scorers.append(make_scorer(board))
            return scorers[-1]

        sim.decider._make_scorer = capture_scorer
    step_s: List[float] = []
    calib_s: List[float] = []
    clock = time.perf_counter
    with instrumented(sim, tracer) if tracer is not None else nullcontext():
        for i in range(epochs):
            if tracer is not None:
                tracer.trace_id = i
            start = clock()
            sim.step()
            step_s.append(clock() - start)
            calib_s.append(reference_slice(i))
            # Untimed: fold in what the next epoch resets or replaces.
            stats = sim.transfers.stats
            for name in TRANSFER_COUNTERS:
                transfers[name] += getattr(stats, name)
            transfers["failures"] += len(stats.failures)
            partitions.append(sum(len(ring) for ring in sim.rings))
            while scorers:
                scorer = scorers.pop()
                for name in PLACEMENT_COUNTERS:
                    placement[name] += getattr(scorer, name)

    facts = _collect_facts(sim, warmup, base, transfers, partitions)
    layer_counts = None
    if tracer is not None:
        layer_counts = {
            f"{name}.calls": calls
            for name, (calls, _) in tracer.totals().items()
        }
        for name, value in placement.items():
            layer_counts[f"core.placement.{name}"] = value
    return Replay(setup_s, step_s, calib_s, facts, layer_counts)


def _collect_facts(sim, warmup: int, base: Dict[str, int],
                   transfers: Dict[str, int],
                   partitions: Sequence[int]) -> Dict[str, object]:
    def window(series) -> np.ndarray:
        return series[warmup:]

    def total(series) -> int:
        return int(window(series).sum())

    frames = sim.metrics
    counters = {
        name: value - base[name]
        for name, value in _monotone_counters(sim).items()
    }
    counters["ring.partitions_final"] = partitions[-1]
    for name in ACTION_COUNTERS:
        counters[f"core.decision.{name}"] = total(frames.series(name))
    for name, value in transfers.items():
        counters[f"store.transfer.{name}"] = value
    control = sim.robustness if sim.membership_service is not None else None
    for name in CONTROL_COUNTERS:
        counters[f"net.{name}"] = (
            total(control.series(name)) if control is not None else 0
        )
    plane_ops = plane_failures = 0
    if sim.data_plane is not None:
        plane_ops = total(sim.robustness.data_plane_series("operations"))
        plane_failures = total(sim.robustness.data_plane_series("failures"))
    counters["store.dataplane.ops"] = plane_ops + plane_failures
    counters["store.dataplane.failures"] = plane_failures
    serving = sim.serving_log
    for name in ("requests", "reads", "writes", "failures", "sla_violations"):
        counters[f"serve.{name}"] = (
            total(serving.series(name)) if serving is not None else 0
        )
    requests = counters["serve.requests"]
    queue_ms = 0.0
    lost_writes = 0
    if serving is not None:
        if requests:
            queue_ms = float(
                (window(serving.series("mean_queue_ms"))
                 * window(serving.series("requests"))).sum() / requests
            )
        lost_writes = len(sim.serving.lost_writes())
    counters["serve.mean_queue_ms"] = queue_ms
    counters["serve.lost_writes"] = lost_writes
    queries = window(frames.series("total_queries"))
    counters["workload.total_queries"] = int(queries.sum())

    parts = np.asarray(partitions, dtype=np.float64)
    below = total(frames.series("unsatisfied_partitions")) + total(
        frames.series("lost_partitions")
    )
    inserts = total(frames.series("insert_attempts"))
    insert_failures = total(frames.series("insert_failures"))
    if serving is None and sim.data_plane is None:
        # No clients: the operations are the SLA evaluations themselves.
        attempted, failed = int(parts.sum()), below
    else:
        attempted = requests + counters["store.dataplane.ops"] + inserts
        failed = counters["serve.failures"] + plane_failures + insert_failures
    return {
        "frames_digest": frames_digest(frames),
        "serving_summary": serving.summary() if serving is not None else None,
        "robustness_summary": (
            sim.robustness.summary() if sim.robustness is not None else None
        ),
        "telemetry_bytes": _telemetry_bytes(sim),
        "counters": counters,
        "sim_ops_attempted": attempted,
        "sim_ops_failed": failed,
        "peak_queries": float(queries.max()),
        # Warm-up included: econ-spike's idle epochs are untimed.
        "base_queries": float(frames.series("total_queries").min()),
        "sim_sla_satisfied_share": 1.0 - below / float(parts.sum()),
        "sim_query_available_share": 1.0 - total(
            frames.series("unavailable_queries")
        ) / float(queries.sum()),
        "sim_vnodes_per_partition": float(
            (window(frames.series("vnodes_total")) / parts).mean()
        ),
    }


def disagreements(replays: Sequence[Replay]) -> List[str]:
    """Fact keys on which some replay differs from the first, and layer
    counts on which some traced replay differs from the first traced one."""
    def differing(rows: Sequence[Dict[str, object]]) -> set:
        return {
            key for row in rows[1:] for key in rows[0]
            if row[key] != rows[0][key]
        }

    traced = [r.layer_counts for r in replays if r.layer_counts is not None]
    return sorted(differing([r.facts for r in replays]) | differing(traced))


def envelope(passes: Sequence[Sequence[float]]) -> List[float]:
    """``env[i] = min_k t[k][i]`` over the passes' per-epoch times."""
    return [min(column) for column in zip(*passes)]


def calib_ms(replays: Sequence[Replay]) -> float:
    """Milliseconds per reference slice, from the slices' own envelope."""
    return statistics.fmean(envelope([r.calib_s for r in replays])) * 1e3


def host_slowdown(replays: Sequence[Replay]) -> float:
    """How much slower than the reference machine the host ran these
    replays: 1.0 there, about 1.9 in one of its slow phases."""
    return calib_ms(replays) / REFERENCE_SLICE_MS


def tail_percentile(samples: int) -> Optional[int]:
    """The highest of p99/p95/p90/p75 with >= 10 samples beyond it."""
    for q in (99, 95, 90, 75):
        if samples * (100 - q) >= 1000:
            return q
    return None


def end_to_end(replays: Sequence[Replay]
               ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The end-to-end metrics, plus how they were reduced (for the record)."""
    raw = envelope([r.step_s for r in replays])
    slowdown = host_slowdown(replays)
    env = [t / slowdown for t in raw]
    facts = replays[0].facts
    q = tail_percentile(len(env))
    # A window too short for any of them (``--epochs``) reports its max.
    tail = float(np.percentile(env, q)) if q is not None else max(env)
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in replays) / slowdown,
        "epochs_per_s": len(env) / sum(env),
        "epoch_ms_p50": statistics.median(env) * 1e3,
        "epoch_ms_tail": tail * 1e3,
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0,
        "telemetry_bytes": facts["telemetry_bytes"],
        "sim_sla_satisfied_share": facts["sim_sla_satisfied_share"],
        "sim_query_available_share": facts["sim_query_available_share"],
        "sim_vnodes_per_partition": facts["sim_vnodes_per_partition"],
    }
    reduction = {
        "replays": len(replays),
        "timed_epochs": len(env),
        "host_slowdown": slowdown,
        "host_calib_ms": calib_ms(replays),
        # As the clock read them, before the division by host_slowdown.
        "raw_envelope_s": sum(raw),
        "raw_envelope_ms": [t * 1e3 for t in raw],
        "raw_replay_s": [sum(r.step_s) for r in replays],
        "raw_setup_s": [r.setup_s for r in replays],
        "tail_percentile": f"p{q}" if q is not None else "max",
    }
    return metrics, reduction


def per_layer(untraced: Sequence[Replay], traced: Replay, tracer: Tracer,
              import_ms: float) -> Dict[str, float]:
    """The per-layer metrics: span totals, exact counters, overheads.

    Host times here are as the clock read them; ``host.calib_ms`` beside
    them says how fast the host was (:data:`REFERENCE_SLICE_MS` when it
    is the reference machine).
    """
    env_s = sum(envelope([r.step_s for r in untraced]))
    facts = traced.facts
    metrics: Dict[str, float] = dict(traced.layer_counts)
    totals = tracer.totals()
    for name in SPANS:
        metrics[f"{name}.self_ms"] = totals[name][1]
    metrics.update(facts["counters"])
    requests = facts["counters"]["serve.requests"]
    summary = facts["serving_summary"] or {}
    metrics["serve.requests_per_s"] = requests / env_s
    metrics["serve.request_success_share"] = (
        1.0 - facts["counters"]["serve.failures"] / requests
        if requests else 0.0
    )
    metrics["serve.sla_attainment"] = summary.get("sla_attainment", 0.0)
    metrics["serve.read_p99_ms"] = summary.get("read_p99_ms", 0.0)
    metrics["serve.write_p99_ms"] = summary.get("write_p99_ms", 0.0)
    # Self times partition the root spans' wall, so their sum is it.
    step_ms = sum(self_ms for _, self_ms in totals.values())
    metrics["trace_coverage_share"] = (
        1.0 - totals["sim.engine.step"][1] / step_ms
    )
    metrics["trace_overhead_share"] = sum(traced.step_s) / env_s - 1.0
    metrics["host.calib_ms"] = calib_ms(untraced)
    metrics["host.import_ms"] = import_ms
    return metrics
