"""Epoch-throughput measurement for the vectorized epoch kernel.

One measurement primitive shared by the ``repro profile`` CLI
subcommand and the ``benchmarks/perf`` regression harness: build a
scenario, run it under a wall-clock timer, report epochs/second.  The
kernel comparison runs the same seeded scenario under the production
(``vectorized``) and reference (``scalar``) kernels — which produce the
identical ``EpochFrame`` stream, so the ratio is a pure like-for-like
throughput number.
"""

from __future__ import annotations

import dataclasses
import operator
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.policy import KERNELS
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.framedump import frames_digest


class ProfilingError(ValueError):
    """Raised for invalid measurement requests."""


#: Decider run totals a :class:`ThroughputResult` carries as deltas.
PASS_COUNTERS = (
    "floor_asks", "floor_proofs", "ceil_asks", "ceil_proofs",
    "ceil_builds", "source_first_asks", "source_first_proofs",
)
_read_counters = operator.attrgetter(*PASS_COUNTERS)
#: Front-door run totals carried the same way (zero without serving).
SERVING_COUNTERS = ("route_compiles", "route_reuses", "read_plan_compiles")


def _read_serving_counters(sim: Simulation) -> Tuple[int, int, int]:
    front = sim.serving
    if front is None:
        return (0, 0, 0)
    return (front.router.route_compiles, front.router.route_reuses,
            front.store.read_plan_compiles)


@dataclass(frozen=True)
class ThroughputResult:
    """One timed simulation run."""

    kernel: str
    epochs: int
    seconds: float
    total_queries: int
    #: Peak resident bytes of the run's stored frame stream (the
    #: columnar FrameStore only grows, so end-of-run is the peak).
    frame_store_bytes: int = 0
    #: Per-code message totals when the run carried the gossip control
    #: plane (``config.net``), else None.
    messages: Optional[Dict[str, Dict[str, int]]] = None
    #: Mutation/steady split (``measure_throughput(split=True)``): a
    #: *mutation epoch* is one whose step moved the cloud or catalog
    #: version (churn waves, transfers, splits) — exactly the epochs
    #: that invalidate the flat incidence cache; the remainder are
    #: steady-state epochs that reuse it whole.
    mutation_epochs: int = 0
    mutation_seconds: float = 0.0
    steady_epochs: int = 0
    steady_seconds: float = 0.0
    #: SHA-256 of the timed window's frame stream: kernels measured on
    #: one scenario must agree on it, so a harness can assert that
    #: exactly instead of asserting a wall-clock ratio.
    frames_digest: str = ""
    #: §II-C skip queries put to the scorer's rent floor in the timed
    #: window (migration hunts + expansions) and how many it proved
    #: fruitless; the rest went on to an eq. 3 scan.  Zero under the
    #: scalar kernel, which never asks.
    floor_asks: int = 0
    floor_proofs: int = 0
    #: Eq. 3 argmaxes asked (every ``best`` call) / ceiling answers /
    #: O(S) certificate builds; migration hunts put to the source-first
    #: refusal / refused.
    ceil_asks: int = 0
    ceil_proofs: int = 0
    ceil_builds: int = 0
    source_first_asks: int = 0
    source_first_proofs: int = 0
    #: Front-door routes compiled / handed out again inside serving
    #: windows, and quorum read plans compiled, in the timed window.
    route_compiles: int = 0
    route_reuses: int = 0
    read_plan_compiles: int = 0

    @property
    def epochs_per_sec(self) -> float:
        if self.seconds <= 0:
            return float("inf")
        return self.epochs / self.seconds

    @property
    def mutation_epochs_per_sec(self) -> Optional[float]:
        if not self.mutation_epochs:
            return None
        if self.mutation_seconds <= 0:
            return float("inf")
        return self.mutation_epochs / self.mutation_seconds

    @property
    def steady_epochs_per_sec(self) -> Optional[float]:
        if not self.steady_epochs:
            return None
        if self.steady_seconds <= 0:
            return float("inf")
        return self.steady_epochs / self.steady_seconds


def measure_throughput(config: SimConfig, *,
                       epochs: Optional[int] = None,
                       warmup_epochs: int = 0,
                       repeats: int = 1,
                       events_factory: Optional[Callable[[], object]] = None,
                       split: bool = False) -> ThroughputResult:
    """Best-of-``repeats`` wall-clock throughput of one scenario.

    Construction cost (cloud build, seeding) is excluded — the harness
    tracks the *epoch loop*, which is what scales with horizon length.
    ``warmup_epochs`` run untimed first, so steady-state measurements
    can skip the replication bootstrap (the first epochs after the
    single-replica seeding are transfer-bound in any kernel).  Best-of
    is the standard perf-measurement choice: every slower run is the
    same work plus scheduler noise.

    ``events_factory`` builds a fresh :class:`EventSchedule` per repeat
    (schedules are stateful — rng, log — so one instance cannot be
    replayed); ``split=True`` steps the timed window one epoch at a
    time and classifies each as mutation vs steady by whether the
    cloud/catalog versions moved, filling the result's split fields.
    """
    if repeats < 1:
        raise ProfilingError(f"repeats must be >= 1, got {repeats}")
    if warmup_epochs < 0:
        raise ProfilingError(
            f"warmup_epochs must be >= 0, got {warmup_epochs}"
        )
    horizon = config.epochs if epochs is None else epochs
    if horizon < 1:
        raise ProfilingError(f"epochs must be >= 1, got {horizon}")
    best: Optional[ThroughputResult] = None
    for __ in range(repeats):
        if events_factory is not None:
            sim = Simulation(config, events=events_factory())
        else:
            sim = Simulation(config)
        if warmup_epochs:
            sim.run(warmup_epochs)
        decider = sim.decider
        counters0 = _read_counters(decider) + _read_serving_counters(sim)
        mut_epochs = steady_count = 0
        mut_seconds = steady_seconds = 0.0
        if split:
            perf_counter = time.perf_counter
            start = perf_counter()
            for __e in range(horizon):
                ver = (sim.cloud.version, sim.catalog.version)
                t0 = perf_counter()
                sim.step()
                dt = perf_counter() - t0
                if (sim.cloud.version, sim.catalog.version) != ver:
                    mut_epochs += 1
                    mut_seconds += dt
                else:
                    steady_count += 1
                    steady_seconds += dt
            elapsed = perf_counter() - start
        else:
            start = time.perf_counter()
            sim.run(horizon)
            elapsed = time.perf_counter() - start
        frames = list(sim.metrics)[-horizon:]
        result = ThroughputResult(
            kernel=config.kernel,
            epochs=horizon,
            seconds=elapsed,
            total_queries=int(sum(f.total_queries for f in frames)),
            frame_store_bytes=sim.metrics.nbytes,
            messages=(
                sim.robustness.message_totals()
                if sim.robustness is not None else None
            ),
            mutation_epochs=mut_epochs,
            mutation_seconds=mut_seconds,
            steady_epochs=steady_count,
            steady_seconds=steady_seconds,
            frames_digest=frames_digest(frames),
            **{
                name: now - base
                for name, now, base in zip(
                    PASS_COUNTERS + SERVING_COUNTERS,
                    _read_counters(decider) + _read_serving_counters(sim),
                    counters0,
                )
            },
        )
        if best is None or result.seconds < best.seconds:
            best = result
    assert best is not None
    return best


def compare_kernels(config: SimConfig, *,
                    epochs: Optional[int] = None,
                    warmup_epochs: int = 0,
                    repeats: int = 1,
                    kernels: Tuple[str, ...] = KERNELS,
                    events_factory: Optional[Callable[[], object]] = None,
                    split: bool = False
                    ) -> Dict[str, ThroughputResult]:
    """Measure the same scenario under each kernel."""
    results: Dict[str, ThroughputResult] = {}
    for kernel in kernels:
        cfg = dataclasses.replace(config, kernel=kernel)
        results[kernel] = measure_throughput(
            cfg, epochs=epochs, warmup_epochs=warmup_epochs,
            repeats=repeats, events_factory=events_factory, split=split,
        )
    return results


def speedup(results: Dict[str, ThroughputResult]) -> Optional[float]:
    """Vectorized-over-scalar throughput ratio, when both were run."""
    fast = results.get("vectorized")
    slow = results.get("scalar")
    if fast is None or slow is None:
        return None
    if slow.epochs_per_sec <= 0:
        return None
    return fast.epochs_per_sec / slow.epochs_per_sec
