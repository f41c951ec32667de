"""The benchmark's workloads and the guards that keep them honest.

A workload is a ``ScenarioSpec`` JSON under ``workloads/`` (loaded with
``repro.sim.scenario.load_spec`` — the declarative path, never the
legacy ``*_scenario`` factories) plus the two facts a spec cannot hold:
how many of its epochs are untimed warm-up (part of ``setup_s``), and
which layer it exists to load.  Each workload asserts it still loads
that layer: a spec edit or an engine change that quietly turns
``faults-churn`` into a fault-free run must fail the run, not shift a
number.  Guards read only the run's exact counters and span call counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping

SPEC_DIR = Path(__file__).resolve().parent / "workloads"

#: Counter / span-name prefixes of the layers only overlay workloads run.
OVERLAY_LAYERS = (
    "net.", "serve.", "ring.router.", "store.quorum.", "store.hints.",
    "store.dataplane.",
)


def _econ_guard(min_surge: float) -> Callable[[Mapping, Mapping], List[str]]:
    def guard(facts: Mapping, layer: Mapping) -> List[str]:
        problems = [
            f"{name} = {value}, expected 0 (no overlay on econ-*)"
            for name, value in sorted(layer.items())
            if name.startswith(OVERLAY_LAYERS) and value != 0
        ]
        surge = facts["peak_queries"] / facts["base_queries"]
        if surge < min_surge:
            problems.append(
                f"peak/base query ratio {surge:.1f} < {min_surge}"
            )
        return problems
    return guard


def _serve_guard(facts: Mapping, layer: Mapping) -> List[str]:
    problems = []
    offered = facts["requests_offered"]
    if layer["serve.requests"] != offered:
        problems.append(
            f"serve.requests {layer['serve.requests']} != offered {offered}"
        )
    share = layer["serve.reads"] / max(1, layer["serve.requests"])
    if abs(share - facts["read_fraction"]) > 0.01:
        problems.append(
            f"read share {share:.4f} not within 1% of spec "
            f"{facts['read_fraction']}"
        )
    if layer["serve.lost_writes"] != 0:
        problems.append(f"serve.lost_writes = {layer['serve.lost_writes']}")
    return problems


def _faults_guard(facts: Mapping, layer: Mapping) -> List[str]:
    needed = (
        "net.messages.dropped_partition", "store.hints.parked",
        "ring.splits", "cluster.servers_joined", "cluster.servers_left",
    )
    problems = [
        f"{name} = {layer[name]}, expected > 0"
        for name in needed if layer[name] <= 0
    ]
    if facts["sim_ops_failed"] <= 0:
        problems.append("sim_ops_failed = 0: the faults cost nothing")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    #: Untimed epochs stepped before the timed window; part of set-up.
    warmup: int
    #: ``guard(facts, layer) -> problems`` — see the module docstring.
    guard: Callable[[Mapping, Mapping], List[str]]

    @property
    def spec_path(self) -> Path:
        return SPEC_DIR / f"{self.name}.json"


#: Why each exists is in ``BENCHMARK.json`` (``why``) and the README.
#: The specs keep the paper's parameters; only the windows are cut, as
#: far as five replays need to fit the time cap (README, "Workloads").
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("econ-spike", 0, _econ_guard(min_surge=30.0)),
        # Its window ends 9 epochs into the 25-epoch ramp to 61x.
        Workload("econ-scale10", 0, _econ_guard(min_surge=15.0)),
        # Warm up through the bootstrap: the timed economy is nearly idle.
        Workload("serve-read", 20, _serve_guard),
        # Two bootstrap epochs of warm-up, so set-up is not a 30 ms blip.
        Workload("faults-churn", 2, _faults_guard),
    )
}
