"""Tier-1 smoke test of the end-to-end benchmark command.

Runs ``BENCHMARK.json``'s command on every workload with a 4-epoch
window and 2 replays (shape guards apply only at a spec's full window,
so the truncated runs skip them and say so) and checks the contract the
manifest declares: every workload and metric name is emitted, with its
unit, and nothing but ``--out`` is written.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(workload: str, trace: int, out: Path, cwd: Path = ROOT,
         seed: int = 0):
    assert MANIFEST["command"][0] == "python3"
    done = subprocess.run(
        [sys.executable, *MANIFEST["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--epochs", "4", "--replays", "2", "--out", str(out)],
        capture_output=True, text=True, cwd=cwd,
    )
    return done


def _git_status():
    done = subprocess.run(
        ["git", "status", "--porcelain"],
        capture_output=True, text=True, cwd=ROOT,
    )
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module", autouse=True)
def hermetic():
    """The benchmark leaves the work tree as it found it."""
    before = _git_status()
    yield
    if before is not None:  # not every checkout is a git repository
        assert _git_status() == before


def _declared(kind: str):
    return {m["name"]: m["unit"] for m in MANIFEST[kind]}


def _check_result(done, kind: str):
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    # ``correct`` covers the output checks: every replay, traced ones
    # included, agreed on digest, summaries and counters.
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    emitted = {n: m["unit"] for n, m in result["metrics"].items()}
    assert emitted == _declared(kind)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    return result


def test_manifest_names_are_well_formed():
    names = WORKLOADS + [
        m["name"] for kind in ("end_to_end", "per_layer")
        for m in MANIFEST[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert "setup_s" in _declared("end_to_end")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_metric(workload, tmp_path):
    done = _run(workload, 1, tmp_path)
    result = _check_result(done, "per_layer")
    assert "guards skipped (truncated window)" in done.stdout
    assert result["metrics"]["sim.engine.step.calls"]["value"] == 4
    assert result["metrics"]["trace_coverage_share"]["value"] > 0.5
    # The run's record also carries the end-to-end metrics of its
    # untraced replays, and the spans were written out.
    record = json.loads((tmp_path / f"result-{workload}.json").read_text())
    assert sorted(record["end_to_end"]) == sorted(_declared("end_to_end"))
    assert all(v > 0 for v in record["end_to_end"].values())
    trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
    assert len(trace["name"]) == len(trace["parent"]) > 4


def test_untraced_run_emits_end_to_end_metrics(tmp_path):
    done = _run("econ-spike", 0, tmp_path, seed=5)
    result = _check_result(done, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / "trace-econ-spike.json").exists()
    # The manifest's command pins the seed the appended --seed asks for.
    record = json.loads((tmp_path / "result-econ-spike.json").read_text())
    assert (record["seed"], record["seed_requested"]) == (0, 5)


def test_fails_without_the_simulator_source(tmp_path):
    """Only BENCHMARK.json + the benchmark's own paths: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    done = _run("econ-spike", 0, tmp_path / "out", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
