"""Frame-by-frame pins for the three side telemetry streams.

The goldens and named digests pin the :class:`EpochFrame` stream; the
:class:`ControlPlaneFrame`, :class:`DataPlaneFrame` and
:class:`ServingFrame` streams were only ever pinned through printed
summaries.  This suite pins, for the opening epochs of two e2e
workloads under both epoch kernels: the canonical ``framedump`` digest
of every stream, the three ``summary()`` dicts and ``message_totals()``
key for key, the ``nbytes`` the benchmark's ``telemetry_bytes`` adds up,
and the bytes of ``series(name)`` for every scalar field and derived
property of every frame type.

``golden/telemetry_streams.json`` was generated on the parent of the
commit that collapsed the three logs into one generic frame store (the
last tree with four hand-written stores).  Its data-plane entries
(``data_plane``, ``data_plane_summary`` and the summary's ``data_plane``
block) were re-pinned once, when the data plane became a second
instance of the serving overlay and drew one more number per request;
every other entry is the original pin.  It must not be regenerated for
a refactor; regenerate
(``PYTHONPATH=src python tests/integration/test_telemetry_streams.py``)
only for a deliberate behavioral change, and say so in the commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.sim.engine import Simulation
from repro.sim.framedump import dump_frames
from repro.sim.scenario import compile_spec, load_spec

REPO = Path(__file__).resolve().parents[2]
PIN_PATH = Path(__file__).resolve().parent / "golden" / "telemetry_streams.json"

KERNELS = ("vectorized", "scalar")

#: e2e workload → epochs replayed (enough of ``faults-churn`` to cover
#: its loss, cut, flap and leave-wave windows).
WINDOWS = {"faults-churn": 14, "serve-read": 8}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _series_names(frame) -> list:
    """Every scalar field and derived property of one frame's type."""
    cls = type(frame)
    return [
        f.name for f in dataclasses.fields(cls) if f.type in ("int", "float")
    ] + [
        name for name, value in vars(cls).items()
        if isinstance(value, property)
    ]


def _stream(frames, series) -> dict:
    frames = list(frames)
    out = {"frames": len(frames), "dump": _sha(dump_frames(frames).encode())}
    if frames:
        out["series"] = {
            name: _sha(series(name).tobytes())
            for name in _series_names(frames[0])
        }
    return out


def run_telemetry(workload: str, kernel: str) -> dict:
    """Replay one workload's opening window; fingerprint every stream."""
    compiled = compile_spec(
        load_spec(REPO / "benchmarks/e2e/workloads" / f"{workload}.json")
    )
    sim = Simulation(
        dataclasses.replace(compiled.config, kernel=kernel),
        events=compiled.events(),
    )
    sim.run(WINDOWS[workload])
    out = {
        "epoch": _stream(sim.metrics, sim.metrics.series),
        "metrics_nbytes": sim.metrics.nbytes,
    }
    log = sim.robustness
    if log is not None:
        out["control"] = _stream(log, log.series)
        out["data_plane"] = _stream(log.data_plane, log.data_plane_series)
        out["robustness_summary"] = log.summary()
        out["data_plane_summary"] = log.data_plane_summary()
        out["message_totals"] = log.message_totals()
    if sim.serving_log is not None:
        out["serving"] = _stream(sim.serving_log, sim.serving_log.series)
        out["serving_summary"] = sim.serving_log.summary()
        out["serving_nbytes"] = sim.serving_log.nbytes
    return out


PINS = json.loads(PIN_PATH.read_text()) if PIN_PATH.exists() else {}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("workload", sorted(WINDOWS))
def test_telemetry_streams_match_parent_pins(workload, kernel):
    """Pins generated on the parent commit (four hand-written stores):
    every stream, summary, series and byte count the generic store
    reproduces must equal what those produced, bit for bit."""
    pin = PINS.get(f"{workload}/{kernel}")
    assert pin is not None, f"no pin for {workload}/{kernel}"
    # Through JSON so tuples and int keys compare as the file holds them.
    assert json.loads(json.dumps(run_telemetry(workload, kernel))) == pin


def test_pins_cover_every_stream():
    """The pin is only a fence if all four streams actually flowed."""
    pin = PINS["faults-churn/vectorized"]
    for stream in ("epoch", "control", "data_plane", "serving"):
        assert pin[stream]["frames"] == WINDOWS["faults-churn"], stream
    assert pin["message_totals"] and pin["data_plane_summary"]["levels"]
    assert "control" not in PINS["serve-read/vectorized"]


def main() -> None:
    pins = {}
    for workload in sorted(WINDOWS):
        for kernel in KERNELS:
            pins[f"{workload}/{kernel}"] = run_telemetry(workload, kernel)
            print(workload, kernel, sorted(pins[f"{workload}/{kernel}"]))
    PIN_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")


if __name__ == "__main__":
    main()
