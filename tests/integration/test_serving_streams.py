"""Golden pins for the request path's own output streams.

The named-scenario digests cover the *economy* frame stream, which the
serving overlays leave untouched by design — so nothing there notices a
change to routing, quorum assembly, latency costing or the client
generators.  This suite pins what the request path itself produces, for
five registry scenarios at their full horizon under both epoch kernels:

* the full :class:`~repro.sim.metrics.ServingLog` frame series,
* ``SlaLedger.tenant_view()``,
* the front door's store counters (``stats.as_dict()`` and
  ``level_rows()``), its request/failure totals and lost-write count,
* where a data plane runs, its operation count (``history_ops``) and,
  in ``golden/dataplane_streams.json``, its ``DataPlaneFrame`` stream,
  store counters, consistency report, failures and lost writes.

The data plane is a second instance of the serving overlay, drawing one
more number per request than the pre-merge data plane whose request
history and store digests ``serving_streams.json`` still holds
(:data:`RETIRED`, no longer compared); ``dataplane_streams.json`` was
pinned when the overlays merged, and must agree across the two kernels.
Every other ``serving_streams.json`` entry is compared unchanged.

``serving-steady`` carries its own front door; the others get
:data:`FAULT_SERVING` attached — the overlay is an observer, so
attaching it moves nothing else.  Between them the faulty scenarios
drive every branch of the request path (:data:`FAULT_PATHS`): cut links
and parked/drained hints (``asym-partition-quorum``), false suspects
and sloppy-quorum handoff (``chaos-audit-7``), ghosts that time out
(``shaky-region-churn``).

The pins were generated on the commit *before* the resolve-once request
path landed and must not be regenerated for a refactor; regenerate
(``PYTHONPATH=src python tests/integration/test_serving_streams.py``)
only for a deliberate behavioral change, and say so in the commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.sim import specs
from repro.sim.config import ServingConfig
from repro.sim.engine import Simulation
from repro.sim.scenario import compile_spec

GOLDEN = Path(__file__).resolve().parent / "golden"
PIN_PATH = GOLDEN / "serving_streams.json"
PLANE_PIN_PATH = GOLDEN / "dataplane_streams.json"

KERNELS = ("vectorized", "scalar")

#: Scenario → front-door store counters that must be non-zero in its
#: pin, i.e. the fault paths the scenario is here to exercise.
FAULT_PATHS = {
    "serving-steady": (),
    "zipf-dataplane-steady": (),
    "asym-partition-quorum": (
        "replica_unreachable", "hints_parked", "hints_drained",
        "read_repairs", "read_failures",
    ),
    "chaos-audit-7": (
        "suspects_skipped", "handoff_writes", "hints_drained",
    ),
    "shaky-region-churn": ("replica_timeouts", "hints_parked"),
}

#: Front door attached to the scenarios that do not bring their own:
#: write-heavy enough that hints park and drain inside the horizon.
FAULT_SERVING = ServingConfig(
    requests_per_epoch=96, read_fraction=0.7, keyspace=64,
)


#: Pin entries of the data-plane overlay as it was before it became a
#: second front-door instance: its request history (no longer kept)
#: and store digest (superseded by ``dataplane_streams.json``).
RETIRED = ("history", "plane_store")


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def _store_rows(store):
    return (
        sorted(store.stats.as_dict().items()),
        sorted(store.stats.level_rows().items()),
    )


def run_streams(name: str, kernel: str) -> dict:
    """Run one scenario to its horizon; digest every request stream."""
    compiled = compile_spec(specs.get(name).spec)
    config = dataclasses.replace(compiled.config, kernel=kernel)
    if config.serving is None:
        config = dataclasses.replace(config, serving=FAULT_SERVING)
    sim = Simulation(config, events=compiled.events())
    sim.run()
    front = sim.serving
    out = {
        "serving_log": _digest(
            [dataclasses.astuple(frame) for frame in sim.serving_log]
        ),
        "sla": _digest(front.sla.tenant_view()),
        "front_store": _digest(_store_rows(front.store)),
        "front_counters": {
            key: value
            for key, value in front.store.stats.as_dict().items() if value
        },
        "lost_writes": len(front.lost_writes()),
        "requests": front.frontier.tally.operations,
        "failures": front.frontier.tally.failed_ops,
    }
    plane = sim.data_plane
    if plane is not None:
        out["history_ops"] = plane.frontier.tally.operations
        out["plane"] = {
            "frames": _digest([
                dataclasses.astuple(frame)
                for frame in sim.robustness.data_plane
            ]),
            "store": _digest(_store_rows(plane.store)),
            "report": _digest(plane.consistency_report()),
            "failures": plane.frontier.tally.failed_ops,
            "lost_writes": len(plane.lost_writes()),
        }
    return out


def _load(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


PINS = _load(PIN_PATH)
PLANE_PINS = _load(PLANE_PIN_PATH)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", sorted(FAULT_PATHS))
def test_serving_streams_match_pins(name, kernel):
    key = f"{name}/{kernel}"
    pin = PINS.get(key)
    assert pin is not None, f"no pin for {key}"
    out = run_streams(name, kernel)
    assert out.pop("plane", None) == PLANE_PINS.get(key)
    assert out == {k: v for k, v in pin.items() if k not in RETIRED}


def test_data_plane_pins_agree_across_kernels():
    """Every scenario that ran a data plane has its pins, and the two
    epoch kernels drove that overlay to the same state."""
    planes = sorted(key for key, pin in PINS.items() if "history_ops" in pin)
    assert planes and planes == sorted(PLANE_PINS)
    for name in {key.split("/")[0] for key in planes}:
        assert (
            PLANE_PINS[f"{name}/vectorized"] == PLANE_PINS[f"{name}/scalar"]
        ), name


@pytest.mark.parametrize("name", sorted(FAULT_PATHS))
def test_pins_cover_their_fault_paths(name):
    """A pin is only worth having if the paths it is for actually ran."""
    counters = PINS[f"{name}/vectorized"]["front_counters"]
    assert counters["reads"] > 0 and counters["writes"] > 0
    for key in FAULT_PATHS[name]:
        assert counters.get(key, 0) > 0, (name, key)


def main() -> None:
    pins, plane_pins = {}, {}
    for name in sorted(FAULT_PATHS):
        for kernel in KERNELS:
            key = f"{name}/{kernel}"
            pins[key] = run_streams(name, kernel)
            plane = pins[key].pop("plane", None)
            if plane is not None:
                plane_pins[key] = plane
            print(name, kernel, pins[key]["front_counters"])
    for path, data in ((PIN_PATH, pins), (PLANE_PIN_PATH, plane_pins)):
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
