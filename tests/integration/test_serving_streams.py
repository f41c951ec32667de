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
* where a data plane runs, the ``DataPlane.history`` tuple stream and
  that store's counters.

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

PIN_PATH = Path(__file__).resolve().parent / "golden" / "serving_streams.json"

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
        "requests": front.total_requests,
        "failures": front.total_failures,
    }
    plane = sim.data_plane
    if plane is not None:
        out["history"] = _digest(
            [dataclasses.astuple(op) for op in plane.history]
        )
        out["history_ops"] = len(plane.history)
        out["plane_store"] = _digest(_store_rows(plane.store))
    return out


PINS = json.loads(PIN_PATH.read_text()) if PIN_PATH.exists() else {}


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("name", sorted(FAULT_PATHS))
def test_serving_streams_match_pins(name, kernel):
    pin = PINS.get(f"{name}/{kernel}")
    assert pin is not None, f"no pin for {name}/{kernel}"
    assert run_streams(name, kernel) == pin


@pytest.mark.parametrize("name", sorted(FAULT_PATHS))
def test_pins_cover_their_fault_paths(name):
    """A pin is only worth having if the paths it is for actually ran."""
    counters = PINS[f"{name}/vectorized"]["front_counters"]
    assert counters["reads"] > 0 and counters["writes"] > 0
    for key in FAULT_PATHS[name]:
        assert counters.get(key, 0) > 0, (name, key)


def main() -> None:
    pins = {}
    for name in sorted(FAULT_PATHS):
        for kernel in KERNELS:
            pins[f"{name}/{kernel}"] = run_streams(name, kernel)
            print(name, kernel, pins[f"{name}/{kernel}"]["front_counters"])
    PIN_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")


if __name__ == "__main__":
    main()
