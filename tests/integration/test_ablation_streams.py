"""Golden pins for the three ablation engines' frame streams.

The named-scenario digests and the per-scenario goldens all run the
*economic* decider; nothing there notices a change that only moves an
ablation.  This suite pins the full 40-epoch ``slashdot-spike`` frame
stream (flash crowd: expansion, contraction, migration hunts) under

* ``random_placement`` — the §II-C pass over an *impure* scorer
  (``best_is_pure = False``): one rng draw per ``best`` call that has a
  feasible candidate, so any skipped, memoized or added call — a rent
  floor proof leaking past its purity gate, say — shifts the draw
  stream and with it every later placement;
* ``static`` — fixed-degree successor placement, no §II-C pass;
* ``single_ring`` — the economic decider on an undifferentiated config.

The pins were generated on the commit *before* the clocked rent floors
landed (ISSUE 16) and must not be regenerated for a refactor;
regenerate (``PYTHONPATH=src python
tests/integration/test_ablation_streams.py``) only for a deliberate
behavioral change, and say so in the commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from golden_scenarios import build_config, build_events
from repro.baselines.random_placement import random_placement_decider
from repro.baselines.single_ring import undifferentiated
from repro.baselines.static import static_decider
from repro.sim.engine import Simulation
from repro.sim.framedump import frames_digest

PIN_PATH = Path(__file__).resolve().parent / "golden" / "ablation_streams.json"

SCENARIO = "slashdot-spike"


def _run(engine: str):
    config = build_config(SCENARIO)
    if engine == "single_ring":
        config = undifferentiated(config)
    events = build_events(SCENARIO, config)
    if engine == "random_placement":
        sim = Simulation(config, events=events,
                         decider_factory=random_placement_decider)
    elif engine == "static":
        sim = Simulation(config, events=events,
                         decider_factory=static_decider)
    else:
        sim = Simulation(config, events=events)
    sim.run()
    frames = list(sim.metrics)
    return {"epochs": len(frames), "digest": frames_digest(frames)}


ENGINES = ("random_placement", "static", "single_ring")

PINS = json.loads(PIN_PATH.read_text()) if PIN_PATH.exists() else {}


@pytest.mark.parametrize("engine", ENGINES)
def test_ablation_stream_matches_pin(engine):
    assert engine in PINS, (
        f"no pin for {engine!r} — regenerate: "
        f"PYTHONPATH=src python {Path(__file__).name}"
    )
    got = _run(engine)
    assert got == PINS[engine], (
        f"{engine}: frame stream changed — if deliberate, regenerate "
        f"ablation_streams.json and say so in the commit message"
    )


def test_ablations_differ_from_each_other():
    """Three distinct engines, three distinct streams — a pin file of
    identical digests would mean the factories were not applied."""
    assert len({pin["digest"] for pin in PINS.values()}) == len(ENGINES)


def main() -> None:
    pins = {engine: _run(engine) for engine in ENGINES}
    PIN_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    for engine, pin in pins.items():
        print(f"{engine}: {pin['epochs']} frames, {pin['digest'][:16]}")


if __name__ == "__main__":
    main()
