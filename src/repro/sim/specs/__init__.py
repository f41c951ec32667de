"""The named-scenario registry: every scenario as declarative data.

Each submodule contributes a ``SPECS`` tuple of
:class:`repro.sim.scenario.ScenarioEntry` rows; this package assembles
them into :data:`REGISTRY` keyed by scenario name.  A registry entry
pairs the spec with ``pin_epochs`` — the short horizon
``tests/integration/test_named_scenarios.py`` runs it for when pinning
its frame digest (shorter than the spec's own horizon so the whole
catalog stays cheap to sweep).

The lint gate (``tests/test_lint.py``) enforces that every module in
this package contributes a non-empty ``SPECS`` reachable from
:data:`REGISTRY`, and that every registry name has a committed golden
digest — a scenario cannot be added without being pinned.

Run any entry from the command line::

    PYTHONPATH=src python -m repro.cli scenario run paper-uniform
"""

from __future__ import annotations

from typing import Dict, List

from repro.sim.scenario import ScenarioEntry, SpecError

from repro.sim.specs import examples, faults, growth, paper, surges
from repro.sim.specs.paper import paper_spec, saturation_spec, slashdot_spec

MODULES = (paper, examples, surges, growth, faults)

REGISTRY: Dict[str, ScenarioEntry] = {}
for _module in MODULES:
    for _entry in _module.SPECS:
        if _entry.name in REGISTRY:
            raise SpecError(f"duplicate scenario name {_entry.name!r}")
        REGISTRY[_entry.name] = _entry


def names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(REGISTRY)


def get(name: str) -> ScenarioEntry:
    """Look up one registry entry by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise SpecError(
            f"unknown scenario {name!r} (have: {', '.join(names())})"
        ) from None
