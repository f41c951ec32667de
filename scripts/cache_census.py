#!/usr/bin/env python
"""Cache census: how often each memo ``src/`` keeps is asked, how often
it builds, and what one build costs.

Every surviving memo is wrapped from outside (class attributes swapped
for the run, the way ``benchmarks/e2e/bench_trace.py`` wraps span
sites) and each ``benchmarks/e2e/workloads/*.json`` spec runs once over
its full horizon, untimed.  A row prints asks, builds (asks that
computed the value) and mean ms per build; ``(asks − builds) ×
ms/build`` is what the memo saves a run.  The ring layout's cost is its
construction plus every table derived on first read.

Usage:  python scripts/cache_census.py [--seed S] [workload ...]

Takes under a minute; exits 0 whatever it finds (it reports, it does
not gate).
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "benchmarks" / "e2e" / "workloads"
LAYOUT = "RingSet.layout (one ring layout)"
SHARES = "WorkloadMix._share_cache"


def sites():
    """``(row, owner, attribute, role)`` per call site.  Roles: count an
    ``"ask"``; count and time a ``"build"`` (a ``"scoped"`` one only
    inside the row's ``"scope"`` call); time a ``"cost"``; or
    ``miss(self, *args)``: an ask, a build if the memo lacks it."""
    from repro.core.availability import AvailabilityIndex
    from repro.core.board import PriceBoard
    from repro.net.model import _ActiveCut
    from repro.ring.virtualring import RingLayout, RingSet
    from repro.workload.mix import WorkloadMix
    from repro.workload.popularity import PopularityMap

    yield LAYOUT, RingSet, "layout", "ask"
    yield LAYOUT, RingLayout, "__init__", "build"
    for value in vars(RingLayout).values():
        if isinstance(value, cached_property):
            yield LAYOUT, value, "func", "cost"
    yield "PriceBoard._stats", PriceBoard, "_price_stats", (
        lambda board: board._stats is None)
    yield "PriceBoard.price_vector fast path", PriceBoard, "price_vector", (
        lambda board, ids: board._vector is None or ids != board._ids)
    yield "AvailabilityIndex.contribution", AvailabilityIndex, (
        "contribution"), (lambda index, pid, sid, servers:
                          index._contrib.get(pid, {}).get(sid) is None)
    yield "_ActiveCut._side", _ActiveCut, "in_a", (
        lambda cut, cloud, sid: sid in cloud and sid not in cut._side)
    # A draw asks the share memo once per app with queries; a miss
    # costs one ``shares`` call (insert routing calls it outside draws).
    yield SHARES, WorkloadMix, "draw", "scope"
    yield SHARES, PopularityMap, "shares", "scoped"


@contextmanager
def wrapped(tallies):
    undo, scopes = [], set()

    def wrap(row, fn, role):
        tally = tallies.setdefault(row, SimpleNamespace(asks=0, builds=0,
                                                        ns=0))

        def call(*args, **kwargs):
            if role == "scope":
                scopes.add(row)
                load = fn(*args, **kwargs)
                scopes.discard(row)
                tally.asks += sum(map(bool, load.per_app.values()))
                return load
            tally.asks += role == "ask" or callable(role)
            build = (role(*args, **kwargs) if callable(role)
                     else role in ("build", "cost")
                     or (role == "scoped" and row in scopes))
            if not build:
                return fn(*args, **kwargs)
            tally.builds += role != "cost"
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tally.ns += time.perf_counter_ns() - start
        return call

    try:
        for row, owner, attr, role in sites():
            original = vars(owner).get(attr, getattr(owner, attr, None))
            undo.append((owner, attr, original))
            setattr(owner, attr, wrap(row, original, role))
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def census(name: str, seed: int) -> None:
    from repro.core.agent import _ledger_specs
    from repro.sim.scenario import compile_spec, load_spec

    spec = load_spec(SPECS / f"{name}.json").with_operations(seed=seed)
    tallies = {}
    _ledger_specs.cache_clear()
    started = time.perf_counter()
    with wrapped(tallies):
        sim = compile_spec(spec).simulation()
        sim.run()
    info = _ledger_specs.cache_info()
    slots = sim.partition_index
    print(f"\n{name} (seed {seed}, {spec.operations.epochs} epochs, "
          f"{time.perf_counter() - started:.1f} s; partition slots "
          f"{'-' if slots is None else len(slots)})")
    print(f"  {'memo':<40} {'asks':>10} {'builds':>8} {'ms/build':>9}")
    for row, tally in tallies.items():
        per = tally.ns / 1e6 / tally.builds if tally.builds else 0.0
        print(f"  {row:<40} {tally.asks:>10} {tally.builds:>8} {per:>9.3f}")
    print(f"  {'_ledger_specs (lru_cache)':<40} "
          f"{info.hits + info.misses:>10} {info.misses:>8} {'-':>9}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", default=sorted(
        path.stem for path in SPECS.glob("*.json")))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    for name in args.workloads:
        census(name, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
