"""Outside-in span tracer for the traced replay.

Layers are measured from the benchmark's own files: :func:`instrumented`
replaces the call sites listed in :func:`span_sites` — instance
attributes on one ``Simulation``'s collaborators, the
``repro.sim.engine.update_board`` module reference and the class-level
``PlacementScorer.best`` / ``preload_shortlists`` — with wrappers that
record one span per call, and puts every original back on exit.  Nothing
under ``src/`` changes, and end-to-end metrics never come from a traced
replay.

A span is ``(name, parent span, trace id, start, end)``; the trace id is
the timed epoch the call ran in, so all spans of one ``sim.step()`` share
it.  A span's *self time* is its duration minus the part its child spans
cover, which makes the per-layer ``self_ms`` columns add up to the
traced wall and leaves ``sim.engine.step.self_ms`` as the residual no
wrapper covers.

To add a span: append its name to :data:`SPANS`, its call site to
:func:`span_sites`, and ``<name>.calls`` / ``<name>.self_ms`` to
``per_layer`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: Every span the traced replay can record, outermost phase first.  A
#: layer a workload does not build (no ``net``, no front door) reports
#: zero calls — the shape guards rely on that.
SPANS: Tuple[str, ...] = (
    "sim.engine.step",
    "cluster.events.apply",
    "net.membership.run_membership_phase",
    "net.membership.publish_prices",
    "core.board.update_board",
    "workload.mix.draw",
    "core.decision.settle",
    "core.decision.decide",
    "core.placement.best",
    "core.placement.preload_shortlists",
    "store.transfer.execute_batch",
    "store.transfer.replicate",
    "sim.engine.apply_inserts",
    "sim.engine.apply_splits",
    "store.dataplane.step",
    "serve.frontend.step",
    "serve.loadgen.draw",
    "ring.router.route_partition",
    "store.quorum.get",
    "store.quorum.put",
    "store.quorum.drain_hints",
    "store.quorum.anti_entropy",
    "serve.sla.record",
    "sim.engine.collect",
    "sim.metrics.append",
    "core.agent.maybe_compact",
)


class Tracer:
    """In-memory span store; written out once, when the run ends."""

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {name: i for i, name in enumerate(SPANS)}
        #: One row per span, parents before children:
        #: ``(name id, parent row or -1, trace id, start ns, end ns, self ns)``.
        self.rows: List[Tuple[int, int, int, int, int, int]] = []
        #: Set by the replay loop before each timed ``sim.step()``.
        self.trace_id = -1
        self._open: List[List[int]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as one ``name`` span per call."""
        name_id = self._ids[name]
        rows = self.rows
        open_spans = self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            row = len(rows)
            rows.append(None)  # reserve: parents sort before children
            frame = [row, 0]  # [own row, ns covered by child spans]
            open_spans.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # Layers raise in normal operation (RoutingError,
                # QuorumError), so the span closes on every exit path.
                end = clock()
                open_spans.pop()
                parent = -1
                if open_spans:
                    above = open_spans[-1]
                    above[1] += end - start
                    parent = above[0]
                rows[row] = (name_id, parent, self.trace_id, start, end,
                             end - start - frame[1])

        return traced

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """``span name -> (calls, self time in ms)`` over every row."""
        calls = [0] * len(SPANS)
        self_ns = [0] * len(SPANS)
        for name_id, _, _, _, _, own in self.rows:
            calls[name_id] += 1
            self_ns[name_id] += own
        return {
            name: (calls[i], self_ns[i] / 1e6) for i, name in enumerate(SPANS)
        }

    def dump(self) -> Dict[str, object]:
        """The span store as JSON-able columns (times relative, in µs)."""
        origin = self.rows[0][3] if self.rows else 0
        columns = list(zip(*self.rows)) if self.rows else [()] * 6
        return {
            "names": list(SPANS),
            "name": list(columns[0]),
            "parent": list(columns[1]),
            "trace_id": list(columns[2]),
            "start_us": [(t - origin) // 1000 for t in columns[3]],
            "end_us": [(t - origin) // 1000 for t in columns[4]],
            "self_us": [t // 1000 for t in columns[5]],
        }


def span_sites(sim) -> Iterator[Tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every call site ``sim`` has."""
    import repro.sim.engine as engine
    from repro.core.placement import PlacementScorer

    yield sim, "step", "sim.engine.step"
    yield sim.events, "apply", "cluster.events.apply"
    service = sim.membership_service
    if service is not None:
        yield service, "run_membership_phase", (
            "net.membership.run_membership_phase"
        )
        yield service, "publish_prices", "net.membership.publish_prices"
    yield engine, "update_board", "core.board.update_board"
    yield sim.mix, "draw", "workload.mix.draw"
    yield sim.decider, "settle", "core.decision.settle"
    yield sim.decider, "decide", "core.decision.decide"
    yield PlacementScorer, "best", "core.placement.best"
    yield PlacementScorer, "preload_shortlists", (
        "core.placement.preload_shortlists"
    )
    yield sim.transfers, "execute_batch", "store.transfer.execute_batch"
    yield sim.transfers, "replicate", "store.transfer.replicate"
    yield sim, "_apply_inserts", "sim.engine.apply_inserts"
    yield sim, "_apply_splits", "sim.engine.apply_splits"
    stores = []
    if sim.data_plane is not None:
        yield sim.data_plane, "step", "store.dataplane.step"
        stores.append(sim.data_plane.store)
    front = sim.serving
    if front is not None:
        yield front, "step", "serve.frontend.step"
        if front.loadgen is not None:
            yield front.loadgen, "draw", "serve.loadgen.draw"
        yield front.router, "route_partition", "ring.router.route_partition"
        yield front.sla, "record", "serve.sla.record"
        stores.append(front.store)
    for store in stores:
        for method in ("get", "put", "drain_hints", "anti_entropy"):
            yield store, method, f"store.quorum.{method}"
    yield sim, "_collect", "sim.engine.collect"
    yield sim.metrics, "append", "sim.metrics.append"
    yield sim.registry, "maybe_compact", "core.agent.maybe_compact"


@contextmanager
def instrumented(sim, tracer: Tracer):
    """Wrap every :func:`span_sites` call site; restore them all on exit."""
    undo = []
    try:
        for owner, attr, name in span_sites(sim):
            # An instance's methods live on its class, so the wrapper is
            # a fresh instance attribute (undone by deleting it); class
            # and module owners hold the original in their own dict.
            own = vars(owner)
            undo.append((owner, attr, attr in own, own.get(attr)))
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield
    finally:
        for owner, attr, had, original in reversed(undo):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
