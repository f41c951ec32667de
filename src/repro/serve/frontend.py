"""The serving overlay: request scheduler over the quorum store.

:class:`ServingFrontEnd` is the one request path: the engine builds it
as ``sim.serving`` (front door) and as ``sim.data_plane``.  Each epoch
the open-loop :class:`~repro.serve.loadgen.LoadGenerator` produces the
arrival stream, a deterministic event-loop scheduler admits requests
onto ``workers`` virtual executors, each request is routed through
:class:`repro.ring.router.Router` (believed membership, lowest-id tie
break) to its coordinator replica, executed against a
:class:`repro.store.quorum.QuorumKVStore` resolving through that
Router, folded into a
:class:`~repro.analysis.consistency.ConsistencyFrontier`, and costed
with :class:`repro.analysis.latency.LatencyModel` RTTs along the
quorum path:

* **coordinator hop** — client → nearest believed-live replica, the
  route the Router resolves;
* **replica fan-out** — the coordinator contacts the quorum in
  parallel, so the fan-out costs the *slowest* contacted leg
  (coordinator → replica RTT for acks, the timeout penalty for ghosts
  and cut links);
* **queueing delay** — an arrival finding every worker busy waits; the
  wait lands in the latency tails, which is how overload becomes
  user-visible.

The scheduler is an explicit event loop over *simulated* time rather
than an OS thread pool: store mutations execute in arrival order, so a
run replays bit-identically (same spec + seed ⇒ the identical
``ServingFrame`` stream) — the property the golden suite demands and
preemptive threads cannot give.

An overlay is side-effect-free toward the economy: own copies, own
hints, own RNG stream, no writes to partition sizes or server state —
enabling it leaves the golden EpochFrame streams byte-identical.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.consistency import ConsistencyFrontier, ConsistencyReport
from repro.analysis.latency import LatencyModel
from repro.cluster.location import Location, diversity
from repro.ring.router import Router, RoutingError
from repro.ring.virtualring import RingSet
from repro.serve.loadgen import EPOCH_MS, Arrival, LoadGenerator
from repro.serve.sla import SlaLedger
from repro.store.hints import HintStore
from repro.store.quorum import Level, QuorumError, QuorumKVStore
from repro.store.replica import ReplicaCatalog

# NOTE: repro.sim.metrics is imported lazily inside the frame builders
# so this module can be imported from either package side.

#: Partitions the anti-entropy pass walks per epoch, and the patch
#: bytes after which it stops (the partition in flight finishes).
ANTI_ENTROPY_PARTITIONS = 8
ANTI_ENTROPY_BYTES = 1 << 20
#: Coordinator-side cost (ms) of waiting out a replica that times out or
#: cannot be reached (also the floor cost of a failed quorum).
TIMEOUT_PENALTY_MS = 250.0


class ServingFrontEnd:
    """Owns one request-serving overlay for one simulation run."""

    def __init__(self, config, cloud, rings: RingSet,
                 catalog: ReplicaCatalog, membership, *,
                 rng: np.random.Generator,
                 apps: Sequence[Tuple[int, int]],
                 sites: Sequence[Location] = (),
                 latency_model: Optional[LatencyModel] = None,
                 prefix: str = "sv") -> None:
        self.config = config
        self.level = Level(config.level)
        self.model = (
            latency_model if latency_model is not None else LatencyModel()
        )
        self._cloud = cloud
        self.router = Router(cloud, rings, catalog, membership=membership)
        self.hints = HintStore()
        self.store = QuorumKVStore(
            cloud, rings, catalog,
            membership=membership,
            hints=self.hints,
            track_catalog=True,
            router=self.router,
        )
        self.sla = SlaLedger()
        self.loadgen: Optional[LoadGenerator] = None
        if config.requests_per_epoch > 0:
            self.loadgen = LoadGenerator(
                apps=apps,
                requests_per_epoch=config.requests_per_epoch,
                read_fraction=config.read_fraction,
                keyspace=config.keyspace,
                rng=rng,
                sites=sites,
                prefix=prefix,
            )
        #: Cleared (e.g. during an audit settle phase) to stop
        #: admitting requests while hints keep draining.
        self.serving_enabled = True
        #: Every request folded as it completes (bounded by the keyspace).
        self.frontier = ConsistencyFrontier()
        #: The last step's (epoch, read latencies, write latencies,
        #: queue wait, read failures, write failures), which
        #: :meth:`collect_serving_frame` summarises on demand.
        self._served = (0, [], [], 0.0, 0, 0)
        #: Counters at the last :meth:`collect_frame` (its deltas' base).
        self._prev_counts = ({}, {})

    # -- epoch loop ------------------------------------------------------------

    def step(self, epoch: int) -> None:
        """Serve one epoch's arrivals, then drain hints and sweep; the
        epoch's frame is built only by the collector that logs it."""
        self.store.begin_epoch(epoch)
        self.sla.begin_epoch()
        tally = self.frontier.tally
        failed_before = (tally.read_failures, tally.write_failures)
        read_lat: List[float] = []
        write_lat: List[float] = []
        queue_wait = 0.0
        if self.loadgen is not None and self.serving_enabled:
            arrivals = self.loadgen.draw(epoch)
            # Nothing in _serve moves membership, catalog or links:
            # a route compiled for one arrival stays true for the rest.
            with self.router.serving_window():
                queue_wait = self._serve(epoch, arrivals, read_lat, write_lat)
        self.store.drain_hints(epoch)
        self.store.anti_entropy(
            epoch,
            max_partitions=ANTI_ENTROPY_PARTITIONS,
            max_bytes=ANTI_ENTROPY_BYTES,
        )
        self._served = (
            epoch, read_lat, write_lat, queue_wait,
            tally.read_failures - failed_before[0],
            tally.write_failures - failed_before[1],
        )

    def _serve(self, epoch: int, arrivals: List[Arrival],
               read_lat: List[float], write_lat: List[float]) -> float:
        """Admit one epoch's arrivals through the event-loop scheduler;
        returns the summed queueing wait.

        ``workers`` virtual executors are modelled as a min-heap of
        free times: each arrival (already in time order) starts at
        ``max(arrival, earliest free worker)``, runs for its costed
        quorum-path service time, and its user-visible latency is
        queueing wait plus service.  Execution order equals arrival
        order, which is what keeps the store state — and therefore the
        whole frame stream — replayable.
        """
        free = [0.0] * self.config.workers
        heapq.heapify(free)
        heappop, heappush = heapq.heappop, heapq.heappush
        execute, record = self._execute, self.sla.record
        frontier = self.frontier
        fold = frontier.fold
        level = self.level._value_
        total_wait = 0.0
        for seq, arrival in enumerate(arrivals, frontier.tally.operations):
            offset_ms, kind, app_id, ring_id, key, __, __, __ = arrival
            start = max(offset_ms, heappop(free))
            service_ms, version = execute(arrival)
            heappush(free, start + service_ms)
            latency = (start - offset_ms) + service_ms
            total_wait += start - offset_ms
            (read_lat if kind == "get" else write_lat).append(latency)
            fold(seq, epoch, kind, level, (app_id, ring_id, key), version)
            record(app_id, ring_id, kind, latency, version >= 0)
        return total_wait

    def _execute(self, arrival: Arrival) -> Tuple[float, int]:
        """Run one request; returns (service time in ms, the version it
        read or stamped, -1 when it failed).

        The service time is the RTT cost along the quorum path: the
        client→coordinator hop resolved by the Router, plus the
        slowest leg of the coordinator's replica fan-out.  A replica
        that times out (ghost) or is unreachable (cut link) costs the
        :data:`TIMEOUT_PENALTY_MS` — the coordinator waits it out —
        and a failed quorum costs at least that penalty on top of the
        hop, since the coordinator gave up only after waiting.
        """
        model = self.model
        pid = self.router.partition_at(
            arrival.app_id, arrival.ring_id, arrival.position
        ).pid
        try:
            route = self.router.route_partition(
                pid, client=arrival.client
            )
        except RoutingError:
            # No believed-live replica at all: the client burns a full
            # timeout against a dead partition.
            return TIMEOUT_PENALTY_MS, -1
        try:
            if arrival.kind == "get":
                result = self.store.get(
                    arrival.app_id, arrival.ring_id, arrival.key,
                    level=self.level, client=arrival.client, route=route,
                )
            else:
                result = self.store.put(
                    arrival.app_id, arrival.ring_id, arrival.key,
                    arrival.value, level=self.level,
                    client=arrival.client, route=route,
                )
        except QuorumError:
            return model.rtt(route.distance) + TIMEOUT_PENALTY_MS, -1
        attempts = result.attempts
        if attempts is route.costed:
            # A read replayed from the route's compiled plan: same
            # coordinator, same legs, same service time.
            return route.read_ms, result.version
        coord_loc = self._cloud.server(route.server_id).location
        fan_out = 0.0
        for sid, outcome in attempts:
            if outcome == "ok":
                leg = model.rtt(diversity(
                    coord_loc, self._cloud.server(sid).location
                ))
            elif outcome in ("timeout", "unreachable"):
                leg = TIMEOUT_PENALTY_MS
            else:  # skipped: believed dead, never contacted
                continue
            if leg > fan_out:
                fan_out = leg
        service_ms = model.rtt(route.distance) + fan_out
        if arrival.kind == "get":
            route.costed, route.read_ms = attempts, service_ms
        return service_ms, result.version

    # -- frame collection ------------------------------------------------------

    def collect_serving_frame(self):
        """The last step's :class:`~repro.sim.metrics.ServingFrame`:
        request counts, latency tails and SLA violations."""
        from repro.sim.metrics import ServingFrame

        (epoch, read_lat, write_lat, queue_wait,
         read_failures, write_failures) = self._served

        def tails(latencies: List[float]) -> Tuple[float, float, float]:
            if not latencies:
                return (0.0, 0.0, 0.0)
            arr = np.asarray(latencies, dtype=np.float64)
            return tuple(np.percentile(arr, [50, 99, 99.9]).tolist())

        read_p50, read_p99, read_p999 = tails(read_lat)
        write_p50, write_p99, write_p999 = tails(write_lat)
        requests = len(read_lat) + len(write_lat)
        sla_reads, sla_writes = self.sla.epoch_counts()
        return ServingFrame(
            epoch=epoch,
            requests=requests,
            reads=len(read_lat),
            writes=len(write_lat),
            read_failures=read_failures,
            write_failures=write_failures,
            sla_read_violations=sla_reads,
            sla_write_violations=sla_writes,
            requests_per_sec=requests / (EPOCH_MS / 1000.0),
            read_p50_ms=read_p50,
            read_p99_ms=read_p99,
            read_p999_ms=read_p999,
            write_p50_ms=write_p50,
            write_p99_ms=write_p99,
            write_p999_ms=write_p999,
            mean_queue_ms=(queue_wait / requests if requests else 0.0),
        )

    def collect_frame(self, epoch: int):
        """The epoch's :class:`~repro.sim.metrics.DataPlaneFrame`: deltas
        of the store's counters, with the operation counts taken from
        the requests themselves — a request the Router could not place
        fails without ever reaching the store."""
        from repro.sim.metrics import DataPlaneFrame

        tally, stats = self.frontier.tally, self.store.stats
        now = dict(
            stats.as_dict(),
            reads=tally.reads - tally.read_failures,
            writes=tally.writes - tally.write_failures,
            read_failures=tally.read_failures,
            write_failures=tally.write_failures,
        )
        rows = stats.level_rows()
        (prev, prev_rows), self._prev_counts = self._prev_counts, (now, rows)
        levels = {}
        for lv, row in rows.items():
            prev_row = prev_rows.get(lv, (0, 0, 0))
            delta = tuple(a - b for a, b in zip(row, prev_row))
            if any(delta):
                levels[lv] = delta
        return DataPlaneFrame(
            epoch=epoch, hint_queue_depth=self.hints.depth, levels=levels,
            **{name: now[name] - prev.get(name, 0) for name in now},
        )

    # -- audit ground truth ----------------------------------------------------

    def lost_writes(self) -> List[Tuple[int, int, bytes, int, int]]:
        """Acked writes no surviving copy or hint still carries.

        Returns ``(app_id, ring_id, key, acked_version, surviving)``
        rows; empty means the sloppy-quorum durability contract held
        for every request this overlay acknowledged.
        """
        return self.frontier.lost(self.store.surviving_version)

    def consistency_report(self) -> ConsistencyReport:
        """The linearizability-lite verdict over every request so far,
        committed writes checked against what survives now."""
        return self.frontier.report(self.store.surviving_version)
