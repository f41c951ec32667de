"""The per-request front-door path as it was before ISSUE 24, frozen.

Test-only oracle for ``test_request_plan_differential.py``: every
request re-walks the catalog, re-asks ``believed`` / ``responds`` /
``reachable`` per replica, re-sorts the contact order, re-runs the read
contact loop and re-costs the quorum path — no route memo, no compiled
read plan, no remembered service time — and arrivals come from the
wrapper-by-wrapper ``draw``.  The bodies are the parent
commit's, verbatim where the shipped signatures allow; writes go through
the shipped ``_write`` over a freshly resolved contact order (its
per-write contact loop and hint parking did not change).  ``_execute``
returns the shipped signature, (service ms, version or -1), so the
shipped scheduler folds both front doors' outcomes the same way.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.cluster.location import diversity
from repro.ring.hashing import key_bytes
from repro.ring.partition import PartitionId
from repro.ring.router import Router, RoutingError
from repro.serve.frontend import TIMEOUT_PENALTY_MS, ServingFrontEnd
from repro.serve.loadgen import Arrival, LoadGenerator
from repro.store.quorum import (
    QuorumError,
    QuorumKVStore,
    QuorumReadResult,
    ReplicaOutcome,
    Versioned,
)


class ReferenceRoute(NamedTuple):
    pid: PartitionId
    server_id: int
    distance: int
    replicas: Tuple[int, ...] = ()
    distances: Optional[Tuple[int, ...]] = None


class ReferenceRouter(Router):
    def route_partition(self, pid, *, client=None):
        replicas, distances = self.believed_replicas(pid, client)
        if not replicas:
            raise RoutingError(f"no live replica for {pid}")
        if distances is None:
            return ReferenceRoute(pid, min(replicas), 0, tuple(replicas))
        best_d, best_sid = min(zip(distances, replicas))
        return ReferenceRoute(
            pid, best_sid, best_d, tuple(replicas), tuple(distances)
        )


class ReferenceStore(QuorumKVStore):
    def _resolve_reference(self, app_id, ring_id, key, client, route):
        if route is None:
            pid = self._route(app_id, ring_id, key)
            believed, distances = self._router.believed_replicas(pid, client)
        else:
            pid, believed = route.pid, route.replicas
            distances = route.distances
        if distances is not None:
            order = sorted(range(len(believed)), key=distances.__getitem__)
            believed = [believed[i] for i in order]
        all_replicas = self._catalog.replica_servers(pid)
        if len(believed) < len(all_replicas):
            responds = self._membership.responds
            self.stats.suspects_skipped += sum(
                1 for sid in all_replicas
                if sid not in believed and responds(sid)
            )
        return pid, key_bytes(key), all_replicas, believed

    def _resolve(self, app_id, ring_id, key, client, route):
        # What the shipped ``_write`` reads off a resolution.
        pid, __, all_replicas, believed = self._resolve_reference(
            app_id, ring_id, key, client, route
        )
        return pid, SimpleNamespace(
            believed=tuple(believed), all_replicas=tuple(all_replicas)
        )

    def get(self, app_id, ring_id, key, *, level, client=None, route=None):
        pid, kb, all_replicas, believed = self._resolve_reference(
            app_id, ring_id, key, client, route
        )
        need = level.required(len(all_replicas))
        stats = self.stats
        if len(believed) < need:
            stats.read_failures += 1
            raise QuorumError(
                f"read quorum {need}/{len(all_replicas)} unreachable "
                f"for {pid}: only {len(believed)} believed-live replicas"
            )
        contacted: List[int] = []
        attempts: List[Tuple[int, str]] = []
        coordinator: Optional[int] = None
        for sid in believed:
            if len(contacted) >= need:
                break
            outcome = self._contact(coordinator, sid)
            attempts.append((sid, outcome._value_))
            if outcome is ReplicaOutcome.OK:
                if coordinator is None:
                    coordinator = sid
                contacted.append(sid)
            elif outcome is ReplicaOutcome.TIMEOUT:
                stats.replica_timeouts += 1
                stats.bump_level(level, timeouts=1)
            else:
                stats.replica_unreachable += 1
        if len(contacted) < need:
            stats.read_failures += 1
            raise QuorumError(
                f"read quorum {need}/{len(all_replicas)} assembled only "
                f"{len(contacted)} responses for {pid}"
            )
        freshest: Optional[Versioned] = None
        holders: Dict[int, int] = {}
        for sid in contacted:
            copy = self._copy(sid, pid).get(kb)
            holders[sid] = copy.version if copy else -1
            if copy is not None and (
                freshest is None or copy.version > freshest.version
            ):
                freshest = copy
        stats.reads += 1
        if freshest is None:
            stats.bump_level(level, ok=1)
            return QuorumReadResult(
                value=None, version=0,
                contacted=tuple(contacted), stale_replicas=(),
                attempts=tuple(attempts),
            )
        stale = tuple(
            sid for sid, v in holders.items() if v < freshest.version
        )
        stats.stale_observed += len(stale)
        stats.bump_level(level, ok=1, stale=len(stale))
        if stale:
            for sid in stale:
                self._copy(sid, pid)[kb] = freshest
            stats.read_repairs += len(stale)
        value = None if freshest.is_tombstone else freshest.value
        return QuorumReadResult(
            value=value,
            version=freshest.version,
            contacted=tuple(contacted),
            stale_replicas=stale,
            attempts=tuple(attempts),
        )


class ReferenceLoadGenerator(LoadGenerator):
    def draw(self, epoch):
        rng = self._rng
        keys, positions = self._universe.keys, self._universe.positions
        out: List[Arrival] = []
        t = 0.0
        for i in range(self._requests):
            t += float(rng.exponential(self._mean_gap_ms))
            app_id, ring_id = self._apps[
                int(rng.integers(len(self._apps)))
            ]
            rank = self._universe.draw(rng)
            key, position = keys[rank], positions[rank]
            client = None
            if self._sites:
                client = self._sites[int(rng.integers(len(self._sites)))]
            if float(rng.random()) < self._read_fraction:
                out.append(Arrival(
                    offset_ms=t, kind="get", app_id=app_id,
                    ring_id=ring_id, key=key, position=position,
                    value=None, client=client,
                ))
            else:
                out.append(Arrival(
                    offset_ms=t, kind="put", app_id=app_id,
                    ring_id=ring_id, key=key, position=position,
                    value=self._value(epoch, i), client=client,
                ))
        return out


class ReferenceFrontEnd(ServingFrontEnd):
    """A front door serving through the frozen per-request path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Same objects, reference behaviour: no second store, so no
        # second catalog listener or hint store.
        self.router.__class__ = ReferenceRouter
        self.store.__class__ = ReferenceStore
        self.loadgen.__class__ = ReferenceLoadGenerator

    def _execute(self, arrival):
        model = self.model
        pid = self.router.partition_at(
            arrival.app_id, arrival.ring_id, arrival.position
        ).pid
        try:
            route = self.router.route_partition(
                pid, client=arrival.client
            )
        except RoutingError:
            return TIMEOUT_PENALTY_MS, -1
        coordinator_ms = model.rtt(route.distance)
        coord_loc = self._cloud.server(route.server_id).location
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
            return coordinator_ms + TIMEOUT_PENALTY_MS, -1
        fan_out = 0.0
        for sid, outcome in result.attempts:
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
        return coordinator_ms + fan_out, result.version
