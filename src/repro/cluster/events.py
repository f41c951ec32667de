"""Scheduled cloud events: server arrivals, failures and scoped outages.

The Fig. 3 experiment adds 20 servers at epoch 100 and removes 20
different servers at epoch 200.  This module expresses such schedules as
declarative event lists the simulator applies at epoch boundaries, plus
correlated-failure helpers (rack / room / datacenter outages) matching
the failure modes the introduction motivates (a PDU failure takes out
~500-1000 machines, a rack failure ~40-80).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.server import GB, check_server_terms
from repro.cluster.topology import Cloud, CloudLayout, fresh_locations


class EventError(ValueError):
    """Raised for malformed event schedules."""


@dataclass(frozen=True)
class AddServers:
    """Add ``count`` servers at ``epoch`` (resource upgrade)."""

    epoch: int
    count: int
    storage_capacity: int = 50 * GB
    query_capacity: int = 1_000_000
    monthly_rent: float = 100.0

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise EventError(f"epoch must be >= 0, got {self.epoch}")
        if self.count <= 0:
            raise EventError(f"count must be > 0, got {self.count}")
        check_server_terms(
            self.monthly_rent, self.storage_capacity, self.query_capacity
        )


@dataclass(frozen=True)
class RemoveServers:
    """Remove ``count`` live servers at ``epoch`` (uncorrelated failures).

    ``exclude_recent`` reproduces the paper's "20 *different* servers are
    removed": servers added by a prior :class:`AddServers` event are not
    candidates when it is set.
    """

    epoch: int
    count: int
    exclude_recent: bool = True

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise EventError(f"epoch must be >= 0, got {self.epoch}")
        if self.count <= 0:
            raise EventError(f"count must be > 0, got {self.count}")


@dataclass(frozen=True)
class ScopedOutage:
    """Fail every server under one location prefix (rack/room/DC/country).

    ``depth`` selects the blast radius: 2 = country, 3 = datacenter,
    4 = room, 5 = rack.  The prefix itself is chosen at apply time from a
    live server picked by the rng, so schedules stay layout-independent.
    """

    epoch: int
    depth: int

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise EventError(f"epoch must be >= 0, got {self.epoch}")
        if not 1 <= self.depth <= 5:
            raise EventError(f"depth must be in [1, 5], got {self.depth}")


CloudEvent = object  # union of the three dataclasses above


@dataclass
class EventLog:
    """What a schedule actually did, for assertions and reporting."""

    added: Dict[int, List[int]] = field(default_factory=dict)
    removed: Dict[int, List[int]] = field(default_factory=dict)

    def record_added(self, epoch: int, server_ids: Sequence[int]) -> None:
        self.added.setdefault(epoch, []).extend(server_ids)

    def record_removed(self, epoch: int, server_ids: Sequence[int]) -> None:
        self.removed.setdefault(epoch, []).extend(server_ids)

    @property
    def all_added(self) -> List[int]:
        return [sid for ids in self.added.values() for sid in ids]

    @property
    def all_removed(self) -> List[int]:
        return [sid for ids in self.removed.values() for sid in ids]


class EventSchedule:
    """Applies a list of :class:`CloudEvent` to a :class:`Cloud`.

    The simulator calls :meth:`apply` at the start of every epoch; events
    whose epoch matches fire in list order.  Removal events report the
    failed server ids so the replica catalog can drop the lost replicas.
    """

    def __init__(self, events: Sequence[CloudEvent] = (),
                 layout: Optional[CloudLayout] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self._events: List[CloudEvent] = sorted(
            events, key=lambda e: e.epoch  # type: ignore[attr-defined]
        )
        self._layout = layout if layout is not None else CloudLayout()
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.log = EventLog()

    @property
    def events(self) -> Tuple[CloudEvent, ...]:
        return tuple(self._events)

    def events_at(self, epoch: int) -> List[CloudEvent]:
        return [e for e in self._events if e.epoch == epoch]  # type: ignore

    def apply(self, epoch: int, cloud: Cloud,
              kill_only: bool = False) -> Tuple[List[int], List[int]]:
        """Fire this epoch's events; return (added_ids, removed_ids).

        ``kill_only`` is the faulty-network mode: victims ``fail()`` in
        place (slot, diversity row and catalog entries retained) instead
        of leaving the cloud — actual removal completes only when the
        gossip layer *detects* the death.  Victim selection then draws
        from the physically-live servers, which is exactly the candidate
        list the default mode sees (dead servers have already left the
        cloud there), so the rng draws are identical in both modes for
        any schedule whose deaths are all detected before the next
        event fires — in particular always under a zero-fault network.
        """
        added: List[int] = []
        removed: List[int] = []
        for event in self.events_at(epoch):
            if isinstance(event, AddServers):
                added.extend(self._apply_add(event, cloud))
            elif isinstance(event, RemoveServers):
                removed.extend(
                    self._apply_remove(event, cloud, kill_only)
                )
            elif isinstance(event, ScopedOutage):
                removed.extend(
                    self._apply_outage(event, cloud, kill_only)
                )
            else:
                raise EventError(f"unknown event type: {event!r}")
        if added:
            self.log.record_added(epoch, added)
        if removed:
            self.log.record_removed(epoch, removed)
        return added, removed

    def _apply_add(self, event: AddServers, cloud: Cloud) -> List[int]:
        existing = [s.location for s in cloud]
        locations = fresh_locations(self._layout, existing, event.count)
        servers = cloud.spawn_servers(
            locations,
            monthly_rent=event.monthly_rent,
            storage_capacity=event.storage_capacity,
            query_capacity=event.query_capacity,
        )
        return [server.server_id for server in servers]

    def _apply_remove(self, event: RemoveServers, cloud: Cloud,
                      kill_only: bool = False) -> List[int]:
        if kill_only:
            candidates = [
                sid for sid in cloud.server_ids
                if cloud.server(sid).alive
            ]
        else:
            candidates = list(cloud.server_ids)
        if event.exclude_recent:
            recent = set(self.log.all_added)
            spared = [sid for sid in candidates if sid not in recent]
            if len(spared) >= event.count:
                candidates = spared
        if event.count > len(candidates):
            raise EventError(
                f"cannot remove {event.count} servers, only "
                f"{len(candidates)} candidates"
            )
        chosen = self._rng.choice(
            len(candidates), size=event.count, replace=False
        )
        victims = [candidates[i] for i in chosen]
        if kill_only:
            for sid in victims:
                cloud.server(sid).fail()
        else:
            cloud.remove_servers(victims)
        return victims

    def _apply_outage(self, event: ScopedOutage, cloud: Cloud,
                      kill_only: bool = False) -> List[int]:
        if kill_only:
            ids = [
                sid for sid in cloud.server_ids
                if cloud.server(sid).alive
            ]
        else:
            ids = cloud.server_ids
        if not ids:
            return []
        pivot_id = ids[int(self._rng.integers(len(ids)))]
        prefix = cloud.server(pivot_id).location.prefix(event.depth)
        if kill_only:
            victims = [
                s.server_id
                for s in cloud
                if s.alive and s.location.prefix(event.depth) == prefix
            ]
            for sid in victims:
                cloud.server(sid).fail()
            return victims
        victims = [
            s.server_id
            for s in cloud
            if s.location.prefix(event.depth) == prefix
        ]
        cloud.remove_servers(victims)
        return victims


def fig3_schedule(*, add_epoch: int = 100, remove_epoch: int = 200,
                  count: int = 20,
                  layout: Optional[CloudLayout] = None,
                  storage_capacity: int = 50 * GB,
                  query_capacity: int = 1_000_000,
                  rng: Optional[np.random.Generator] = None) -> EventSchedule:
    """The Fig. 3 schedule: +20 servers at epoch 100, −20 at epoch 200."""
    return EventSchedule(
        [
            AddServers(
                epoch=add_epoch,
                count=count,
                storage_capacity=storage_capacity,
                query_capacity=query_capacity,
            ),
            RemoveServers(epoch=remove_epoch, count=count),
        ],
        layout=layout,
        rng=rng,
    )
