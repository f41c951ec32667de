"""Request router: key → virtual ring → partition → serving replica.

Thin coordination layer used by clients (and the workload generator) to
resolve where a query executes.  The router prefers the geographically
closest live replica, which realises the paper's network-proximity goal
(§II-B): data mostly accessed from a region should be served from — and
eventually migrate to — that region.

Since ISSUE 7 the router routes on the *believed* membership view
(``membership`` parameter, lint-sealed against direct ``Cloud.alive``
reads): a real deployment's router only knows what its failure
detector tells it, so ghosts are routable (the caller's contact will
time out) and false suspects are not (their data is skipped).  The
default :class:`~repro.net.membership.OracleMembership` reproduces the
pre-seam physical behavior exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from repro.cluster.location import Location, diversity
from repro.cluster.topology import Cloud
from repro.net.membership import OracleMembership
from repro.ring.hashing import Key
from repro.ring.partition import Partition, PartitionId
from repro.ring.virtualring import RingSet

if TYPE_CHECKING:  # the store layer imports this module, not the reverse
    from repro.store.replica import ReplicaCatalog


class RoutingError(LookupError):
    """Raised when a key cannot be resolved to a live replica."""


class Route(NamedTuple):
    """A resolved query route.

    ``replicas`` / ``distances`` keep the walk that resolved it (the
    believed-live replicas in catalog order, each one's diversity to
    the client or ``None`` without one) for the store it is handed to.
    """

    pid: PartitionId
    server_id: int
    distance: int
    replicas: Tuple[int, ...] = ()
    distances: Optional[Tuple[int, ...]] = None

    def __str__(self) -> str:
        return f"{self.pid} -> s{self.server_id} (d={self.distance})"


class Router:
    """Resolves keys to replicas over the current catalog state."""

    def __init__(self, cloud: Cloud, rings: RingSet,
                 catalog: ReplicaCatalog, *,
                 membership=None) -> None:
        self._cloud = cloud
        self._rings = rings
        self._catalog = catalog
        self._membership = (
            membership if membership is not None else OracleMembership(cloud)
        )

    def partition_of(self, app_id: int, ring_id: int, key: Key) -> Partition:
        return self._rings.ring(app_id, ring_id).lookup(key)

    def partition_at(self, app_id: int, ring_id: int,
                     position: int) -> Partition:
        """Owner of an already-hashed ring position (no re-hash)."""
        return self._rings.ring(app_id, ring_id).lookup_position(position)

    def believed_replicas(self, pid: PartitionId,
                          client: Optional[Location] = None
                          ) -> Tuple[List[int], Optional[List[int]]]:
        """The one catalog walk a request pays.

        Believed-live replica servers of ``pid`` in catalog order and,
        given a client, each one's diversity to it.  Belief, not ground
        truth: ghosts are included, false suspects are not.
        """
        believed = self._membership.believed
        replicas = [
            sid for sid in self._catalog.replica_servers(pid)
            if believed(sid)
        ]
        if client is None:
            return replicas, None
        server = self._cloud.server
        return replicas, [
            diversity(client, server(sid).location) for sid in replicas
        ]

    def route(self, app_id: int, ring_id: int, key: Key,
              *, client: Optional[Location] = None) -> Route:
        """Resolve a query to the closest live replica of its partition."""
        partition = self.partition_of(app_id, ring_id, key)
        return self.route_partition(partition.pid, client=client)

    def route_partition(self, pid: PartitionId,
                        *, client: Optional[Location] = None) -> Route:
        """Resolve a query already attributed to a partition.

        Ties are pinned: among equally-close believed-live replicas the
        *lowest server id* wins.  Catalog iteration order depends on
        placement history (and may differ between kernels), so serving
        traffic routed here must not inherit it — the tie-break keeps
        replay byte-deterministic across runs and kernels.
        """
        replicas, distances = self.believed_replicas(pid, client)
        if not replicas:
            raise RoutingError(f"no live replica for {pid}")
        if distances is None:
            return Route(pid, min(replicas), 0, tuple(replicas))
        best_d, best_sid = min(zip(distances, replicas))
        return Route(pid, best_sid, best_d, tuple(replicas), tuple(distances))

    def spread(self, pid: PartitionId,
               weights: Optional[List[Tuple[Location, float]]] = None
               ) -> List[Tuple[int, float]]:
        """Share of a partition's queries each live replica attracts.

        With no client geography every replica gets an equal share; with
        weighted client locations each location's share goes to its
        closest replica.  Used by the simulator to charge query load to
        servers without routing every query object individually.
        """
        replicas, __ = self.believed_replicas(pid)
        if not replicas:
            raise RoutingError(f"no live replica for {pid}")
        if not weights:
            share = 1.0 / len(replicas)
            return [(sid, share) for sid in replicas]
        totals = {sid: 0.0 for sid in replicas}
        grand = 0.0
        for client, weight in weights:
            if weight <= 0:
                continue
            best = self.route_partition(pid, client=client).server_id
            totals[best] += weight
            grand += weight
        if grand == 0:
            share = 1.0 / len(replicas)
            return [(sid, share) for sid in replicas]
        return [(sid, w / grand) for sid, w in totals.items()]
