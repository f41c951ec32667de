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

A route depends on ``(partition, client site)`` and on membership,
catalog and link state — not on the key.  Inside a *serving window*
:meth:`Router.route_partition` therefore compiles each pair once; the
invalidation contract is on :meth:`Router.serving_window`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    TYPE_CHECKING, Dict, Iterator, Optional, Tuple, Union,
)

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


class ContactOrder:
    """One partition's believed-live replicas, closest first: the
    *stable* sort by client diversity over catalog order, not the
    Router's lowest-id tie-break.  Routes that contact the same replicas
    in the same order share one instance, and with it what the quorum
    store compiled for it (its three slots: ``all_replicas`` — ``None``
    until resolved —, ``suspects`` and one level's read ``plan``).
    """

    __slots__ = ("believed", "all_replicas", "suspects", "plan")

    def __init__(self, replicas, distances) -> None:
        if distances is None:
            self.believed = tuple(replicas)
        else:
            self.believed = tuple([
                replicas[i] for i in
                sorted(range(len(replicas)), key=distances.__getitem__)
            ])
        self.all_replicas = None
        self.suspects = 0
        self.plan = None


class Route:
    """A resolved query route — the front door's unit of reuse (an
    object with identity, not a tuple).

    ``replicas`` / ``distances`` keep the walk that resolved it (the
    believed-live replicas in catalog order, each one's diversity to
    the client or ``None`` without one) for the store it is handed to;
    ``order`` is that walk as a :class:`ContactOrder`, built on first
    use unless the Router shared a sibling's.  ``costed`` / ``read_ms``
    are the front door's: the read ``attempts`` tuple it last costed
    along this route, and that service time.
    """

    __slots__ = ("pid", "client", "server_id", "distance", "replicas",
                 "distances", "order", "costed", "read_ms")

    def __init__(self, pid: PartitionId, client: Optional[Location],
                 server_id: int, distance: int, replicas: Tuple[int, ...],
                 distances: Optional[Tuple[int, ...]]) -> None:
        self.pid = pid
        self.client = client
        self.server_id = server_id
        self.distance = distance
        self.replicas = replicas
        self.distances = distances
        self.order: Optional[ContactOrder] = None
        self.costed = None  # read_ms is set with it

    def __str__(self) -> str:
        return f"{self.pid} -> s{self.server_id} (d={self.distance})"


class _RouteDropper:
    """Catalog listener (duck-typed: ``repro.store`` imports this module)
    dropping a partition's remembered routes when its replica set moves."""

    def __init__(self, memo: Dict) -> None:
        self._drop = memo.pop

    def replica_added(self, pid, server_id, servers) -> None:
        self._drop(pid, None)

    replica_removed = replica_added

    def server_dropped(self, server_id, lost) -> None:
        for pid in lost:
            self._drop(pid, None)

    def partition_split(self, parent, low, high, servers) -> None:
        self._drop(parent, None)


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
        # pid -> id(client) -> Route, or (RoutingError text, client).
        self._route_memo: Dict[PartitionId,
                               Dict[int, Union[Route, tuple]]] = {}
        self._dropper: Optional[_RouteDropper] = None
        self._window_open = False
        self._stamp = None
        self._interned: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        #: Routes compiled / handed out again inside serving windows.
        self.route_compiles = 0
        self.route_reuses = 0

    # -- serving windows -------------------------------------------------------

    @contextmanager
    def serving_window(self) -> Iterator[None]:
        """Remember routes inside the block: the caller promises that
        nothing in it moves membership, catalog or links.

        (1) Outside a window nothing is remembered or consulted.  (2) A
        catalog event drops the routes of the partitions it names.
        (3) Across windows the memo survives only under exactly
        :class:`OracleMembership` with an unchanged ``(cloud version,
        alive column)`` stamp — ``Server.fail()`` / ``restore()`` fire
        no catalog event; under any other view belief, ghosts and
        reachability move per epoch, so it lives for one window.
        """
        if self._dropper is None:
            self._dropper = _RouteDropper(self._route_memo)
            self._catalog.add_listener(self._dropper)
        stamp = None
        membership = self._membership
        if type(membership) is OracleMembership:
            stamp = (membership.version,
                     membership.believed_vector().tobytes())
        if stamp is None or stamp != self._stamp:
            self._route_memo.clear()
        self._stamp = stamp
        self._window_open = True
        try:
            yield
        finally:
            self._window_open = False

    def partition_of(self, app_id: int, ring_id: int, key: Key) -> Partition:
        return self._rings.ring(app_id, ring_id).lookup(key)

    def partition_at(self, app_id: int, ring_id: int,
                     position: int) -> Partition:
        """Owner of an already-hashed ring position (no re-hash)."""
        return self._rings.ring(app_id, ring_id).lookup_position(position)

    def believed_replicas(self, pid: PartitionId,
                          client: Optional[Location] = None
                          ) -> Tuple[Tuple[int, ...],
                                     Optional[Tuple[int, ...]]]:
        """The one catalog walk a request pays.

        Believed-live replica servers of ``pid`` in catalog order and,
        given a client, each one's diversity to it.  Belief, not ground
        truth: ghosts are included, false suspects are not.
        """
        believed = self._membership.believed
        replicas = tuple([
            sid for sid in self._catalog.replica_servers(pid)
            if believed(sid)
        ])
        if client is None:
            return replicas, None
        server = self._cloud.server
        return replicas, tuple([
            diversity(client, server(sid).location) for sid in replicas
        ])

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
        if not self._window_open:
            return self._compile(pid, client)
        # Keyed by the client's identity, not its (Python-level) hash:
        # every entry holds its client, so a live id names one object.
        routes = self._route_memo.get(pid)
        route = None if routes is None else routes.get(id(client))
        if route is None:
            self.route_compiles += 1
            try:
                route = self._compile(pid, client)
            except RoutingError as exc:
                route = (str(exc), client)
            else:
                if self._stamp is not None:
                    self._share(route, routes)
            if routes is None:
                self._route_memo[pid] = {id(client): route}
            else:
                routes[id(client)] = route
        else:
            self.route_reuses += 1
        if route.__class__ is tuple:
            raise RoutingError(route[0])
        return route

    def _compile(self, pid: PartitionId,
                 client: Optional[Location]) -> Route:
        replicas, distances = self.believed_replicas(pid, client)
        if not replicas:
            raise RoutingError(f"no live replica for {pid}")
        if distances is None:
            return Route(pid, client, min(replicas), 0, replicas, None)
        best_d, best_sid = min(zip(distances, replicas))
        return Route(pid, client, best_sid, best_d, replicas, distances)

    def _share(self, route: Route, siblings: Optional[Dict]) -> None:
        """Lean form for a memo that outlives its window: ``route`` takes
        a sibling's replica tuple and equal contact order, and one
        interned distance tuple (few distinct ones exist)."""
        distances = route.distances
        if distances is not None:
            route.distances = self._interned.setdefault(distances, distances)
        order = route.order = ContactOrder(route.replicas, distances)
        for other in siblings.values() if siblings else ():
            if other.__class__ is Route:
                if other.replicas == route.replicas:
                    route.replicas = other.replicas
                if other.order.believed == order.believed:
                    route.order = other.order
                    return
