"""The discrete-epoch simulator tying every subsystem together.

One epoch proceeds exactly as the paper's model (§III-A) prescribes:

1. cloud events (arrivals/failures) fire and lost replicas disappear;
2. every server posts its eq. 1 virtual rent for the epoch, computed
   from the previous epoch's query load and its current storage usage;
3. bandwidth budgets and query counters reset;
4. the workload mix draws the epoch's queries and routes them to the
   partitions' live replicas; agents settle their eq. 5 balances;
5. every virtual node runs the §II-C decision process (replicate /
   migrate / suicide / nothing) with transfers debited against the
   replication and migration budgets;
6. the insert stream (if configured) grows partitions, failing inserts
   that no replica server can absorb;
7. overfull partitions split; 8. metrics are collected.

The decision logic is pluggable via ``decider_factory`` so the baseline
policies (static, random) run under the identical substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, List, Optional, Protocol, Sequence, Tuple,
    runtime_checkable,
)

import numpy as np

from repro.cluster.events import EventSchedule
from repro.cluster.server import BandwidthBudget
from repro.cluster.topology import Cloud, build_cloud
from repro.core.agent import AgentRegistry
from repro.core.availability import AvailabilityIndex, availability
from repro.core.board import PriceBoard, update_board
from repro.core.decision import DecisionEngine
from repro.core.placement import proximity_weights
from repro.core.policy import DecisionStats, EconomicPolicy
from repro.net.membership import MembershipService, OracleMembership
from repro.ring.partition import PartitionId, PartitionIndex
from repro.ring.virtualring import AvailabilityLevel, RingError, RingSet
from repro.sim.config import SimConfig
from repro.sim.metrics import (
    ControlPlaneFrame,
    EpochFrame,
    MetricsLog,
    RobustnessLog,
    ServerVnodeHistogram,
    ServingLog,
)
from repro.sim.seeds import RngStreams
from repro.serve.frontend import ServingFrontEnd
from repro.store.replica import ReplicaCatalog
from repro.store.transfer import (
    NETWORK_OUTCOMES,
    RetryQueue,
    TransferEngine,
    TransferKind,
)
from repro.workload.clients import uniform_over_countries
from repro.workload.inserts import InsertOutcome, InsertWorkload
from repro.workload.mix import ApplicationSpec, EpochLoad, WorkloadMix
from repro.workload.popularity import PopularityMap


class SimulationError(RuntimeError):
    """Raised for inconsistent simulator usage."""


@dataclass
class SimContext:
    """Everything a decision policy needs to act on the cloud."""

    cloud: Cloud
    rings: RingSet
    catalog: ReplicaCatalog
    registry: AgentRegistry
    transfers: TransferEngine
    policy: EconomicPolicy
    rent_model: object = None
    kernel: str = "vectorized"
    avail_index: Optional[AvailabilityIndex] = None
    membership: object = None


@runtime_checkable
class Decider(Protocol):
    """What :class:`Simulation` asks of a policy each epoch: settle
    eq. 5 (charging each server its query share, which the next
    epoch's eq. 1 reprice reads off the server table) and run one
    decision pass."""

    def settle(self, load: EpochLoad, board: PriceBoard,
               g_of_app: Optional[Dict[int, np.ndarray]] = None) -> None:
        ...

    def decide(self, board: PriceBoard, load: EpochLoad,
               rng: np.random.Generator,
               g_of_app: Optional[Dict[int, np.ndarray]] = None
               ) -> DecisionStats:
        ...


DeciderFactory = Callable[[SimContext], Decider]


#: The paper's policy — the default decider factory.
economic_decider = DecisionEngine.from_context


class Simulation:
    """A fully built scenario, steppable epoch by epoch."""

    def __init__(self, config: SimConfig, *,
                 events: Optional[EventSchedule] = None,
                 decider_factory: DeciderFactory = economic_decider) -> None:
        self.config = config
        self.streams = RngStreams(config.seed)
        self.cloud = build_cloud(
            config.layout,
            storage_capacity=config.server_storage,
            query_capacity=config.server_query_capacity,
            expensive_fraction=config.expensive_fraction,
            cheap_rent=config.cheap_rent,
            expensive_rent=config.expensive_rent,
            confidence=config.confidence,
            rng=self.streams.topology,
        )
        self._apply_budgets(self.cloud.server_ids)
        self.rings = RingSet()
        for app in config.apps:
            for ring_cfg in app.rings:
                self.rings.add_ring(
                    app.app_id,
                    ring_cfg.ring_id,
                    AvailabilityLevel(
                        threshold=ring_cfg.threshold,
                        target_replicas=ring_cfg.target_replicas,
                    ),
                    ring_cfg.partitions,
                    partition_capacity=ring_cfg.partition_capacity,
                    initial_size=ring_cfg.initial_partition_size,
                )
        # The one replica table: each replica's agent row lives in the
        # catalog's ledger, windowed by the policy's hysteresis.
        self.catalog = ReplicaCatalog(
            self.cloud, window=config.policy.hysteresis
        )
        # The incremental eq. 2 cache is shared by the decision engine
        # and metrics collection (scalar kernel: both fall back to the
        # O(R²) recomputation the reference implementation performs).
        # Its dense partition index is the shared slot space every
        # per-partition vector (query counts, availability, replica
        # counts) is addressed in.
        self.avail_index: Optional[AvailabilityIndex] = None
        self.partition_index: Optional[PartitionIndex] = None
        if config.kernel == "vectorized":
            self.partition_index = PartitionIndex()
            self.rings.use_partition_index(self.partition_index)
            self.avail_index = AvailabilityIndex(
                self.cloud, self.catalog, partitions=self.partition_index
            )
        self.registry = AgentRegistry(self.catalog)
        self.transfers = TransferEngine(self.cloud, self.catalog)
        # Faulty-network control plane (ISSUE 6).  ``config.net is
        # None`` leaves every seam below default-off: no membership
        # service, no reachability checks, no retry queue — the epoch
        # loop is byte-for-byte the pre-existing one.
        self.membership_service: Optional[MembershipService] = None
        self.retry_queue: Optional[RetryQueue] = None
        self._retry_skip: set = set()
        if config.net is not None:
            self.membership_service = MembershipService(
                config.net, self.cloud, self.streams,
                avail_index=self.avail_index, catalog=self.catalog,
            )
            self.transfers.set_reachability(
                self.membership_service.net.reachable
            )
            self.retry_queue = RetryQueue()
        self.board = PriceBoard()
        self.popularity = PopularityMap.pareto(
            self.rings.layout().pids, rng=self.streams.popularity,
        )
        self.mix = WorkloadMix(
            [
                ApplicationSpec(
                    app_id=a.app_id,
                    name=a.name,
                    query_share=a.query_share,
                    geography=a.geography,
                )
                for a in config.apps
            ],
            config.rate_profile,
            self.streams.workload,
        )
        self.insert_workload: Optional[InsertWorkload] = None
        if config.inserts is not None:
            self.insert_workload = InsertWorkload(
                rate=config.inserts.rate,
                object_size=config.inserts.object_size,
                routing=config.inserts.routing,
                rng=self.streams.inserts,
            )
        self.events = events if events is not None else EventSchedule(
            [], layout=config.layout, rng=self.streams.events
        )
        self.context = SimContext(
            cloud=self.cloud,
            rings=self.rings,
            catalog=self.catalog,
            registry=self.registry,
            transfers=self.transfers,
            policy=config.policy,
            rent_model=config.rent_model,
            kernel=config.kernel,
            avail_index=self.avail_index,
            membership=self.membership_service,
        )
        self.decider: Decider = decider_factory(self.context)
        # One log per frame stream; a side log exists only when an
        # overlay that feeds it does.
        self.metrics = MetricsLog()
        overlays = config.net is not None or config.data_plane is not None
        self.robustness = RobustnessLog() if overlays else None
        self.serving_log = ServingLog() if config.serving is not None else None
        self._g_of_app: Dict[int, Optional[np.ndarray]] = {}
        self._g_dirty = True
        self._epoch = 0
        self._seed_placement()
        # The serving overlays, built after seed placement so their
        # catalog mirrors only track changes from here on.  One class,
        # two instances on their own RNG streams: the data plane and the
        # live front door.  Observers, so the EpochFrame stream is
        # unchanged whether or not either runs.
        self.data_plane: Optional[ServingFrontEnd] = None
        if config.data_plane is not None:
            self.data_plane = self._overlay(
                config.data_plane.serving_config(), self.streams.dataplane,
                prefix="dp",
            )
        self.serving: Optional[ServingFrontEnd] = None
        if config.serving is not None:
            self.serving = self._overlay(
                config.serving, self.streams.serving, prefix="sv",
                # The front door needs client locations to cost the
                # client→coordinator hop; country sites match the
                # uniform geography the paper's workloads assume.
                sites=uniform_over_countries(config.layout).sites,
            )

    # -- construction helpers ------------------------------------------------

    def _overlay(self, config, rng: np.random.Generator, *, prefix: str,
                 sites=()) -> ServingFrontEnd:
        membership = (
            self.membership_service
            if self.membership_service is not None
            else OracleMembership(self.cloud)
        )
        return ServingFrontEnd(
            config, self.cloud, self.rings, self.catalog, membership,
            rng=rng,
            apps=[
                (app.app_id, ring.ring_id)
                for app in self.config.apps for ring in app.rings
            ],
            sites=sites, prefix=prefix,
        )

    def _apply_budgets(self, server_ids: Sequence[int]) -> None:
        for sid in server_ids:
            server = self.cloud.server(sid)
            server.replication_budget = BandwidthBudget(
                self.config.replication_budget
            )
            server.migration_budget = BandwidthBudget(
                self.config.migration_budget
            )

    def _seed_placement(self) -> None:
        """Place one replica of each partition on a random server.

        The paper starts from an arbitrary assignment and lets the
        replication process converge (Fig. 2); a single random replica
        per partition is the weakest such start — agents must build all
        redundancy themselves.
        """
        rng = self.streams.topology
        ids = self.cloud.server_ids
        for partition in self.rings.layout().partitions:
            order = rng.permutation(len(ids))
            placed = False
            for idx in order:
                server = self.cloud.server(ids[idx])
                if server.can_store(partition.size):
                    self.catalog.place(partition, server.server_id)
                    placed = True
                    break
            if not placed:
                raise SimulationError(
                    f"cloud too small to seed {partition.pid} "
                    f"({partition.size} bytes)"
                )

    # -- per-epoch machinery ------------------------------------------------

    def _refresh_proximity(self) -> None:
        self._g_of_app = {}
        for app in self.config.apps:
            if app.geography.is_uniform:
                self._g_of_app[app.app_id] = None
            else:
                self._g_of_app[app.app_id] = proximity_weights(
                    self.cloud, app.geography
                )
        self._g_dirty = False

    def _apply_inserts(self, epoch: int) -> InsertOutcome:
        outcome = InsertOutcome(epoch=epoch)
        workload = self.insert_workload
        cfg = self.config.inserts
        if workload is None or cfg is None or epoch < cfg.start_epoch:
            return outcome
        batch = workload.batch(
            epoch, self.rings.layout().partitions, self.popularity
        )
        outcome.attempted = batch.total_inserts
        for pid, count in batch.counts.items():
            partition = self.rings.partition(pid)
            replicas = [
                sid
                for sid in self.catalog.servers_of(pid)
                if sid in self.cloud and self.cloud.server(sid).alive
            ]
            if not replicas:
                outcome.failed += count
                continue
            headroom = min(
                self.cloud.server(sid).storage_available for sid in replicas
            )
            feasible = min(count, headroom // batch.object_size)
            if feasible > 0:
                nbytes = feasible * batch.object_size
                self.catalog.grow_replicas(pid, nbytes)
                partition.grow(nbytes)
                outcome.succeeded += feasible
                outcome.bytes_written += nbytes
            outcome.failed += count - feasible
        return outcome

    def _apply_splits(self) -> List[Tuple[PartitionId, PartitionId, PartitionId]]:
        """Split every overfull partition (cascading) across all rings."""
        done: List[Tuple[PartitionId, PartitionId, PartitionId]] = []
        if self.insert_workload is None:
            # Partition sizes only grow through the insert stream;
            # without one, nothing can ever be overfull (configs cap
            # initial_partition_size at the partition capacity) and the
            # per-ring overfull scan is dead weight in the epoch loop.
            return done
        for ring in self.rings:
            while True:
                overfull = [
                    p
                    for p in ring
                    if p.overfull
                    and p.key_range.span >= 2
                    and self.catalog.replica_count(p.pid) > 0
                ]
                if not overfull:
                    break
                for parent in overfull:
                    low, high = ring.split_partition(parent.pid)
                    self.catalog.split_partition(parent, low, high)
                    self.popularity.split(parent.pid, low.pid, high.pid)
                    done.append((parent.pid, low.pid, high.pid))
        return done

    def step(self) -> EpochFrame:
        """Advance the simulation by one epoch and return its frame."""
        epoch = self._epoch
        service = self.membership_service
        added, removed = self.events.apply(
            epoch, self.cloud, kill_only=service is not None
        )
        if added:
            self._apply_budgets(added)
        if service is None:
            for sid in removed:
                self.catalog.drop_server(sid)
        else:
            # Phase A: event-schedule kills become ghosts; heartbeat
            # rounds run over the faulty net; detected deaths complete
            # removal in kill order (the zero-fault config detects
            # every kill the same epoch, replaying the instant-removal
            # path above exactly).
            if added:
                service.register_added(added)
            if removed:
                service.record_kills(removed)
            service.begin_epoch(epoch)
            removed = service.run_membership_phase()
            for sid in removed:
                self.cloud.remove_server(sid)
                self.catalog.drop_server(sid)
                service.on_removed(sid)
        if added or removed:
            self._g_dirty = True
        update_board(
            self.board, epoch, self.cloud, self.config.rent_model,
            vectorized=self.config.kernel == "vectorized",
        )
        board = self.board
        if service is not None:
            # Phase B: disseminate the freshly posted column over the
            # faulty net; decide/settle consume whatever (possibly
            # stale) column the board observer's gossip view converged
            # on.  Zero-fault: ``effective_board`` returns the real
            # board object.
            service.publish_prices(epoch, self.board)
            board = service.effective_board(self.board)
        self.cloud.begin_epoch()
        self.transfers.begin_epoch()
        if self.retry_queue is not None:
            self.retry_queue.begin_epoch()
            self._drain_retries(epoch)
        if self._g_dirty:
            self._refresh_proximity()
        load = self.mix.draw(epoch, self.rings.layout(), self.popularity)
        self.decider.settle(load, board, self._g_of_app)
        stats: DecisionStats = self.decider.decide(
            board, load, self.streams.decisions, self._g_of_app
        )
        if self.retry_queue is not None:
            self._push_retries(epoch)
        insert_outcome = self._apply_inserts(epoch)
        self._apply_splits()
        if self.data_plane is not None:
            self.data_plane.step(epoch)
        if self.serving is not None:
            self.serving.step(epoch)
            self.serving_log.append(self.serving.collect_serving_frame())
        frame = self._collect(epoch, load, stats, insert_outcome)
        self.metrics.append(frame)
        if self.membership_service is not None:
            self.robustness.append(self._collect_control_plane(epoch))
        if self.data_plane is not None:
            self.robustness.append_data_plane(
                self.data_plane.collect_frame(epoch)
            )
        # Keep the agent ledger dense after retirement-heavy epochs so
        # batched settlement touches contiguous rows.
        self.registry.maybe_compact()
        self._epoch += 1
        return frame

    def run(self, epochs: Optional[int] = None) -> MetricsLog:
        """Run ``epochs`` (default: the configured horizon) and return metrics."""
        remaining = self.config.epochs if epochs is None else epochs
        if remaining < 0:
            raise SimulationError(f"epochs must be >= 0, got {remaining}")
        for __ in range(remaining):
            self.step()
        return self.metrics

    # -- faulty-network control plane ----------------------------------------

    def _drain_retries(self, epoch: int) -> None:
        """Re-attempt queued repair transfers whose backoff expired.

        Each due entry is re-validated first — the partition may have
        split away, the destination may have been removed, or a later
        repair may already have landed a replica there — and resolved
        as failed if stale.  A fresh source is picked among currently
        believed-live replicas (budget headroom permitting); a renewed
        network failure re-queues with doubled backoff.
        """
        queue = self.retry_queue
        service = self.membership_service
        self._retry_skip = set()
        for entry in queue.due(epoch):
            self._retry_skip.add((entry.pid, entry.dst, entry.kind))
            try:
                partition = self.rings.partition(entry.pid)
            except RingError:
                queue.resolve(False)
                continue
            if (
                entry.dst not in self.cloud
                or self.catalog.has_replica(entry.pid, entry.dst)
            ):
                queue.resolve(False)
                continue
            src = None
            best = -1
            for sid in self.catalog.servers_of(entry.pid):
                if sid == entry.dst or not service.believed(sid):
                    continue
                headroom = self.cloud.server(sid).replication_budget.available
                if headroom >= partition.size and headroom > best:
                    src = sid
                    best = headroom
            result = self.transfers.replicate(partition, src, entry.dst)
            if result.ok:
                queue.resolve(True)
            elif result.outcome in NETWORK_OUTCOMES:
                queue.requeue(entry, epoch)
            else:
                queue.resolve(False)

    def _push_retries(self, epoch: int) -> None:
        """Queue this epoch's network-failed repair replications."""
        queue = self.retry_queue
        skip = self._retry_skip
        for failure in self.transfers.stats.failures:
            if (
                failure.kind is TransferKind.REPLICATION
                and failure.outcome in NETWORK_OUTCOMES
                and (failure.pid, failure.dst, failure.kind) not in skip
            ):
                queue.push(failure, epoch)

    def _collect_control_plane(self, epoch: int) -> ControlPlaneFrame:
        service = self.membership_service
        queue = self.retry_queue
        pushed, retried, succeeded, dropped = queue.epoch_counts()
        stale_mean, stale_max = service.staleness()
        wasted = sum(
            1
            for f in self.transfers.stats.failures
            if f.outcome in NETWORK_OUTCOMES
        )
        return ControlPlaneFrame(
            epoch=epoch,
            messages=service.net.stats.epoch_counts(),
            actual_live=service.actual_live_count(),
            believed_live=service.believed_live_count(),
            ghosts=service.ghost_count,
            false_suspects=service.false_suspect_count,
            detections=service.last_detections,
            staleness_mean=stale_mean,
            staleness_max=stale_max,
            price_version_lag=service.price_version_lag,
            retries_pushed=pushed,
            retries_retried=retried,
            retries_succeeded=succeeded,
            retries_dropped=dropped,
            wasted_transfers=wasted,
            conflicting_repair_risk=service.net.split_replica_partitions(
                self.catalog
            ),
        )

    # -- observables -----------------------------------------------------------

    def _live_replicas(self, pid: PartitionId) -> List[int]:
        service = self.membership_service
        if service is not None:
            believed = service.believed
            return [
                sid
                for sid in self.catalog.servers_of(pid)
                if believed(sid)
            ]
        return [
            sid
            for sid in self.catalog.servers_of(pid)
            if sid in self.cloud and self.cloud.server(sid).alive
        ]

    def _server_histogram(self) -> ServerVnodeHistogram:
        """Fig. 2 vnodes-per-server counts, gathered from the catalog.

        One bincount over the catalog's flat replica view in cloud slot
        space — O(V) numpy instead of the O(S) per-server Python dict
        build the frames used to store.  Counts are identical to
        ``catalog.vnode_count(sid)`` per live server id (replicas on a
        transiently dead but still-registered server count, exactly as
        the dict did).
        """
        cloud = self.cloud
        # A fresh tuple per epoch: the frame store keeps the previous
        # epoch's equal tuple instead, so membership-stable runs still
        # store one.
        ids = tuple(cloud.server_ids)
        view = self.catalog.flat_view()
        lookup = cloud.slot_lookup()
        sids = view.server_ids
        slots = lookup[np.minimum(sids, len(lookup) - 1)]
        known = slots >= 0
        counts = np.bincount(
            slots[known], minlength=len(ids)
        ).astype(np.int64)
        return ServerVnodeHistogram(ids, counts)

    def _collect(self, epoch: int, load: EpochLoad, stats: DecisionStats,
                 inserts: InsertOutcome) -> EpochFrame:
        if self.avail_index is not None:
            vnodes_per_server = self._server_histogram()
        else:
            # Scalar reference kernel: the pre-refactor per-server walk.
            vnodes_per_server = {
                sid: self.catalog.vnode_count(sid)
                for sid in self.cloud.server_ids
            }
        vnodes_per_ring: Dict[Tuple[int, int], int] = {}
        queries_per_ring: Dict[Tuple[int, int], float] = {}
        avail_per_ring: Dict[Tuple[int, int], float] = {}
        unavailable = 0
        lost = 0
        # Eq. 2 values come from the epoch's incremental cache instead
        # of a fresh O(R²) recomputation per partition per epoch (the
        # scalar reference kernel keeps the recomputation).
        index = self.avail_index
        if index is not None:
            # Vectorized kernel: gather the per-ring series through
            # numpy from the maintained per-partition vectors (replica
            # counts and eq. 2 sums from the availability store, query
            # counts from the epoch load's dense vector).  Counts and
            # queries are exact integers and the availability values
            # come from the same cache in the same ring order, so every
            # aggregate is bit-identical to the scalar loop below.
            for key, pids, slots in self.rings.layout().rings:
                n = len(pids)
                counts = index.replica_counts_at(slots)
                queries = load.counts_at(slots)
                placed = counts > 0
                avails = index.availability_at(slots)[placed]
                vnodes_per_ring[key] = int(counts.sum())
                queries_per_ring[key] = float(queries[placed].sum())
                avail_per_ring[key] = (
                    float(np.mean(avails)) if avails.size else 0.0
                )
                unavailable += int(queries[~placed].sum())
                lost += int(n - int(placed.sum()))
        else:
            service = self.membership_service
            pred = service.predicate if service is not None else None
            queries_for = load.queries_for
            for ring in self.rings:
                key = (ring.app_id, ring.ring_id)
                count = 0
                served = 0.0
                avails: List[float] = []
                for partition in ring:
                    pid = partition.pid
                    queries = queries_for(pid)
                    replicas = self._live_replicas(pid)
                    count += len(replicas)
                    if replicas:
                        served += queries
                        avails.append(
                            availability(self.cloud, replicas, is_alive=pred)
                        )
                    else:
                        unavailable += queries
                        lost += 1
                vnodes_per_ring[key] = count
                queries_per_ring[key] = served
                avail_per_ring[key] = (
                    float(np.mean(avails)) if avails else 0.0
                )
        if isinstance(vnodes_per_server, ServerVnodeHistogram):
            # Rent-tier split as one masked sum over the count vector
            # (ids are in slot order, matching the rent column).
            counts = vnodes_per_server.counts
            rents = self.cloud.monthly_rent_vector()
            expensive = int(counts[rents > self.config.cheap_rent].sum())
            cheap = int(counts.sum()) - expensive
        else:
            expensive = 0
            cheap = 0
            for sid, n in vnodes_per_server.items():
                if (
                    self.cloud.server(sid).monthly_rent
                    > self.config.cheap_rent
                ):
                    expensive += n
                else:
                    cheap += n
        return EpochFrame(
            epoch=epoch,
            total_queries=load.total_queries,
            live_servers=len(self.cloud),
            vnodes_total=self.catalog.total_replicas,
            vnodes_per_ring=vnodes_per_ring,
            vnodes_per_server=vnodes_per_server,
            queries_per_ring=queries_per_ring,
            mean_availability_per_ring=avail_per_ring,
            unsatisfied_partitions=stats.unsatisfied_partitions,
            lost_partitions=lost,
            storage_used=self.cloud.total_storage_used,
            storage_capacity=self.cloud.total_storage_capacity,
            insert_attempts=inserts.attempted,
            insert_failures=inserts.failed,
            repairs=stats.repairs,
            economic_replications=stats.economic_replications,
            migrations=stats.migrations,
            suicides=stats.suicides,
            deferred=stats.deferred,
            min_price=self.board.min_price(),
            mean_price=self.board.mean_price(),
            max_price=self.board.max_price(),
            unavailable_queries=unavailable,
            vnodes_on_expensive=expensive,
            vnodes_on_cheap=cheap,
            replication_bytes=self.transfers.stats.replication_bytes,
            migration_bytes=self.transfers.stats.migration_bytes,
        )
