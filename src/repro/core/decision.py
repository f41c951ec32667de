"""The per-epoch virtual-node decision process (paper §II-C).

At the end of every epoch each virtual node:

1. checks its partition's availability (eq. 2) against the ring's
   threshold and **replicates** to the eq. 3 best server when short;
2. otherwise, with a *negative* balance for the last ``f`` epochs,
   **suicides** when availability stays satisfied without it, else
   **migrates** to a cheaper server closer to its clients;
3. with a *positive* balance for the last ``f`` epochs, **replicates**
   if its popularity compensates the added consistency cost and the
   candidate's rent;
4. otherwise does nothing.

Utilities are floored at the epoch's lowest virtual rent so unpopular
nodes stop migrating once they sit on the cheapest viable server.
All bookkeeping flows through the transfer engine (bandwidth budgets)
and the replica catalog (storage, and the agents' ledger rows it owns),
so a decision that cannot be executed this epoch is simply retried
later.

The engine also fronts eq. 5 settlement (:mod:`repro.core.settlement`)
and owns the :class:`~repro.core.incidence.Incidence` both passes read;
the knobs and stats live in :mod:`repro.core.policy`.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.topology import Cloud
from repro.core.agent import AgentRegistry
from repro.core.availability import AvailabilityIndex, availability, pair_gain
from repro.core.board import PriceBoard
from repro.core.economy import RentModel
from repro.core.incidence import Incidence, Triage
from repro.core.placement import PlacementScorer
from repro.core.policy import (
    KERNELS, REVENUE_PER_QUERY, DecisionStats, EconomicPolicy, KernelError,
)
from repro.core.settlement import settle_batched, settle_scalar
from repro.net.membership import OracleMembership
from repro.ring.partition import Partition, PartitionId, gather_int
from repro.ring.virtualring import RingSet
from repro.store.consistency import DEFAULT_CONSISTENCY
from repro.store.replica import ReplicaCatalog
from repro.store.transfer import TransferEngine, TransferKind
from repro.workload.mix import EpochLoad

#: The most replicas one SLA repair may add to a partition in an epoch.
REPAIR_ITERATIONS = 8


class DecisionEngine:
    """Runs settlement (eq. 5) and decisions (§II-C) for the whole cloud."""

    def __init__(self, cloud: Cloud, rings: RingSet,
                 catalog: ReplicaCatalog, registry: AgentRegistry,
                 transfers: TransferEngine,
                 policy: EconomicPolicy,
                 rent_model: Optional[RentModel] = None,
                 kernel: str = "vectorized",
                 avail_index: Optional[AvailabilityIndex] = None,
                 membership=None) -> None:
        if kernel not in KERNELS:
            raise KernelError(
                f"kernel must be one of {KERNELS}, got {kernel!r}"
            )
        self._rent_model = rent_model if rent_model is not None else RentModel()
        self._cloud = cloud
        # The MembershipView seam: every liveness read below goes
        # through ``self._membership`` — the oracle default delegates
        # straight to the cloud (pre-existing behavior, byte-for-byte),
        # a gossip-backed service substitutes *believed* columns.
        self._membership = (
            membership if membership is not None
            else OracleMembership(cloud)
        )
        self._rings = rings
        self._catalog = catalog
        self._registry = registry
        self._transfers = transfers
        self._policy = policy
        self._kernel = kernel
        # Eq. 2 memo keyed by the sorted live replica set (scalar kernel
        # only).  Valid for the lifetime of the engine: server ids are
        # never reused and pairwise diversity/confidence are immutable,
        # so a replica set's availability can never change value.
        self._avail_memo: Dict[Tuple[int, ...], float] = {}
        self._live_ids: frozenset = frozenset()
        self._index: Optional[AvailabilityIndex] = None
        if kernel == "vectorized":
            self._index = (
                avail_index if avail_index is not None
                else AvailabilityIndex(cloud, catalog)
            )
            # The work list's slots must address the eq. 2 store's index.
            rings.use_partition_index(self._index.partition_index)
        #: The live replica/agent incidence settlement and triage read.
        self.incidence = Incidence(
            cloud, rings, catalog, self._membership, self._index
        )
        #: Run totals of the per-epoch scorers' floor counters: skip
        #: queries the §II-C pass put to :meth:`PlacementScorer.
        #: rent_floor` (migration hunts + expansions) and how many the
        #: floor proved fruitless; the difference went on to an eq. 3
        #: scan.
        self.floor_asks = 0
        self.floor_proofs = 0
        #: Visited partitions :meth:`_fruitless` proved whole, unwalked.
        self.floor_skips = 0
        #: Run totals of the scorers' ceiling counters (builds split by
        #: cause), and migration hunts put to / refused by
        #: :meth:`_refused_at_source`.
        self.ceil_asks = self.ceil_proofs = 0
        self.ceil_builds_first = self.ceil_builds_winner = 0
        self.ceil_builds_release = 0
        self.source_first_asks = self.source_first_proofs = 0

    @classmethod
    def from_context(cls, ctx, **extra) -> "DecisionEngine":
        """This decider over a :class:`~repro.sim.engine.SimContext` —
        believed membership included — the one way every decider
        factory builds one; ``extra`` goes to the subclass."""
        return cls(
            ctx.cloud, ctx.rings, ctx.catalog, ctx.registry, ctx.transfers,
            ctx.policy, rent_model=ctx.rent_model, kernel=ctx.kernel,
            avail_index=ctx.avail_index, membership=ctx.membership,
            **extra,
        )

    @property
    def ceil_builds(self) -> int:
        """Run total of the scorers' O(S) certificate builds."""
        return (self.ceil_builds_first + self.ceil_builds_winner
                + self.ceil_builds_release)

    # The frozen benchmark reads these counters off the decider.  The
    # catalog carries each replica's ledger row, so there is no
    # catalog↔ledger alignment left to splice, rebuild or reuse.
    align_splices = align_rebuilds = align_reuses = 0

    def settle(self, load: EpochLoad, board: PriceBoard,
               g_of_app: Optional[Dict[int, np.ndarray]] = None) -> None:
        """Charge queries to servers and record every agent's balance
        (eq. 5, :mod:`repro.core.settlement`); the charged query
        counters are the next epoch's eq. 1 query load."""
        if self._kernel == "vectorized":
            settle_batched(
                self._cloud, self._catalog.ledger, self.incidence,
                self._index, load, board, g_of_app,
            )
        else:
            settle_scalar(
                self._cloud, self._catalog, self._registry,
                self._live_replicas, load, board, g_of_app,
            )

    # -- the §II-C pass --------------------------------------------------------

    def decide(self, board: PriceBoard, load: EpochLoad,
               rng: np.random.Generator,
               g_of_app: Optional[Dict[int, np.ndarray]] = None
               ) -> DecisionStats:
        """One full decision pass over every partition of every ring."""
        stats = DecisionStats()
        scorer = self._make_scorer(board)
        # Liveness is fixed for the whole decision pass (failures land
        # between epochs, belief flips in the membership phase); one
        # set build serves every partition.  The believed column
        # replaces the per-server attribute walk (and in the
        # overwhelmingly common all-alive case, the compress too).
        ids = self._cloud.server_ids
        alive = self._membership.believed_vector()
        if alive.all():
            self._live_ids = frozenset(ids)
        else:
            self._live_ids = frozenset(
                itertools.compress(ids, alive.tolist())
            )
        layout = self._rings.layout()
        work = layout.work
        order = rng.permutation(len(work))
        if self._index is None:
            for idx in order:
                partition, threshold = work[idx]
                g_vec = None
                if g_of_app is not None:
                    g_vec = g_of_app.get(partition.pid.app_id)
                self._decide_partition(
                    partition, threshold, board, scorer, load, g_vec,
                    stats,
                )
            return stats
        # Vectorized kernel: pre-triage every partition with one array
        # pass.  A partition is *skipped* only when the per-agent §II-C
        # walk would provably do nothing — its SLA holds and every
        # streaked agent fails the same suicide/migration precheck the
        # inline loop applies — which depends solely on that partition's
        # own membership and the epoch-static price board, so actions on
        # earlier-visited partitions cannot invalidate the mask.  The
        # mask is applied to the permutation as one vector filter, so
        # the Python loop below only ever touches partitions that act.
        triage = self.incidence.build_triage(
            board, self._policy.migration_margin
        )
        # Per work entry, the segment a partition proof may skip; else -1.
        provable = [-1] * len(work)
        if triage.visit.size:
            seg_of_work = gather_int(
                triage.flat.seg_by_slot, layout.slots, fill=-1
            )
            segs = np.maximum(seg_of_work, 0)
            visit_work = np.where(seg_of_work >= 0, triage.visit[segs], True)
            order = order[visit_work[order]]
            if scorer.best_is_pure:
                provable = np.where(
                    (seg_of_work >= 0) & ~triage.walk[segs], seg_of_work, -1
                ).tolist()
        # Every §II-C action of the pass queues into one shared transfer
        # batch: its pending-resource mirrors are the pass's shared
        # budget/storage vectors (each intent sees real state minus all
        # earlier intents — exactly what an immediate executor would
        # see), and the single commit applies the epoch's transfers as
        # one grouped application.
        batch = self._transfers.open_batch()
        for idx in order.tolist():
            partition, threshold = work[idx]
            seg = provable[idx]
            if seg >= 0 and self._fruitless(
                partition, triage, seg, scorer, load
            ):
                continue
            g_vec = None
            if g_of_app is not None:
                g_vec = g_of_app.get(partition.pid.app_id)
            self._decide_partition(
                partition, threshold, board, scorer, load, g_vec, stats,
                batch,
            )
        batch.commit()
        self.floor_asks += scorer.floor_asks
        self.floor_proofs += scorer.floor_proofs
        self.ceil_asks += scorer.ceil_asks
        self.ceil_proofs += scorer.ceil_proofs
        self.ceil_builds_first += scorer.ceil_builds_first
        self.ceil_builds_winner += scorer.ceil_builds_winner
        self.ceil_builds_release += scorer.ceil_builds_release
        return stats

    def _decide_partition(self, partition: Partition, threshold: float,
                          board: PriceBoard, scorer: PlacementScorer,
                          load: EpochLoad, g_vec: Optional[np.ndarray],
                          stats: DecisionStats,
                          batch=None) -> None:
        pid = partition.pid
        # ``servers`` is threaded through the action helpers below and
        # kept an exact mirror of the catalog's (live) replica list, so
        # one build per partition replaces the per-agent rebuilds the
        # scalar engine paid for.
        if self._index is not None:
            live = self._live_ids
            servers = [
                sid
                for sid in self._catalog.replica_servers(pid)
                if sid in live
            ]
        else:
            servers = self._live_replicas(pid)
        if not servers:
            stats.lost_partitions += 1
            return
        avail = self._avail_of(pid, servers)
        if avail < threshold:
            self._repair(
                partition, threshold, avail, scorer, g_vec, stats, servers,
                batch,
            )
            return
        # Availability satisfied: each agent optimises its own cost.
        if self._index is None:
            for agent in self._registry.of_partition(pid):
                if agent.negative_streak:
                    self._shed(partition, threshold, agent.server_id, board,
                               scorer, g_vec, stats, servers)
                elif agent.positive_streak:
                    self._expand(partition, agent.row, agent.server_id,
                                 board, scorer, load, g_vec, stats, servers)
            return
        # Vectorized kernel: same decisions, with the overwhelmingly
        # common no-action case triaged inline.  At economic equilibrium
        # most agents carry a negative streak, cannot suicide (their
        # replica is load-bearing for the SLA) and sit too close to the
        # epoch's minimum rent to migrate — that triple check is the
        # epoch kernel's innermost loop, so it runs without the helper
        # call; :meth:`_shed` re-derives the same (memoised) quantities
        # on the rare action path.  Availability is threaded *locally*
        # through the helpers (mirroring the exact eq. 2 deltas the
        # deferred batch will apply at commit) because the shared
        # batch's catalog mutations are not visible to the index until
        # the pass ends.
        one_minus_margin = 1.0 - self._policy.migration_margin
        min_price = board.min_price()
        price = board.price
        contribution = self._index.contribution
        # O(1) streak reads: the ledger keeps the flag lists current
        # through every record/reset/acquire/release, so indexing them
        # is the same boolean the ``negative_streak``/``positive_streak``
        # properties would compute from the window.
        neg_flags, pos_flags = self._catalog.ledger.streak_flags()
        # Snapshot the agents (rows and servers, in catalog order): a
        # suicide below edits the catalog's lists in place.
        catalog = self._catalog
        for row, sid in list(zip(catalog.rows_of(pid),
                                 catalog.replica_servers(pid))):
            if neg_flags[row]:
                if sid not in servers:
                    continue
                if avail - contribution(pid, sid, servers) < threshold:
                    # No suicide; migration needs a meaningfully
                    # cheaper host to exist at all.
                    if price(sid) * one_minus_margin <= min_price:
                        continue
                avail = self._shed(partition, threshold, sid, board,
                                   scorer, g_vec, stats, servers,
                                   avail=avail, batch=batch)
            elif pos_flags[row]:
                avail = self._expand(partition, row, sid, board, scorer,
                                     load, g_vec, stats, servers,
                                     avail=avail, batch=batch)

    def _repair(self, partition: Partition, threshold: float, avail: float,
                scorer: PlacementScorer, g_vec: Optional[np.ndarray],
                stats: DecisionStats, servers: List[int],
                batch=None) -> None:
        """Replicate until the SLA is met (bounded per epoch).

        The vectorized kernel queues the repair chain into the decision
        pass's shared :class:`~repro.store.transfer.TransferBatch` —
        feasibility is checked against the batch's exact pending
        mirrors, the chain's availability is advanced with the same
        ``pair_gain`` expression the catalog listener applies at
        execution, and the whole pass's transfers then run as one
        grouped application.  Decisions, stats and post-commit state
        are identical to the one-at-a-time reference path.
        """
        pid = partition.pid
        if self._index is None:
            # Reference kernel: rebuild the live set per iteration and
            # execute transfers immediately, as pre-refactor.
            for __ in range(REPAIR_ITERATIONS):
                servers = self._live_replicas(pid)
                if avail >= threshold:
                    return
                source = self._pick_source(servers, partition.size)
                if source is None:
                    stats.deferred += 1
                    stats.unsatisfied_partitions += 1
                    return
                candidate = scorer.best(
                    servers, need_bytes=partition.size, g=g_vec,
                    budget="replication",
                )
                if candidate is None:
                    stats.unsatisfied_partitions += 1
                    return
                result = self._transfers.replicate(
                    partition, source, candidate.server_id
                )
                if not result.ok:
                    stats.deferred += 1
                    stats.unsatisfied_partitions += 1
                    return
                scorer.consume_budget(
                    candidate.server_id, partition.size, "replication"
                )
                servers.append(candidate.server_id)
                stats.repairs += 1
                avail = self._avail_of(pid, servers)
            if avail < threshold:
                stats.unsatisfied_partitions += 1
            return
        satisfied = False
        for __ in range(REPAIR_ITERATIONS):
            if avail >= threshold:
                satisfied = True
                break
            source = self._pick_source(servers, partition.size, batch)
            if source is None:
                stats.deferred += 1
                stats.unsatisfied_partitions += 1
                return
            candidate = scorer.best(
                servers, need_bytes=partition.size, g=g_vec,
                budget="replication",
                cache_key=(pid, tuple(servers)),
            )
            if candidate is None:
                stats.unsatisfied_partitions += 1
                return
            blocked = batch.add_replication(
                partition, source, candidate.server_id
            )
            if blocked is not None:
                stats.deferred += 1
                stats.unsatisfied_partitions += 1
                return
            scorer.consume_budget(
                candidate.server_id, partition.size, "replication"
            )
            # Same expression (and operand order) as the availability
            # index's replica_added listener applies at commit, so the
            # chain-local value stays bit-identical to the post-commit
            # cached sum the next reader sees.
            avail = avail + pair_gain(
                self._cloud, servers, candidate.server_id,
                is_alive=self._membership.predicate,
            )
            servers.append(candidate.server_id)
            stats.repairs += 1
        if not satisfied and avail < threshold:
            stats.unsatisfied_partitions += 1

    def _shed(self, partition: Partition, threshold: float,
              src: int, board: PriceBoard,
              scorer: PlacementScorer, g_vec: Optional[np.ndarray],
              stats: DecisionStats, servers: List[int],
              avail: float = 0.0, batch=None) -> float:
        """Negative streak: the agent on ``src`` suicides if safe, else
        migrates somewhere cheaper.

        Under the vectorized kernel the caller threads the partition's
        current eq. 2 availability through ``avail`` (the shared batch
        defers catalog commits, so the index would read stale sums
        mid-pass); the return value is the availability after whatever
        action was taken, advanced with the exact pair-term deltas the
        batch's commit will apply.  The scalar reference ignores both.
        """
        pid = partition.pid
        if self._index is None:
            # Reference kernel: per-agent rebuild, as pre-refactor.
            servers = self._live_replicas(pid)
            if src not in servers:
                return avail
            remaining = self._avail_without(pid, servers, src)
        else:
            if src not in servers:
                return avail
            remaining = avail - self._index.contribution(
                pid, src, servers
            )
        if remaining >= threshold:
            self._transfers.suicide(partition, src)
            scorer.release_storage(src, partition.size)
            servers.remove(src)
            stats.suicides += 1
            return remaining
        # Require a *meaningfully* cheaper host.  At equilibrium, posted
        # prices differ only by small usage terms; without this margin
        # every vnode above the epoch's minimum price migrates forever,
        # which is exactly the thrashing the paper's utility floor is
        # meant to prevent.
        current_rent = board.price(src)
        rent_cap = current_rent * (1.0 - self._policy.migration_margin)
        min_price = (
            board.min_price() if self._index is not None
            else board.scan_min_price()
        )
        if rent_cap <= min_price:
            # No server can be priced below the cap — skip the scoring
            # pass entirely (this is where cold vnodes settle).
            return avail
        # A partition larger than the migration budget can never move on
        # that budget (the paper's own parameters allow this: 256 MB
        # partitions vs 100 MB/epoch migration), so such moves ride the
        # roomier replication budget instead: replicate to the target,
        # then suicide the source copy.
        budget_kind = "migration"
        if partition.size > self._cloud.server(src).migration_budget.capacity:
            budget_kind = "replication"
        if self._index is not None and scorer.best_is_pure:
            if scorer.no_cheaper_host(
                rent_cap, partition.size, budget_kind,
                self._policy.storage_headroom,
            ):
                # Every still-feasible destination already charges at
                # least the cap (earlier moves of this pass filled or
                # repriced the cheap ones): the scan would come back empty.
                return avail
            if self._refused_at_source(
                scorer, batch, partition, src, servers, rent_cap, budget_kind
            ):
                stats.deferred += 1
                return avail
        others = [sid for sid in servers if sid != src]
        candidate = scorer.best(
            others,
            need_bytes=partition.size,
            g=g_vec,
            max_rent=rent_cap,
            exclude=(src,),
            budget=budget_kind,
            headroom_fraction=self._policy.storage_headroom,
            cache_key=(
                (pid, tuple(others)) if self._index is not None else None
            ),
        )
        if candidate is None:
            return avail
        kind = TransferKind(budget_kind)
        if self._index is not None:
            # Vectorized kernel: queue the move into the pass's shared
            # intent batch as one vacating intent — the mirrors make its
            # checks (and deferred/failure stats) identical to an
            # immediate call, and the grouped commit applies it (the
            # catalog's move, which carries the agent's ledger row)
            # before the next state read outside the pass.
            blocked = batch.add_migration(
                partition, src, candidate.server_id, kind
            )
            if blocked is not None:
                stats.deferred += 1
                return avail
            # Local eq. 2 ledger: add dst against the pre-move set,
            # then remove src against the post-move set — the exact
            # deltas (and operand order) the catalog listener applies
            # when the queued move commits.
            self._index.invalidate_contribution(pid)
            pred = self._membership.predicate
            avail = avail + pair_gain(
                self._cloud, servers, candidate.server_id, is_alive=pred,
            )
            avail = avail - pair_gain(
                self._cloud, others + [candidate.server_id],
                src, is_alive=pred,
            )
        else:
            result = self._transfers.migrate(
                partition, src, candidate.server_id, kind
            )
            if not result.ok:
                stats.deferred += 1
                return avail
        scorer.consume_budget(
            candidate.server_id, partition.size, budget_kind
        )
        scorer.release_storage(src, partition.size)
        # Mirror the catalog's list order: dst appended, src removed.
        servers.remove(src)
        servers.append(candidate.server_id)
        stats.migrations += 1
        return avail

    def _expand(self, partition: Partition, row: int, src: int,
                board: PriceBoard, scorer: PlacementScorer,
                load: EpochLoad, g_vec: Optional[np.ndarray],
                stats: DecisionStats, servers: List[int],
                avail: float = 0.0, batch=None) -> float:
        """Positive streak: the agent on ``src`` (ledger ``row``)
        replicates when popularity funds the new copy.

        Vectorized kernel: the transfer queues into the pass's shared
        batch and the partition's availability is advanced locally (see
        :meth:`_shed`); returns the post-action availability.
        """
        pid = partition.pid
        if self._index is None:
            # Reference kernel: per-agent rebuild, as pre-refactor.
            servers = self._live_replicas(pid)
        predicted_utility, sync_cost = self._funding(pid, len(servers), load)
        if (
            self._index is not None
            and scorer.best_is_pure
            and scorer.no_fundable_host(
                predicted_utility, sync_cost, partition.size,
                "replication", self._policy.storage_headroom,
            )
        ):
            # No still-feasible candidate could be funded right now, so
            # the eq. 3 scoring pass is skipped — provably the same
            # outcome as scoring and then failing the funding test below
            # (or finding no candidate at all).
            return avail
        candidate = scorer.best(
            servers, need_bytes=partition.size, g=g_vec,
            budget="replication",
            headroom_fraction=self._policy.storage_headroom,
            cache_key=(
                (pid, tuple(servers)) if self._index is not None else None
            ),
        )
        if candidate is None:
            return avail
        # The candidate's rent will rise once this replica's bytes land
        # there (§II-C: "the potentially increased virtual rent of the
        # candidate server after replication").
        predicted_rent = candidate.rent + scorer.anticipated_rent_bump(
            candidate.server_id, partition.size
        )
        if predicted_utility < predicted_rent + sync_cost:
            return avail
        if self._index is not None:
            blocked = batch.add_replication(
                partition, src, candidate.server_id
            )
            if blocked is not None:
                stats.deferred += 1
                return avail
            self._index.invalidate_contribution(pid)
            avail = avail + pair_gain(
                self._cloud, servers, candidate.server_id,
                is_alive=self._membership.predicate,
            )
        else:
            result = self._transfers.replicate(
                partition, src, candidate.server_id
            )
            if not result.ok:
                stats.deferred += 1
                return avail
        scorer.consume_budget(
            candidate.server_id, partition.size, "replication"
        )
        # §II-C: the replicating agent restarts its window (the copy's
        # agent starts with a fresh row when the catalog places it).
        self._catalog.ledger.reset_window(row)
        servers.append(candidate.server_id)
        stats.economic_replications += 1
        return avail

    # -- helpers of the pass --------------------------------------------------

    def _fruitless(self, partition: Partition, triage: Triage, seg: int,
                   scorer: PlacementScorer, load: EpochLoad) -> bool:
        """Whether every agent walk of a visited partition would end in
        a rent-floor proof (docs/ARCHITECTURE.md, "clocked rent
        floors"): nothing acts in between, so one proof answers every
        hunt and one every expansion.  Asked uncounted; on proof the
        scorer counts every ask the walk would have made."""
        size, headroom = partition.size, self._policy.storage_headroom
        hunters = int(triage.hunters[seg])
        if hunters:
            mig_min = triage.mig_min[seg]
            if mig_min < size <= triage.mig_max[seg]:
                return False  # two budget kinds ask two floors
            kind = "migration" if size <= mig_min else "replication"
            if not scorer.no_cheaper_host(
                triage.cap_max[seg], size, kind, headroom, asks=0
            ):
                return False
        expanders = int(triage.expanders[seg])
        if expanders:
            utility, sync = self._funding(
                partition.pid, int(triage.flat.counts[seg]), load
            )
            if not scorer.no_fundable_host(
                utility, sync, size, "replication", headroom, asks=0
            ):
                return False
        scorer.floor_asks += hunters + expanders
        scorer.floor_proofs += hunters + expanders
        self.floor_skips += 1
        return True

    def _funding(self, pid: PartitionId, n: int,
                 load: EpochLoad) -> Tuple[float, float]:
        """An expansion's predicted per-replica utility and marginal
        sync cost, with ``n`` live replicas before it (§II-C)."""
        queries = load.queries_for(pid)
        return (
            REVENUE_PER_QUERY * queries / (n + 1),
            DEFAULT_CONSISTENCY.marginal_cost(queries, n),
        )

    def _make_scorer(self, board: PriceBoard) -> PlacementScorer:
        """Build the epoch's placement scorer; ablations override this."""
        return PlacementScorer(
            self._cloud, board, **self._scorer_terms()
        )

    def _scorer_terms(self) -> dict:
        """The believed column and rent-model terms every scorer of this
        decider is built with, the ablations' included."""
        return dict(
            storage_alpha=self._rent_model.alpha,
            alive_override=self._membership.believed_vector(),
        )

    def _live_replicas(self, pid: PartitionId) -> List[int]:
        believed = self._membership.believed
        return [
            sid
            for sid in self._catalog.servers_of(pid)
            if believed(sid)
        ]

    def _availability_set(self, servers: Sequence[int]) -> float:
        pred = self._membership.predicate
        key: Tuple = tuple(sorted(servers))
        if pred is not None:
            # Belief flips change a set's value; the view version keys
            # the memo only while a non-physical belief is active, so
            # the oracle path keeps the engine-lifetime keys untouched.
            key = (self._membership.version, key)
        cached = self._avail_memo.get(key)
        if cached is None:
            cached = availability(self._cloud, servers, is_alive=pred)
            self._avail_memo[key] = cached
        return cached

    def _avail_of(self, pid: PartitionId, servers: Sequence[int]) -> float:
        """Eq. 2 availability of ``pid`` — incremental cache or memo."""
        if self._index is not None:
            return self._index.availability_of(pid)
        return self._availability_set(servers)

    def _avail_without(self, pid: PartitionId, servers: Sequence[int],
                       excluded: int) -> float:
        """The §II-C suicide test: availability minus one replica.

        The incremental kernel subtracts the excluded replica's pair
        terms from the cached sum (O(R)); the scalar kernel recomputes
        the remaining set's O(R²) pair sum through the memo.
        """
        if self._index is not None:
            return (
                self._index.availability_of(pid)
                - self._index.contribution(pid, excluded, servers)
            )
        return self._availability_set(
            [sid for sid in servers if sid != excluded]
        )

    def _refused_at_source(self, scorer: PlacementScorer, batch,
                           partition: Partition, src: int,
                           servers: List[int], rent_cap: float,
                           budget_kind: str) -> bool:
        """Source-first refusal: a move ``src`` cannot ship needs no hunt.

        The batch checks the source's budget before the destination's,
        so a short mirrored budget at ``src`` ends the intent in
        ``NO_SOURCE_BANDWIDTH`` whatever the eq. 3 argmax is — provided
        the hunt finds *some* candidate (None has different stats) and
        the scorer is pure (the caller's check).  Never under ``net``:
        there the liveness and reachability outcomes come first and
        feed the retry queue and the wasted-transfer tally.
        """
        if (
            self._membership.predicate is not None
            or self._transfers.reachability is not None
        ):
            return False
        self.source_first_asks += 1
        kind = TransferKind(budget_kind)
        if batch.budget_available(src, kind) >= partition.size or (
            not scorer.cheaper_host_exists(
                rent_cap, partition.size, budget_kind,
                self._policy.storage_headroom, servers,
            )
        ):
            return False
        self.source_first_proofs += 1
        batch.refuse_at_source(partition, src, kind)
        return True

    def _pick_source(self, servers: Sequence[int], nbytes: int,
                     batch=None) -> Optional[int]:
        """A live replica whose replication budget can ship ``nbytes``.

        With a pending :class:`~repro.store.transfer.TransferBatch`,
        availability is read through its mirror (real budget minus the
        chain's queued reservations) — the same value the server object
        would show had the queued transfers already executed.
        """
        read = batch.budget_available if batch is not None else (
            lambda sid: self._cloud.server(sid).replication_budget.available
        )
        best, headroom = None, -1
        for sid in servers:
            avail = read(sid)
            if avail >= nbytes and avail > headroom:
                best, headroom = sid, avail
        return best
