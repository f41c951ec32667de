"""Repair-chain semantics under the grouped (§II-C) repair kernel.

Pins the contracts the grouped repair kernel must preserve against the
sequential reference: the ``repair_iterations`` bound, source budget
exhaustion mid-chain, and grouped-round vs sequential-chain equivalence
on adversarial small clouds — eq. 3 score ties and capacity-constrained
rounds — with the certified shortlist window forced on.
"""

import numpy as np

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.agent import AgentRegistry
from repro.core.board import PriceBoard
from repro.core.decision import DecisionEngine
from repro.core.economy import RentModel
from repro.core.placement import PlacementScorer
from repro.core.policy import EconomicPolicy
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.store.replica import ReplicaCatalog
from repro.store.transfer import TransferEngine
from repro.workload.mix import EpochLoad

#: Two rack siblings in continent 0, one server in each of four other
#: continents — from any single replica, the four cross-continent
#: candidates carry *identical* eq. 3 diversity gain (63 each), so
#: with equal rents the argmax is decided purely by the first-index
#: tie-break the grouped kernel must reproduce.
LOCS = [
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0),
    (3, 0, 0, 0, 0, 0),
    (4, 0, 0, 0, 0, 0),
]


def build(threshold=20.0, *, partitions=1, policy=None, budgets=None,
          storage=None, initial_size=100, engine_cls=DecisionEngine):
    """A 6-server harness with per-server budget/storage overrides."""
    cloud = Cloud()
    for i, loc in enumerate(LOCS):
        cloud.add_servers([
            make_server(
                i, Location(*loc),
                monthly_rent=100.0,
                storage_capacity=(storage or {}).get(i, 10_000),
                replication_budget=(budgets or {}).get(i, 10_000),
                migration_budget=10_000,
            )
        ])
    rings = RingSet()
    ring = rings.add_ring(
        0, 0, AvailabilityLevel(threshold, 2), partitions,
        partition_capacity=1_000_000, initial_size=initial_size,
    )
    catalog = ReplicaCatalog(cloud)
    pol = policy or EconomicPolicy(hysteresis=2)
    registry = AgentRegistry(pol.hysteresis)
    transfers = TransferEngine(cloud, catalog)
    engine = engine_cls(cloud, rings, catalog, registry, transfers, pol)
    board = PriceBoard()
    board.post(0, RentModel(epochs_per_month=100).price_cloud(cloud))
    return cloud, rings, ring, catalog, registry, transfers, engine, board


def empty_load(ring):
    per_partition = {p.pid: 0 for p in ring}
    return EpochLoad(
        epoch=0, total_queries=0, per_app={0: 0},
        per_partition=per_partition,
    )


def forced_k_engine(k):
    """DecisionEngine whose scorer always builds k-slot shortlists."""

    class ForcedK(DecisionEngine):
        def _make_scorer(self, board):
            return PlacementScorer(
                self._cloud, board, shortlist_k=k, **self._scorer_terms()
            )

    return ForcedK


class TestRepairIterationBound:
    def test_chain_stops_at_repair_iterations(self):
        # Threshold far above what six servers can reach: the chain
        # must add exactly ``repair_iterations`` replicas, then report
        # the partition unsatisfied.
        policy = EconomicPolicy(hysteresis=2, repair_iterations=2)
        (cloud, rings, ring, catalog, registry, transfers, engine,
         board) = build(threshold=1000.0, policy=policy)
        p = ring.partitions()[0]
        catalog.place(p, 0)
        registry.spawn(p.pid, 0)
        stats = engine.decide(board, empty_load(ring), np.random.default_rng(0))
        assert stats.repairs == 2
        assert stats.unsatisfied_partitions == 1
        assert catalog.replica_count(p.pid) == 3

    def test_single_iteration_policy(self):
        policy = EconomicPolicy(hysteresis=2, repair_iterations=1)
        (cloud, rings, ring, catalog, registry, transfers, engine,
         board) = build(threshold=1000.0, policy=policy)
        p = ring.partitions()[0]
        catalog.place(p, 0)
        registry.spawn(p.pid, 0)
        stats = engine.decide(board, empty_load(ring), np.random.default_rng(0))
        assert stats.repairs == 1
        assert catalog.replica_count(p.pid) == 2


class TestBudgetExhaustionMidChain:
    def test_source_budget_exhausts_chain(self):
        # Source-side budget fits exactly one 100-byte copy: the chain
        # executes one repair, then defers (every live replica's
        # remaining budget is short).
        budgets = {i: 150 for i in range(6)}
        (cloud, rings, ring, catalog, registry, transfers, engine,
         board) = build(threshold=1000.0, budgets=budgets)
        p = ring.partitions()[0]
        catalog.place(p, 0)
        registry.spawn(p.pid, 0)
        stats = engine.decide(board, empty_load(ring), np.random.default_rng(0))
        assert stats.repairs == 1
        assert stats.deferred == 1
        assert stats.unsatisfied_partitions == 1


class TestGroupedVsSequentialChains:
    def run_with_k(self, k, *, storage=None, partitions=3, threshold=80.0,
                   budgets=None, seed=3):
        (cloud, rings, ring, catalog, registry, transfers, engine,
         board) = build(
            threshold=threshold, partitions=partitions, storage=storage,
            budgets=budgets, engine_cls=forced_k_engine(k),
        )
        for i, p in enumerate(ring.partitions()):
            catalog.place(p, i % 2)
            registry.spawn(p.pid, i % 2)
        stats = engine.decide(
            board, empty_load(ring), np.random.default_rng(seed)
        )
        placement = {
            p.pid: tuple(catalog.servers_of(p.pid))
            for p in ring.partitions()
        }
        return stats, placement

    def test_tied_scores_match_sequential(self):
        # Four cross-continent candidates tie on eq. 3 gain with equal
        # rents: the grouped window (k=2 — smaller than the tie class)
        # must resolve or fall back to exactly the sequential argmax.
        seq_stats, seq_place = self.run_with_k(0)
        for k in (2, 3, 5):
            grp_stats, grp_place = self.run_with_k(k)
            assert grp_place == seq_place
            assert grp_stats == seq_stats

    def test_capacity_constrained_rounds_match_sequential(self):
        # Only two candidate servers can store a copy at all, and
        # budgets admit a single transfer per server: every chain ends
        # capacity-constrained mid-round.
        storage = {2: 150, 3: 150, 4: 50, 5: 50}
        budgets = {i: 150 for i in range(6)}
        seq = self.run_with_k(
            0, storage=storage, budgets=budgets, threshold=1000.0
        )
        for k in (2, 4):
            grp = self.run_with_k(
                k, storage=storage, budgets=budgets, threshold=1000.0
            )
            assert grp == seq


def single_window(scorer, servers, key, k):
    """One class's top-k window built one set at a time — the reference
    the grouped build must reproduce: a full eq. 3 scoring pass over
    the epoch-start rents, the k best slots plus the lowest slot tying
    the best outside score, in (score descending, slot ascending)
    order."""
    score0 = scorer.scores(servers, cache_key=key)
    n = len(score0)
    if n > k:
        part = np.argpartition(-score0, k)
        bound = float(score0[part[k:]].max())
        bound_slot = int(np.argmax(score0 == bound))
        top = np.append(part[:k], bound_slot)
    else:
        top, bound, bound_slot = np.arange(n), -np.inf, n
    order = top[np.lexsort((top, -score0[top]))]
    return order, score0[order], bound, bound_slot


class TestGroupedShortlistPreload:
    def test_preload_matches_individual_builds(self):
        (cloud, rings, ring, catalog, registry, transfers, engine,
         board) = build(threshold=20.0)
        scorer = PlacementScorer(cloud, board, shortlist_k=3)
        reference = PlacementScorer(cloud, board, shortlist_k=3)
        entries = [
            (("key-a",), np.array([0]), None),
            (("key-b",), np.array([2]), None),
            (("key-c",), np.array([0, 3]), None),
        ]
        built = scorer.preload_shortlists(entries)
        assert built == 3
        for key, slots, __ in entries:
            servers = [int(s) for s in slots]
            skey = scorer._class_key(servers, key)
            grouped = scorer._shortlists[skey]
            slots, score0, bound, bound_slot = single_window(
                reference, servers, key, 3
            )
            assert grouped.slots.tolist() == slots.tolist()
            assert grouped.score0.tolist() == score0.tolist()
            assert grouped.bound == bound
            assert grouped.bound_slot == bound_slot

    def test_preloaded_best_equals_full_scan(self):
        (cloud, rings, ring, catalog, registry, transfers, engine,
         board) = build(threshold=20.0)
        scorer = PlacementScorer(cloud, board, shortlist_k=2)
        plain = PlacementScorer(cloud, board, shortlist_k=0)
        key = ("wave", 0)
        scorer.preload_shortlists([(key, np.array([0]), None)])
        fast = scorer.best([0], need_bytes=100, budget="replication",
                           cache_key=key)
        slow = plain.best([0], need_bytes=100, budget="replication")
        assert (fast.server_id, fast.score) == (slow.server_id, slow.score)
