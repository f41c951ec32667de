"""Repair-chain semantics of the §II-C pass.

Pins the ``repair_iterations`` bound, source budget exhaustion
mid-chain, and vectorized-vs-scalar kernel equality on adversarial
small clouds: eq. 3 score ties and capacity-constrained rounds.
"""

import numpy as np
import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.agent import AgentRegistry
from repro.core.availability import AvailabilityIndex
from repro.core.board import PriceBoard
from repro.core.decision import DecisionEngine
from repro.core.economy import RentModel
from repro.core.policy import EconomicPolicy
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.store.replica import ReplicaCatalog
from repro.store.transfer import TransferEngine
from repro.workload.mix import EpochLoad

#: Two rack siblings in continent 0, one server in each of four other
#: continents — from any single replica, the four cross-continent
#: candidates carry *identical* eq. 3 diversity gain (63 each), so
#: with equal rents the argmax is decided purely by the first-index
#: tie-break both epoch kernels must reproduce.
LOCS = [
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0),
    (3, 0, 0, 0, 0, 0),
    (4, 0, 0, 0, 0, 0),
]


def build(threshold=20.0, *, partitions=1, policy=None, budgets=None,
          storage=None, initial_size=100, kernel="vectorized"):
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
    # The vectorized registry shares the decider's partition index, as
    # in a Simulation: the kernel's alignment reads its slots.
    index = AvailabilityIndex(cloud, catalog) if kernel == "vectorized" else None
    registry = AgentRegistry(
        pol.hysteresis,
        partition_index=index.partition_index if index is not None else None,
    )
    transfers = TransferEngine(cloud, catalog)
    engine = DecisionEngine(
        cloud, rings, catalog, registry, transfers, pol, kernel=kernel,
        avail_index=index,
    )
    board = PriceBoard()
    board.post(0, RentModel(epochs_per_month=100).price_cloud(cloud))
    return cloud, rings, ring, catalog, registry, transfers, engine, board


def empty_load(ring):
    per_partition = {p.pid: 0 for p in ring}
    return EpochLoad(
        epoch=0, total_queries=0, per_app={0: 0},
        per_partition=per_partition,
    )


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


class TestVectorizedVsScalarChains:
    def run_kernel(self, kernel, *, storage=None, partitions=3,
                   threshold=80.0, budgets=None, seed=3):
        (cloud, rings, ring, catalog, registry, transfers, engine,
         board) = build(
            threshold=threshold, partitions=partitions, storage=storage,
            budgets=budgets, kernel=kernel,
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

    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_tied_scores_match_across_kernels(self, seed):
        # Four cross-continent candidates tie on eq. 3 gain with equal
        # rents: the vectorized pass (ceiling certificate, triage) must
        # resolve every tie to exactly the scalar kernel's argmax.
        scalar = self.run_kernel("scalar", seed=seed)
        assert self.run_kernel("vectorized", seed=seed) == scalar
        assert scalar[0].repairs

    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_capacity_constrained_rounds_match_across_kernels(self, seed):
        # Only two candidate servers can store a copy at all, and
        # budgets admit a single transfer per server: every chain ends
        # capacity-constrained mid-round.
        storage = {2: 150, 3: 150, 4: 50, 5: 50}
        budgets = {i: 150 for i in range(6)}
        runs = [
            self.run_kernel(
                kernel, storage=storage, budgets=budgets, threshold=1000.0,
                seed=seed,
            )
            for kernel in ("scalar", "vectorized")
        ]
        assert runs[0] == runs[1]
        assert runs[0][0].deferred or runs[0][0].unsatisfied_partitions
