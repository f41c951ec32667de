"""Behavioural tests for the §II-C decision process."""

import numpy as np
import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.agent import AgentRegistry
from repro.core.availability import AvailabilityIndex, availability
from repro.core.board import PriceBoard
from repro.core.decision import DecisionEngine
from repro.core.economy import RentModel
from repro.core.policy import EconomicPolicy, KernelError, PolicyError
from repro.net.membership import OracleMembership
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.store.replica import ReplicaCatalog
from repro.store.transfer import TransferEngine
from repro.workload.mix import EpochLoad

RNG = np.random.default_rng(0)

#: Six servers: two racks in continent 0, one server in each of four
#: other continents.  Index -> location.
LOCS = [
    (0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (1, 0, 0, 0, 0, 0),
    (2, 0, 0, 0, 0, 0),
    (3, 0, 0, 0, 0, 0),
    (4, 0, 0, 0, 0, 0),
]


def harness(threshold=20.0, *, partitions=1, policy=None, rents=None,
            storage=10_000, initial_size=100, kernel="vectorized",
            budgets=None, membership=None):
    """``budgets`` maps a server to its (replication, migration)
    budget capacities, 10 000 bytes each by default; ``membership``
    builds the decider's membership view from the cloud."""
    cloud = Cloud()
    for i, loc in enumerate(LOCS):
        replication, migration = (budgets or {}).get(i, (10_000, 10_000))
        cloud.add_servers([
            make_server(
                i, Location(*loc),
                monthly_rent=(rents or {}).get(i, 100.0),
                storage_capacity=storage,
                replication_budget=replication,
                migration_budget=migration,
            )
        ])
    rings = RingSet()
    ring = rings.add_ring(
        0, 0, AvailabilityLevel(threshold, 2), partitions,
        partition_capacity=1_000_000, initial_size=initial_size,
    )
    pol = policy or EconomicPolicy(hysteresis=2)
    catalog = ReplicaCatalog(cloud, window=pol.hysteresis)
    index = AvailabilityIndex(cloud, catalog)
    registry = AgentRegistry(catalog)
    transfers = TransferEngine(cloud, catalog)
    engine = DecisionEngine(
        cloud, rings, catalog, registry, transfers, pol, kernel=kernel,
        avail_index=index,
        membership=membership(cloud) if membership is not None else None,
    )
    board = PriceBoard()
    board.post(0, RentModel().price_cloud(cloud))
    return cloud, rings, ring, catalog, registry, transfers, engine, board


def load_for(ring, queries=0, rings=None):
    """``queries`` per partition of ``ring``; dense in the ring set's
    partition slot space when one is given (what settlement reads)."""
    total = queries * len(ring)
    if rings is None:
        return EpochLoad(
            epoch=0, total_queries=total, per_app={0: total},
            per_partition={p.pid: queries for p in ring},
        )
    index = rings.layout().index
    slots = [index.slot_of(p.pid) for p in ring]
    counts = np.zeros(len(index), dtype=np.int64)
    counts[slots] = queries
    return EpochLoad(
        epoch=0, total_queries=total, per_app={0: total},
        counts=counts, index=index,
    )


def force_streak(registry, pid, sign):
    # ``balances`` is a snapshot of the array ledger, so streaks are
    # driven through the accounting API: balance = utility - rent.
    for agent in registry.of_partition(pid):
        for __ in range(agent.window):
            agent.record(max(sign, 0.0), max(-sign, 0.0))


class TestPolicyValidation:
    def test_invalid_hysteresis(self):
        with pytest.raises(PolicyError):
            EconomicPolicy(hysteresis=0)

    def test_invalid_margin(self):
        with pytest.raises(PolicyError):
            EconomicPolicy(migration_margin=1.0)


class TestRepair:
    def test_repairs_until_threshold(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=20.0
        )
        p = ring.partitions()[0]
        catalog.place(p, 0)
        stats = engine.decide(board, load_for(ring), RNG)
        servers = catalog.servers_of(p.pid)
        assert availability(cloud, servers) >= 20.0
        assert stats.repairs >= 1
        assert stats.unsatisfied_partitions == 0
        # Every replica has an agent.
        for sid in servers:
            assert registry.get(p.pid, sid).server_id == sid

    def test_repair_picks_cross_continent(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=20.0
        )
        p = ring.partitions()[0]
        catalog.place(p, 0)
        engine.decide(board, load_for(ring), RNG)
        added = [s for s in catalog.servers_of(p.pid) if s != 0]
        # Max diversity candidates are the other continents (2..5),
        # never the same-rack server 1.
        assert added and all(s >= 2 for s in added)

    def test_repair_blocked_without_source_bandwidth(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=20.0
        )
        p = ring.partitions()[0]
        catalog.place(p, 0)
        cloud.server(0).replication_budget.reserve(
            cloud.server(0).replication_budget.capacity
        )
        stats = engine.decide(board, load_for(ring), RNG)
        assert stats.repairs == 0
        assert stats.unsatisfied_partitions == 1
        assert stats.deferred == 1

    def test_high_threshold_needs_more_replicas(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=150.0  # needs 3 well-dispersed replicas
        )
        p = ring.partitions()[0]
        catalog.place(p, 0)
        engine.decide(board, load_for(ring), RNG)
        assert len(catalog.servers_of(p.pid)) >= 3

    def test_lost_partition_counted(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness()
        stats = engine.decide(board, load_for(ring), RNG)
        assert stats.lost_partitions == 1


class TestSuicide:
    def test_redundant_replica_suicides_on_negative_streak(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=20.0
        )
        p = ring.partitions()[0]
        for sid in (0, 2, 3):  # three cross-continent replicas
            catalog.place(p, sid)
        force_streak(registry, p.pid, -1.0)
        stats = engine.decide(board, load_for(ring), RNG)
        assert stats.suicides >= 1
        remaining = catalog.servers_of(p.pid)
        assert availability(cloud, remaining) >= 20.0

    def test_no_suicide_when_availability_would_break(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=60.0, rents={0: 100.0, 2: 100.0}
        )
        p = ring.partitions()[0]
        for sid in (0, 2):  # exactly enough (63 >= 60)
            catalog.place(p, sid)
        force_streak(registry, p.pid, -1.0)
        stats = engine.decide(board, load_for(ring), RNG)
        assert stats.suicides == 0
        assert len(catalog.servers_of(p.pid)) == 2


class TestMigration:
    def test_migrates_to_meaningfully_cheaper_server(self):
        # Server 4 is pricey, server 5 cheap; both in their own continent
        # so diversity is unaffected by the move.
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=60.0,
            rents={4: 200.0},
            policy=EconomicPolicy(hysteresis=2, migration_margin=0.05),
        )
        p = ring.partitions()[0]
        for sid in (0, 4):
            catalog.place(p, sid)
        force_streak(registry, p.pid, -1.0)
        stats = engine.decide(board, load_for(ring), RNG)
        assert stats.migrations >= 1
        servers = catalog.servers_of(p.pid)
        assert 4 not in servers
        assert registry.of_partition(p.pid)[0].pid == p.pid

    def test_no_migration_within_margin(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=60.0,
            policy=EconomicPolicy(hysteresis=2, migration_margin=0.5),
        )
        p = ring.partitions()[0]
        for sid in (0, 2):
            catalog.place(p, sid)
        force_streak(registry, p.pid, -1.0)
        stats = engine.decide(board, load_for(ring), RNG)
        assert stats.migrations == 0

    def test_migration_keeps_availability(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=60.0, rents={2: 300.0}
        )
        p = ring.partitions()[0]
        for sid in (0, 2):
            catalog.place(p, sid)
        force_streak(registry, p.pid, -1.0)
        engine.decide(board, load_for(ring), RNG)
        servers = catalog.servers_of(p.pid)
        assert availability(cloud, servers) >= 60.0


class TestEconomicReplication:
    def test_popular_partition_replicates(self):
        policy = EconomicPolicy(hysteresis=2, migration_margin=0.05)
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=20.0, policy=policy
        )
        p = ring.partitions()[0]
        for sid in (0, 2):
            catalog.place(p, sid)
        force_streak(registry, p.pid, +1.0)
        # 1000 queries/epoch: predicted utility/replica = 3.33 >> rent.
        stats = engine.decide(board, load_for(ring, queries=1000), RNG)
        assert stats.economic_replications >= 1
        assert len(catalog.servers_of(p.pid)) >= 3

    def test_unpopular_partition_does_not_replicate(self):
        policy = EconomicPolicy(hysteresis=2)
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=20.0, policy=policy
        )
        p = ring.partitions()[0]
        for sid in (0, 2):
            catalog.place(p, sid)
        force_streak(registry, p.pid, +1.0)
        stats = engine.decide(board, load_for(ring, queries=10), RNG)
        assert stats.economic_replications == 0

    def test_replication_resets_initiator_history(self):
        policy = EconomicPolicy(hysteresis=2)
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=20.0, policy=policy
        )
        p = ring.partitions()[0]
        for sid in (0, 2):
            catalog.place(p, sid)
        force_streak(registry, p.pid, +1.0)
        engine.decide(board, load_for(ring, queries=1000), RNG)
        assert all(
            not a.positive_streak for a in registry.of_partition(p.pid)
        )


class TestSettle:
    def test_settle_charges_servers_and_agents(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness()
        p = ring.partitions()[0]
        for sid in (0, 2):
            catalog.place(p, sid)
        engine.settle(load_for(ring, queries=100, rings=rings), board)
        assert cloud.server(0).queries_this_epoch == pytest.approx(50.0)
        assert cloud.server(2).queries_this_epoch == pytest.approx(50.0)
        agent = registry.get(p.pid, 0)
        assert agent.epochs_alive == 1
        assert agent.balances != ()

    def test_utility_floor_applies(self):
        policy = EconomicPolicy(hysteresis=2)
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            policy=policy
        )
        p = ring.partitions()[0]
        catalog.place(p, 0)
        engine.settle(load_for(ring, queries=0, rings=rings), board)
        agent = registry.get(p.pid, 0)
        # Floored utility == min rent; rent on server 0 == min rent
        # (all same price) -> balance exactly 0.
        assert agent.balances[-1] == pytest.approx(0.0)

    def test_vectorized_settle_refuses_a_load_off_the_partition_index(self):
        """The batched settlement gathers query counts by partition
        slot; a load keyed by pid alone is refused, not looked up."""
        cloud, rings, ring, catalog, registry, __, engine, board = harness()
        p = ring.partitions()[0]
        catalog.place(p, 0)
        with pytest.raises(KernelError, match="partition slot space"):
            engine.settle(load_for(ring, queries=100), board)
        assert cloud.server(0).queries_this_epoch == 0.0

    def test_scalar_settle_reads_a_load_keyed_by_pid(self):
        """The reference kernel looks each partition's queries up by
        pid, and charges them as the batched kernel does."""
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            kernel="scalar"
        )
        p = ring.partitions()[0]
        for sid in (0, 2):
            catalog.place(p, sid)
        engine.settle(load_for(ring, queries=100), board)
        assert cloud.server(0).queries_this_epoch == pytest.approx(50.0)
        assert cloud.server(2).queries_this_epoch == pytest.approx(50.0)
        assert registry.get(p.pid, 2).epochs_alive == 1


class ImpureScorerEngine(DecisionEngine):
    """A decider whose scorer declares ``best`` impure, as the random
    placement ablation does: no skip may depend on a proof."""

    def _make_scorer(self, board):
        scorer = super()._make_scorer(board)
        scorer.best_is_pure = False
        return scorer


class BelievedDead(OracleMembership):
    """The oracle view, except that one live server is believed down."""

    __slots__ = ("_dead",)

    def __init__(self, cloud, dead):
        super().__init__(cloud)
        self._dead = dead

    def believed_vector(self):
        alive = super().believed_vector().copy()
        alive[self._cloud.slot(self._dead)] = False
        return alive

    def believed(self, server_id):
        return server_id != self._dead and super().believed(server_id)

    @property
    def predicate(self):
        return self.believed


def walks(engine):
    """Count the agent walks ``engine.decide`` makes."""
    calls = []
    walk = engine._decide_partition

    def counted(*args, **kwargs):
        calls.append(args[0].pid)
        return walk(*args, **kwargs)

    engine._decide_partition = counted
    return calls


class TestPartitionProof:
    """A visited partition whose every agent would end in a rent-floor
    proof is proved once and not walked; these are walked."""

    def hunters(self, server0_migration, engine_cls=DecisionEngine):
        """Two load-bearing replicas (0 and 2, 63 >= 60) with negative
        streaks on 100-rent servers.  Server 5 is the cheapest but
        carries no budget, so each hunt's cap (5 % under its own price)
        clears the epoch's minimum price and misses every feasible
        host's rent: both hunts are floor-proved."""
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=60.0, rents={5: 50.0},
            budgets={0: (10_000, server0_migration), 5: (0, 0)},
        )
        if engine_cls is not DecisionEngine:
            engine.__class__ = engine_cls
        p = ring.partitions()[0]
        for sid in (0, 2):
            catalog.place(p, sid)
        force_streak(registry, p.pid, -1.0)
        return engine, board, ring, p

    def test_floor_proved_hunters_skip_the_walk(self):
        engine, board, ring, p = self.hunters(10_000)
        walked = walks(engine)
        stats = engine.decide(board, load_for(ring), RNG)
        assert walked == []
        assert engine.floor_skips == 1
        assert (engine.floor_asks, engine.floor_proofs) == (2, 2)
        assert stats.migrations == 0

    def test_hunters_straddling_the_migration_capacity_are_walked(self):
        # Partition size 100: server 0's hunt rides the replication
        # budget, server 2's the migration budget — two floors.
        engine, board, ring, p = self.hunters(50)
        walked = walks(engine)
        engine.decide(board, load_for(ring), RNG)
        assert walked == [p.pid]
        assert engine.floor_skips == 0
        assert (engine.floor_asks, engine.floor_proofs) == (2, 2)

    def test_impure_scorer_walks_every_partition(self):
        engine, board, ring, p = self.hunters(
            10_000, engine_cls=ImpureScorerEngine
        )
        walked = walks(engine)
        engine.decide(board, load_for(ring), RNG)
        assert walked == [p.pid]
        assert engine.floor_skips == 0
        assert engine.floor_asks == 0

    def test_sla_short_partition_is_walked(self):
        # One replica with a negative streak on a minimum-price server:
        # no agent hunts or expands, but the SLA needs a repair.
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=20.0
        )
        p = ring.partitions()[0]
        catalog.place(p, 0)
        force_streak(registry, p.pid, -1.0)
        walked = walks(engine)
        stats = engine.decide(board, load_for(ring), RNG)
        assert walked == [p.pid]
        assert engine.floor_skips == 0
        assert stats.repairs >= 1

    def test_partition_with_a_suicidal_agent_is_walked(self):
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=20.0
        )
        p = ring.partitions()[0]
        for sid in (0, 2, 3):
            catalog.place(p, sid)
        force_streak(registry, p.pid, -1.0)
        walked = walks(engine)
        stats = engine.decide(board, load_for(ring), RNG)
        assert walked == [p.pid]
        assert engine.floor_skips == 0
        assert stats.suicides >= 1

    def test_unfunded_expanders_skip_the_walk(self):
        policy = EconomicPolicy(hysteresis=2)
        cloud, rings, ring, catalog, registry, __, engine, board = harness(
            threshold=20.0, policy=policy
        )
        p = ring.partitions()[0]
        for sid in (0, 2):
            catalog.place(p, sid)
        force_streak(registry, p.pid, +1.0)
        walked = walks(engine)
        stats = engine.decide(board, load_for(ring, queries=10), RNG)
        assert walked == []
        assert engine.floor_skips == 1
        assert (engine.floor_asks, engine.floor_proofs) == (2, 2)
        assert stats.economic_replications == 0

    def test_expanders_on_believed_dead_servers_are_counted(self):
        """The walk offers every agent with a positive streak an
        expansion, the one on a believed-dead server included; the
        proof counts that ask too."""
        asks = []
        for proof in (True, False):
            policy = EconomicPolicy(hysteresis=2)
            cloud, rings, ring, catalog, registry, __, engine, board = (
                harness(threshold=20.0, policy=policy,
                        membership=lambda cloud: BelievedDead(cloud, 3))
            )
            if not proof:
                engine._fruitless = lambda *args: False
            p = ring.partitions()[0]
            for sid in (0, 2, 3):
                catalog.place(p, sid)
            force_streak(registry, p.pid, +1.0)
            engine.decide(board, load_for(ring, queries=10), RNG)
            assert engine.floor_skips == int(proof)
            asks.append((engine.floor_asks, engine.floor_proofs))
        assert asks == [(3, 3), (3, 3)]
