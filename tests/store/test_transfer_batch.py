"""Batched transfer execution must match the one-at-a-time semantics.

The §II-C action path queues repair chains as :class:`TransferBatch`
intents (checked against real-minus-pending mirrors) and applies them
through :meth:`TransferEngine.execute_batch`'s grouped budget
reservation.  These tests pin the contract: mirrored checks return the
same outcomes (in the same precedence order) as immediate calls, and a
committed batch leaves catalog, storage and budgets exactly as the
sequential path would.
"""

import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.ring.keyspace import KeyRange
from repro.ring.partition import Partition, PartitionId
from repro.store.replica import ReplicaCatalog, ReplicaError
from repro.store.transfer import (
    TransferEngine,
    TransferKind,
    TransferOutcome,
)


def make_partition(index=0, size=100):
    return Partition(
        pid=PartitionId(0, 0, index),
        key_range=KeyRange(0, 1000),
        size=size,
        capacity=10_000,
    )


def harness(n_servers=4, *, storage=1000, replication=300, migration=100):
    cloud = Cloud()
    for i in range(n_servers):
        cloud.add_servers([
            make_server(
                i, Location(i, 0, 0, 0, 0, 0),
                storage_capacity=storage,
                replication_budget=replication,
                migration_budget=migration,
            )
        ])
    catalog = ReplicaCatalog(cloud)
    return cloud, catalog, TransferEngine(cloud, catalog)


class TestBatchMirrors:
    def test_budget_mirror_counts_pending_both_endpoints(self):
        cloud, catalog, engine = harness(replication=250)
        p1, p2 = make_partition(1), make_partition(2)
        catalog.place(p1, 0)
        catalog.place(p2, 0)
        batch = engine.open_batch()
        assert batch.add_replication(p1, 0, 1) is None
        # Server 0 shipped 100 as a source, server 1 received 100.
        assert batch.budget_available(0) == 150
        assert batch.budget_available(1) == 150
        assert batch.storage_available(1) == 900
        # Real objects untouched until commit.
        assert cloud.server(1).replication_budget.available == 250
        assert not catalog.has_replica(p1.pid, 1)

    def test_blocked_outcomes_match_immediate_checks(self):
        cloud, catalog, engine = harness(replication=150)
        p1, p2 = make_partition(1), make_partition(2)
        catalog.place(p1, 0)
        catalog.place(p2, 0)
        batch = engine.open_batch()
        assert batch.add_replication(p1, 0, 1) is None
        # Second transfer from the same source exceeds its budget: the
        # same NO_SOURCE_BANDWIDTH an immediate second call would hit.
        blocked = batch.add_replication(p2, 0, 2)
        assert blocked is TransferOutcome.NO_SOURCE_BANDWIDTH
        assert engine.stats.deferred == 1
        assert engine.stats.failures[-1].outcome is blocked

    def test_duplicate_destination_rejected(self):
        cloud, catalog, engine = harness()
        p = make_partition(1)
        catalog.place(p, 0)
        batch = engine.open_batch()
        assert batch.add_replication(p, 0, 1) is None
        assert (
            batch.add_replication(p, 0, 1) is TransferOutcome.REJECTED
        )

    def test_storage_mirror_blocks_overpacked_destination(self):
        cloud, catalog, engine = harness(storage=150)
        p1, p2 = make_partition(1), make_partition(2)
        catalog.place(p1, 0)
        catalog.place(p2, 1)
        batch = engine.open_batch()
        assert batch.add_replication(p1, 0, 2) is None
        blocked = batch.add_replication(p2, 1, 2)
        assert blocked is TransferOutcome.NO_DEST_STORAGE

    def test_queued_migration_credits_vacated_source_storage(self):
        # Sequentially, migrate P: 0->1 frees room on 0 for the next
        # replicate Q: 2->0; the batch mirrors must agree.
        cloud, catalog, engine = harness(storage=150)
        p, q = make_partition(1), make_partition(2)
        catalog.place(p, 0)   # server 0 at 100/150
        catalog.place(q, 2)
        batch = engine.open_batch()
        assert batch.add_migration(p, 0, 1) is None
        assert batch.storage_available(0) == 150  # P's bytes vacated
        assert batch.add_replication(q, 2, 0) is None
        results = batch.commit()
        assert all(r.ok for r in results)
        assert catalog.servers_of(p.pid) == [1]
        assert catalog.has_replica(q.pid, 0)

    def test_migration_requires_source_replica(self):
        cloud, catalog, engine = harness()
        p = make_partition(1)
        batch = engine.open_batch()
        with pytest.raises(ReplicaError):
            batch.add_migration(p, 0, 1)

    def test_second_migration_from_vacated_source_raises(self):
        # Sequentially, the second migrate would raise ReplicaError
        # (the replica already left server 0); the queued mirror must
        # refuse it at add time so commit can never partially apply.
        cloud, catalog, engine = harness()
        p = make_partition(1)
        catalog.place(p, 0)
        batch = engine.open_batch()
        assert batch.add_migration(p, 0, 1) is None
        with pytest.raises(ReplicaError):
            batch.add_migration(p, 0, 2)
        results = batch.commit()
        assert len(results) == 1 and results[0].ok
        assert catalog.servers_of(p.pid) == [1]

    def test_chained_migration_through_pending_state(self):
        # migrate 0->1 then 1->2: the second source exists only in the
        # queued state; sequential execution allows it, and so must the
        # mirror (commit applies the moves in order).  Budget sized so
        # server 1's combined dst+src reservations fit.
        cloud, catalog, engine = harness(migration=300)
        p = make_partition(1)
        catalog.place(p, 0)
        batch = engine.open_batch()
        assert batch.add_migration(p, 0, 1) is None
        assert batch.add_migration(p, 1, 2) is None
        results = batch.commit()
        assert all(r.ok for r in results)
        assert catalog.servers_of(p.pid) == [2]


class TestCommit:
    def test_commit_applies_like_sequential(self):
        spec = dict(n_servers=4, storage=1000, replication=300)
        p_batch = [make_partition(1), make_partition(2)]
        p_seq = [make_partition(1), make_partition(2)]

        cloud_a, catalog_a, engine_a = harness(**spec)
        for p in p_batch:
            catalog_a.place(p, 0)
        batch = engine_a.open_batch()
        assert batch.add_replication(p_batch[0], 0, 1) is None
        assert batch.add_replication(p_batch[1], 0, 2) is None
        results = batch.commit()
        assert all(r.ok for r in results)
        assert len(batch) == 0

        cloud_b, catalog_b, engine_b = harness(**spec)
        for p in p_seq:
            catalog_b.place(p, 0)
        assert engine_b.replicate(p_seq[0], 0, 1).ok
        assert engine_b.replicate(p_seq[1], 0, 2).ok

        for sid in range(4):
            a, b = cloud_a.server(sid), cloud_b.server(sid)
            assert a.storage_used == b.storage_used
            assert (
                a.replication_budget.available
                == b.replication_budget.available
            )
        assert catalog_a.servers_of(p_batch[0].pid) == catalog_b.servers_of(
            p_seq[0].pid
        )
        assert engine_a.stats.replications == engine_b.stats.replications
        assert engine_a.stats.bytes_moved == engine_b.stats.bytes_moved

    def test_commit_migration_moves_replica(self):
        cloud, catalog, engine = harness()
        p = make_partition(1)
        catalog.place(p, 0)
        batch = engine.open_batch()
        assert batch.add_migration(p, 0, 3) is None
        results = batch.commit()
        assert results[0].kind is TransferKind.MIGRATION
        assert catalog.servers_of(p.pid) == [3]
        assert cloud.server(0).storage_used == 0
        assert cloud.server(0).migration_budget.available == 100 - 100
        assert engine.stats.migrations == 1

    def test_move_on_the_replication_budget_is_one_vacating_intent(self):
        """A move over the replication budget queues as one intent:
        the source stays in the catalog until commit, which places the
        destination before dropping the source — the partition never
        sits at zero replicas — and the stats count a replication."""
        cloud, catalog, engine = harness(storage=150, migration=50)
        p, q = make_partition(1), make_partition(2)
        catalog.place(p, 0)   # server 0 at 100/150
        catalog.place(q, 2)
        events = []

        class Recorder:
            def replica_added(self, pid, sid, servers):
                events.append(("add", sid, tuple(servers)))

            def replica_removed(self, pid, sid, servers):
                events.append(("drop", sid, tuple(servers)))

        catalog.add_listener(Recorder())
        batch = engine.open_batch()
        kind = TransferKind.REPLICATION
        assert batch.add_migration(p, 0, 1, kind) is None
        assert catalog.servers_of(p.pid) == [0]  # nothing applied yet
        assert batch.storage_available(0) == 150  # P's bytes vacated
        assert batch.budget_available(0, kind) == 200
        with pytest.raises(ReplicaError):
            batch.add_migration(p, 0, 2, kind)  # source already vacated
        assert batch.add_replication(q, 2, 0) is None
        results = batch.commit()
        assert all(r.ok for r in results)
        assert results[0].kind is kind
        assert catalog.servers_of(p.pid) == [1]
        assert events[:2] == [("add", 1, (0, 1)), ("drop", 0, (1,))]
        assert (engine.stats.replications, engine.stats.migrations) == (2, 0)
        assert cloud.server(0).migration_budget.used == 0

    def test_empty_commit_is_noop(self):
        __, __, engine = harness()
        assert engine.open_batch().commit() == []


class TestExecuteBatch:
    def test_commit_reserves_grouped_budgets(self):
        cloud, catalog, engine = harness()
        p1, p2 = make_partition(1), make_partition(2)
        catalog.place(p1, 0)
        catalog.place(p2, 0)
        batch = engine.open_batch()
        assert batch.add_replication(p1, 0, 1) is None
        assert batch.add_replication(p2, 0, 2) is None
        results = batch.commit()
        assert [r.outcome for r in results] == [
            TransferOutcome.COMPLETED, TransferOutcome.COMPLETED
        ]
        assert catalog.has_replica(p1.pid, 1)
        assert catalog.has_replica(p2.pid, 2)
        # Source budget charged once per transfer (grouped reserve).
        assert cloud.server(0).replication_budget.available == 100
