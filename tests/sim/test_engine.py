"""Integration tests for the epoch simulator."""

import dataclasses

import numpy as np
import pytest

from repro.baselines.random_placement import random_placement_decider
from repro.baselines.static import static_decider
from repro.cluster.events import AddServers, EventSchedule, RemoveServers
from repro.cluster.topology import CloudLayout
from repro.core.economy import RentModel
from repro.core.policy import EconomicPolicy
from repro.ring import virtualring
from repro.sim.config import (
    AppConfig,
    InsertConfig,
    RingConfig,
    SimConfig,
)
from repro.sim.engine import (
    Decider,
    Simulation,
    SimulationError,
    economic_decider,
)


def small_layout():
    return CloudLayout(
        countries=4,
        countries_per_continent=2,
        datacenters_per_country=1,
        rooms_per_datacenter=1,
        racks_per_room=1,
        servers_per_rack=5,
    )  # 20 servers


def small_config(*, epochs=10, seed=0, inserts=None, partitions=6,
                 server_storage=50_000, initial_size=1000,
                 partition_capacity=10_000, policy=None, alpha=1.0):
    apps = (
        AppConfig(
            app_id=0, name="a", query_share=0.7,
            rings=(
                RingConfig(
                    ring_id=0, threshold=20.0, target_replicas=2,
                    partitions=partitions,
                    partition_capacity=partition_capacity,
                    initial_partition_size=initial_size,
                ),
            ),
        ),
        AppConfig(
            app_id=1, name="b", query_share=0.3,
            rings=(
                RingConfig(
                    ring_id=1, threshold=80.0, target_replicas=3,
                    partitions=partitions,
                    partition_capacity=partition_capacity,
                    initial_partition_size=initial_size,
                ),
            ),
        ),
    )
    return SimConfig(
        layout=small_layout(),
        apps=apps,
        epochs=epochs,
        seed=seed,
        server_storage=server_storage,
        server_query_capacity=100,
        replication_budget=20_000,
        migration_budget=8_000,
        base_rate=200.0,
        inserts=inserts,
        policy=policy or EconomicPolicy(hysteresis=2),
        rent_model=RentModel(alpha=alpha),
    )


def consistency_check(sim):
    """The cross-module invariant: the catalog's indexes, its agents'
    ledger rows and the servers' byte counters agree."""
    partitions = {p.pid: p for p in sim.rings.layout().partitions}
    sim.catalog.check_consistency(partitions)


class TestConstruction:
    def test_seed_placement_one_replica_each(self):
        sim = Simulation(small_config())
        assert sim.catalog.total_replicas == 12
        consistency_check(sim)

    def test_budgets_follow_config(self):
        sim = Simulation(small_config())
        server = next(iter(sim.cloud))
        assert server.replication_budget.capacity == 20_000
        assert server.migration_budget.capacity == 8_000

    def test_cloud_too_small_raises(self):
        cfg = small_config(server_storage=100, initial_size=1000)
        with pytest.raises(SimulationError):
            Simulation(cfg)


class TestRun:
    def test_run_collects_frames(self):
        sim = Simulation(small_config(epochs=5))
        log = sim.run()
        assert len(log) == 5
        assert log.epochs() == [0, 1, 2, 3, 4]

    def test_availability_targets_reached(self):
        sim = Simulation(small_config(epochs=10))
        log = sim.run()
        last = log.last
        assert last.unsatisfied_partitions == 0
        # Ring 0 needs >= 2 replicas, ring 1 >= 3.
        assert last.vnodes_per_ring[(0, 0)] >= 12
        assert last.vnodes_per_ring[(1, 1)] >= 18

    def test_invariants_hold_after_run(self):
        sim = Simulation(small_config(epochs=10))
        sim.run()
        consistency_check(sim)

    def test_run_incremental(self):
        sim = Simulation(small_config(epochs=10))
        sim.run(3)
        sim.run(2)
        assert len(sim.metrics) == 5

    def test_negative_epochs_rejected(self):
        sim = Simulation(small_config())
        with pytest.raises(SimulationError):
            sim.run(-1)

    def test_same_seed_same_history(self):
        a = Simulation(small_config(seed=5)).run()
        b = Simulation(small_config(seed=5)).run()
        assert list(a.series("vnodes_total")) == list(
            b.series("vnodes_total")
        )
        assert a.last.vnodes_per_server == b.last.vnodes_per_server

    def test_different_seed_differs(self):
        a = Simulation(small_config(seed=1)).run()
        b = Simulation(small_config(seed=2)).run()
        assert (
            list(a.series("total_queries")) != list(b.series("total_queries"))
        )


class TestEvents:
    def test_server_arrival_keeps_replicas(self):
        events = EventSchedule(
            [AddServers(epoch=3, count=4, storage_capacity=50_000,
                        query_capacity=100)],
            layout=small_layout(),
            rng=np.random.default_rng(0),
        )
        sim = Simulation(small_config(epochs=8), events=events)
        log = sim.run()
        assert log[2].live_servers == 20
        assert log[3].live_servers == 24
        consistency_check(sim)

    def test_server_failure_triggers_repair(self):
        events = EventSchedule(
            [RemoveServers(epoch=4, count=3)],
            layout=small_layout(),
            rng=np.random.default_rng(1),
        )
        sim = Simulation(small_config(epochs=12), events=events)
        log = sim.run()
        assert log[4].live_servers == 17
        # Repairs happen at or after the failure epoch.
        post = log.series("repairs")[4:]
        assert post.sum() >= 1
        assert log.last.unsatisfied_partitions == 0
        consistency_check(sim)

    def test_failed_server_replicas_are_dropped(self):
        events = EventSchedule(
            [RemoveServers(epoch=2, count=2)],
            layout=small_layout(),
            rng=np.random.default_rng(2),
        )
        sim = Simulation(small_config(epochs=6), events=events)
        sim.run()
        for pid in sim.catalog.partitions():
            for sid in sim.catalog.servers_of(pid):
                assert sid in sim.cloud


class TestInserts:
    def test_inserts_grow_storage(self):
        cfg = small_config(
            epochs=6,
            inserts=InsertConfig(rate=20, object_size=100, start_epoch=0),
        )
        sim = Simulation(cfg)
        log = sim.run()
        assert log.last.storage_used > log[0].storage_used
        assert log.series("insert_attempts").sum() == 6 * 20
        consistency_check(sim)

    def test_insert_start_epoch(self):
        cfg = small_config(
            epochs=6,
            inserts=InsertConfig(rate=20, object_size=100, start_epoch=3),
        )
        log = Simulation(cfg).run()
        assert log[2].insert_attempts == 0
        assert log[3].insert_attempts == 20

    def test_saturation_produces_failures(self):
        cfg = small_config(
            epochs=30,
            server_storage=4000,
            initial_size=100,
            inserts=InsertConfig(rate=50, object_size=100, start_epoch=0),
        )
        sim = Simulation(cfg)
        log = sim.run()
        assert log.series("insert_failures").sum() > 0
        # Storage never exceeds capacity.
        assert log.last.storage_used <= log.last.storage_capacity
        consistency_check(sim)


class TestSplits:
    def test_overfull_partitions_split(self):
        cfg = small_config(
            epochs=12,
            partitions=2,
            initial_size=9000,  # capacity 10k: two inserts away from split
            inserts=InsertConfig(rate=30, object_size=100, start_epoch=0),
        )
        sim = Simulation(cfg)
        sim.run()
        ring = sim.rings.ring(0, 0)
        assert len(ring) > 2
        ring.check_invariants()
        consistency_check(sim)

    def test_split_children_keep_replica_counts(self):
        cfg = small_config(
            epochs=15,
            partitions=2,
            initial_size=9000,
            inserts=InsertConfig(rate=30, object_size=100, start_epoch=0),
        )
        sim = Simulation(cfg)
        log = sim.run()
        assert log.last.unsatisfied_partitions == 0
        for p in sim.rings.ring(0, 0):
            assert sim.catalog.replica_count(p.pid) >= 2

    @pytest.mark.parametrize("kernel", ["vectorized", "scalar"])
    def test_one_layout_build_per_ring_state(self, kernel, monkeypatch):
        """Every reader shares one ring layout: it is built once per
        distinct ring state the run reaches, never twice for one, and
        the slot space holds exactly the partitions ever created."""
        built = []

        class CountingLayout(virtualring.RingLayout):
            def __init__(self, key, rings, index):
                built.append(key)
                super().__init__(key, rings, index)

        monkeypatch.setattr(virtualring, "RingLayout", CountingLayout)
        cfg = dataclasses.replace(small_config(
            epochs=12,
            partitions=2,
            initial_size=9000,
            inserts=InsertConfig(rate=30, object_size=100, start_epoch=0),
        ), kernel=kernel)
        sim = Simulation(cfg)

        def state():
            return (
                tuple(ring.version for ring in sim.rings),
                tuple(ring.level for ring in sim.rings),
            )

        states = [state()]
        for __ in range(cfg.epochs):
            sim.step()
            states.append(state())
        # The scalar kernel's metrics walk the rings, not the layout, so
        # its final state is first read by the next epoch; read it here.
        sim.rings.layout()
        assert len(set(states)) > 2  # the run did split
        assert built == list(dict.fromkeys(states))
        splits = sum(len(ring) for ring in sim.rings) - 4
        if kernel == "vectorized":
            assert len(sim.partition_index) == 4 + 2 * splits


@pytest.mark.parametrize("factory", [
    economic_decider, static_decider, random_placement_decider,
], ids=["economic", "static", "random"])
def test_shipped_deciders_satisfy_the_decider_protocol(factory):
    sim = Simulation(small_config(epochs=1), decider_factory=factory)
    assert isinstance(sim.decider, Decider)


class TestRetryResurrection:
    """Recorded defect, not fixed: when no believed replica with budget
    is left, ``_drain_retries`` replicates with ``src=None`` — the
    seeding form that charges only the destination — so a retry can
    bring back a partition whose every copy is gone (and place copies
    past a drained source budget).  Refusing it moves ``faults-churn``'s
    availability and SLA shares, so the fix needs its own change that
    argues the metric (ROADMAP)."""

    @pytest.mark.xfail(strict=True, reason="retries resurrect partitions "
                       "with no surviving copy (ROADMAP item 1)")
    def test_retry_does_not_resurrect_a_partition_with_no_copy(self):
        import dataclasses

        from repro.net.model import NetConfig
        from repro.store.transfer import (
            TransferKind, TransferOutcome, TransferResult,
        )

        sim = Simulation(dataclasses.replace(
            small_config(epochs=2), net=NetConfig(),
        ))
        sim.step()
        partition = sim.rings.layout().partitions[0]
        pid = partition.pid
        for sid in list(sim.catalog.servers_of(pid)):
            sim.catalog.drop(partition, sid)
        dst = sim.cloud.server_ids[0]
        sim.retry_queue.push(TransferResult(
            TransferKind.REPLICATION, TransferOutcome.DEST_DOWN, pid,
            None, dst, partition.size,
        ), 0)
        sim._drain_retries(1)
        assert sim.catalog.replica_count(pid) == 0


class TestMoveRetry:
    """Recorded defect, not fixed: a move riding the replication budget
    that a network outcome blocks is recorded as a plain REPLICATION
    failure, so ``_push_retries`` queues it and ``_drain_retries`` later
    copies the partition while the source keeps its replica — the retry
    adds a replica instead of finishing the move (a move on the
    migration budget is never retried).  Skipping failed moves changes
    ``faults-churn``'s frames, so the fix needs its own change
    (ROADMAP)."""

    @pytest.mark.xfail(strict=True, reason="a retried move adds a replica "
                       "(ROADMAP item 1)")
    def test_a_retried_move_never_adds_a_replica(self):
        import dataclasses

        from repro.net.model import NetConfig
        from repro.store.transfer import TransferKind, TransferOutcome

        sim = Simulation(dataclasses.replace(
            small_config(epochs=3), net=NetConfig(),
        ))
        sim.step()
        partition = sim.rings.layout().partitions[0]
        pid = partition.pid
        src = sim.catalog.servers_of(pid)[0]
        dst = next(
            sid for sid in sim.cloud.server_ids
            if not sim.catalog.has_replica(pid, sid)
        )
        sim.transfers.begin_epoch()
        sim.cloud.server(dst).fail()
        result = sim.transfers.migrate(
            partition, src, dst, TransferKind.REPLICATION
        )
        assert result.outcome is TransferOutcome.DEST_DOWN
        sim._push_retries(1)
        sim.cloud.server(dst).restore()
        before = sim.catalog.replica_count(pid)
        sim._drain_retries(2)
        assert sim.catalog.replica_count(pid) == before
