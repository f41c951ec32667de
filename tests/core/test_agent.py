"""Unit tests for virtual-node agents and the registry view."""

import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.agent import AgentError, AgentLedger, AgentRegistry, VNodeAgent
from repro.ring.keyspace import KeyRange
from repro.ring.partition import Partition, PartitionId
from repro.store.replica import ReplicaCatalog, ReplicaError

PID = PartitionId(0, 0, 0)
PID2 = PartitionId(0, 0, 1)


class TestVNodeAgent:
    def test_record_returns_balance_and_accumulates_wealth(self):
        agent = VNodeAgent(pid=PID, server_id=0, window=3)
        assert agent.record(1.0, 0.4) == pytest.approx(0.6)
        assert agent.record(0.2, 0.4) == pytest.approx(-0.2)
        assert agent.wealth == pytest.approx(0.4)
        assert agent.epochs_alive == 2

    def test_streaks_need_full_window(self):
        agent = VNodeAgent(pid=PID, server_id=0, window=3)
        agent.record(0.0, 1.0)
        agent.record(0.0, 1.0)
        assert not agent.negative_streak  # only 2 of 3 epochs
        agent.record(0.0, 1.0)
        assert agent.negative_streak

    def test_streak_broken_by_opposite_sign(self):
        agent = VNodeAgent(pid=PID, server_id=0, window=3)
        for __ in range(3):
            agent.record(2.0, 1.0)
        assert agent.positive_streak
        agent.record(0.0, 1.0)
        assert not agent.positive_streak
        assert not agent.negative_streak

    def test_zero_balance_is_neither_streak(self):
        agent = VNodeAgent(pid=PID, server_id=0, window=2)
        agent.record(1.0, 1.0)
        agent.record(1.0, 1.0)
        assert not agent.positive_streak
        assert not agent.negative_streak

    def test_window_slides(self):
        agent = VNodeAgent(pid=PID, server_id=0, window=2)
        agent.record(0.0, 1.0)   # negative
        agent.record(2.0, 1.0)   # positive
        agent.record(2.0, 1.0)   # positive
        assert agent.positive_streak

    def test_reset_window(self):
        ledger = AgentLedger(window=1)
        agent = VNodeAgent(PID, 0, ledger=ledger, row=ledger.acquire(0))
        agent.record(2.0, 1.0)
        assert agent.positive_streak
        ledger.reset_window(agent.row)
        assert not agent.positive_streak
        assert agent.balances == ()
        assert agent.wealth == 1.0  # a reset forgets the window only

    def test_invalid_window(self):
        with pytest.raises(AgentError):
            VNodeAgent(pid=PID, server_id=0, window=0)


def catalog_of(window, n=12):
    """A catalog over ``n`` roomy servers, ids 0..n-1."""
    cloud = Cloud()
    for i in range(n):
        cloud.add_servers([
            make_server(i, Location(i % 5, i, 0, 0, 0, 0),
                        storage_capacity=10_000)
        ])
    return ReplicaCatalog(cloud, window=window)


def part(seq, size=100):
    return Partition(
        pid=PartitionId(0, 0, seq),
        key_range=KeyRange(seq * 1000, seq * 1000 + 500),
        size=size, capacity=10_000,
    )


class TestRegistryView:
    """The registry reads agents off the catalog, which owns their rows:
    a placement gives the replica an agent, a drop retires it, a move
    re-homes it — no call of the registry's pairs them."""

    def test_place_gives_the_replica_an_agent(self):
        catalog = catalog_of(window=3)
        reg = AgentRegistry(catalog)
        catalog.place(part(0), 4)
        agent = reg.get(PID, 4)
        assert agent.server_id == 4 and agent.pid == PID
        assert agent.row == catalog.row_of(PID, 4)
        assert len(reg) == 1
        assert reg.ledger is catalog.ledger and reg.ledger.window == 3

    def test_duplicate_place_rejected_without_a_second_row(self):
        catalog = catalog_of(window=3)
        catalog.place(part(0), 4)
        with pytest.raises(ReplicaError):
            catalog.place(part(0), 4)
        assert catalog.ledger.live_rows == 1

    def test_drop_retires_the_agent(self):
        catalog = catalog_of(window=3)
        reg = AgentRegistry(catalog)
        catalog.place(part(0), 4)
        catalog.drop(part(0), 4)
        assert reg.of_partition(PID) == []
        assert catalog.ledger.live_rows == 0
        with pytest.raises(AgentError):
            reg.get(PID, 4)

    def test_missing_agent(self):
        with pytest.raises(AgentError):
            AgentRegistry(catalog_of(window=1)).get(PID, 0)

    def test_move_keeps_the_agent(self):
        catalog = catalog_of(window=2)
        reg = AgentRegistry(catalog)
        catalog.place(part(0), 4)
        agent = reg.get(PID, 4)
        agent.record(2.0, 1.0)
        agent.record(2.0, 1.0)
        assert agent.positive_streak
        catalog.move(part(0), 4, 7)
        moved = reg.get(PID, 7)
        assert moved.row == agent.row
        assert moved.server_id == 7
        assert moved.wealth == 2.0
        assert moved.moves == 1
        assert moved.balances == () and not moved.positive_streak
        with pytest.raises(AgentError):
            reg.get(PID, 4)

    def test_of_partition_follows_the_catalog_order(self):
        catalog = catalog_of(window=1)
        reg = AgentRegistry(catalog)
        for sid in (0, 1, 2):
            catalog.place(part(0), sid)
        catalog.place(part(1), 1)
        catalog.move(part(0), 0, 5)
        assert [a.server_id for a in reg.of_partition(PID)] == [1, 2, 5]
        assert [a.server_id for a in reg.of_partition(PID2)] == [1]
        assert sorted((a.pid, a.server_id) for a in reg) == [
            (PID, 1), (PID, 2), (PID, 5), (PID2, 1),
        ]

    def test_drop_server_retires_its_agents(self):
        catalog = catalog_of(window=1)
        reg = AgentRegistry(catalog)
        catalog.place(part(0), 0)
        catalog.place(part(0), 1)
        catalog.place(part(1), 0)
        assert catalog.drop_server(0) == [PID, PID2]
        assert reg.of_partition(PID2) == []
        assert [a.server_id for a in reg.of_partition(PID)] == [1]
        assert catalog.ledger.live_rows == 1

    def test_split_partition_moves_agents_to_children(self):
        catalog = catalog_of(window=1)
        reg = AgentRegistry(catalog)
        parent = part(0, size=100)
        catalog.place(parent, 3)
        reg.get(PID, 3).record(5.0, 1.0)
        low = Partition(PartitionId(0, 0, 10), KeyRange(0, 250), 50, 10_000)
        high = Partition(PartitionId(0, 0, 11), KeyRange(250, 500), 50,
                         10_000)
        catalog.split_partition(parent, low, high)
        assert reg.of_partition(PID) == []
        assert reg.get(low.pid, 3).wealth == pytest.approx(2.0)
        assert reg.get(high.pid, 3).wealth == pytest.approx(2.0)
        assert reg.get(low.pid, 3).balances == ()
        assert catalog.ledger.live_rows == 2

    def test_consistency_check_catches_a_row_out_of_step(self):
        catalog = catalog_of(window=1)
        catalog.place(part(0), 0)
        catalog.place(part(1), 1)
        parts = {p.pid: p for p in (part(0), part(1))}
        catalog.check_consistency(parts)
        row = catalog.row_of(PID, 0)
        catalog.ledger.set_server_id(row, 2)
        with pytest.raises(ReplicaError, match="do not name its servers"):
            catalog.check_consistency(parts)
        catalog.ledger.set_server_id(row, 0)
        spare = catalog.ledger.acquire(5)
        with pytest.raises(ReplicaError, match="one to one"):
            catalog.check_consistency(parts)
        catalog.ledger.release(spare)
        catalog.check_consistency(parts)

    def test_invalid_window(self):
        with pytest.raises(AgentError):
            catalog_of(window=0)
