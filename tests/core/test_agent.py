"""Unit tests for virtual-node agents and the registry."""

import pytest

from repro.core.agent import AgentError, AgentRegistry, VNodeAgent
from repro.ring.partition import PartitionId

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

    def test_reset_history(self):
        agent = VNodeAgent(pid=PID, server_id=0, window=1)
        agent.record(2.0, 1.0)
        assert agent.positive_streak
        agent.reset_history()
        assert not agent.positive_streak
        assert agent.balances == ()

    def test_moved_to(self):
        agent = VNodeAgent(pid=PID, server_id=0, window=1)
        agent.record(2.0, 1.0)
        agent.moved_to(5)
        assert agent.server_id == 5
        assert agent.moves == 1
        assert not agent.positive_streak

    def test_invalid_window(self):
        with pytest.raises(AgentError):
            VNodeAgent(pid=PID, server_id=0, window=0)


class TestRegistry:
    def test_spawn_and_get(self):
        reg = AgentRegistry(window=3)
        agent = reg.spawn(PID, 4)
        assert reg.get(PID, 4) is agent
        assert reg.has(PID, 4)
        assert len(reg) == 1

    def test_duplicate_spawn_rejected(self):
        reg = AgentRegistry(window=3)
        reg.spawn(PID, 4)
        with pytest.raises(AgentError):
            reg.spawn(PID, 4)

    def test_retire(self):
        reg = AgentRegistry(window=3)
        reg.spawn(PID, 4)
        reg.retire(PID, 4)
        assert not reg.has(PID, 4)
        assert reg.of_partition(PID) == []

    def test_retire_missing(self):
        with pytest.raises(AgentError):
            AgentRegistry(window=1).retire(PID, 0)

    def test_rehome(self):
        reg = AgentRegistry(window=2)
        agent = reg.spawn(PID, 4)
        agent.record(2.0, 1.0)
        moved = reg.rehome(PID, 4, 7)
        assert moved is agent
        assert reg.get(PID, 7) is agent
        assert not reg.has(PID, 4)
        assert agent.server_id == 7

    def test_of_partition_and_on_server(self):
        reg = AgentRegistry(window=1)
        reg.spawn(PID, 0)
        reg.spawn(PID, 1)
        reg.spawn(PID2, 1)
        assert len(reg.of_partition(PID)) == 2
        assert len(reg.on_server(1)) == 2

    def test_drop_server(self):
        reg = AgentRegistry(window=1)
        reg.spawn(PID, 0)
        reg.spawn(PID, 1)
        reg.spawn(PID2, 0)
        victims = reg.drop_server(0)
        assert len(victims) == 2
        assert reg.of_partition(PID2) == []
        assert reg.has(PID, 1)

    def test_split_partition_moves_agents_to_children(self):
        reg = AgentRegistry(window=1)
        parent = PID
        low, high = PartitionId(0, 0, 10), PartitionId(0, 0, 11)
        a = reg.spawn(parent, 3)
        a.wealth = 4.0
        reg.split_partition(parent, low, high)
        assert not reg.has(parent, 3)
        assert reg.get(low, 3).wealth == pytest.approx(2.0)
        assert reg.get(high, 3).wealth == pytest.approx(2.0)

    def test_check_mirror_detects_mismatch(self):
        reg = AgentRegistry(window=1)
        reg.spawn(PID, 0)
        reg.check_mirror(lambda pid: [0])
        with pytest.raises(AgentError):
            reg.check_mirror(lambda pid: [1])

    def test_invalid_window(self):
        with pytest.raises(AgentError):
            AgentRegistry(window=0)
