"""The array ledger must reproduce the old per-agent deque semantics.

PR 1's agents kept a ``Deque[float]`` balance window each; the array
ledger stores every window as one row of a registry-level ring-buffer
matrix plus streak-run vectors.  These tests pin the new representation
to the reference semantics: streak detection at window boundaries,
window resets after moves/replications/splits, scalar-vs-batched
recording bit-equality, row recycling hygiene and registry compaction.
"""

from collections import deque

import numpy as np
import pytest

from repro.core.agent import AgentError, AgentLedger, AgentRegistry, VNodeAgent
from repro.ring.partition import PartitionId

PID = PartitionId(0, 0, 0)
PID2 = PartitionId(0, 0, 1)


class ReferenceAgent:
    """The PR-1 deque semantics, verbatim, as an oracle."""

    def __init__(self, window):
        self.window = window
        self.balances = deque(maxlen=window)
        self.wealth = 0.0
        self.epochs_alive = 0

    def record(self, utility, rent):
        balance = utility - rent
        self.balances.append(balance)
        self.wealth += balance
        self.epochs_alive += 1
        return balance

    @property
    def negative_streak(self):
        return (
            len(self.balances) == self.balances.maxlen
            and all(b < 0 for b in self.balances)
        )

    @property
    def positive_streak(self):
        return (
            len(self.balances) == self.balances.maxlen
            and all(b > 0 for b in self.balances)
        )

    def reset_history(self):
        self.balances.clear()


class TestLedgerMatchesDequeSemantics:
    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_random_sequences(self, window, seed):
        rng = np.random.default_rng(seed)
        agent = VNodeAgent(pid=PID, server_id=0, window=window)
        oracle = ReferenceAgent(window)
        for step in range(200):
            action = rng.integers(0, 10)
            if action == 0:
                agent.reset_history()
                oracle.reset_history()
                continue
            utility = float(rng.normal())
            rent = float(rng.normal())
            if action == 1:
                rent = utility  # force exact-zero balances through
            assert agent.record(utility, rent) == oracle.record(
                utility, rent
            )
            assert list(agent.balances) == list(oracle.balances), step
            assert agent.negative_streak == oracle.negative_streak, step
            assert agent.positive_streak == oracle.positive_streak, step
            assert agent.wealth == oracle.wealth  # exact, same fold
            assert agent.epochs_alive == oracle.epochs_alive

    def test_streak_at_window_boundary(self):
        agent = VNodeAgent(pid=PID, server_id=0, window=3)
        agent.record(0.0, 1.0)
        agent.record(0.0, 1.0)
        assert not agent.negative_streak  # 2 of 3
        agent.record(0.0, 1.0)
        assert agent.negative_streak  # exactly the window
        agent.record(0.0, 1.0)
        assert agent.negative_streak  # saturated run stays a streak

    def test_streak_survives_older_opposite_sign(self):
        # Only the last `window` balances matter, exactly as a deque.
        agent = VNodeAgent(pid=PID, server_id=0, window=2)
        agent.record(5.0, 0.0)   # positive, will slide out
        agent.record(0.0, 1.0)
        agent.record(0.0, 1.0)
        assert agent.negative_streak
        assert not agent.positive_streak

    def test_batch_recording_is_bitwise_equal_to_scalar(self):
        window = 3
        batched = AgentRegistry(window)
        scalar = AgentRegistry(window)
        for reg in (batched, scalar):
            reg.spawn(PID, 0)
            reg.spawn(PID, 1)
            reg.spawn(PID2, 2)
        rng = np.random.default_rng(42)
        for __ in range(7):
            utilities = rng.normal(size=3)
            rents = rng.normal(size=3)
            rows = np.array(
                [a.row for a in batched], dtype=np.intp
            )
            batched.record_batch(rows, utilities, rents)
            for agent, u, r in zip(scalar, utilities.tolist(),
                                   rents.tolist()):
                agent.record(u, r)
        for a, b in zip(batched, scalar):
            assert list(a.balances) == list(b.balances)
            assert a.wealth == b.wealth
            assert a.epochs_alive == b.epochs_alive
            assert a.negative_streak == b.negative_streak
            assert a.positive_streak == b.positive_streak

    def test_streak_flags_mirror_properties(self):
        reg = AgentRegistry(2)
        a = reg.spawn(PID, 0)
        b = reg.spawn(PID, 1)
        neg, pos = reg.streak_flags()
        assert not neg[a.row] and not pos[a.row]
        for __ in range(2):
            a.record(0.0, 1.0)
            b.record(2.0, 1.0)
        assert neg[a.row] and not pos[a.row]
        assert pos[b.row] and not neg[b.row]
        a.reset_history()
        assert not neg[a.row]


class TestWindowResets:
    def test_reset_after_move(self):
        reg = AgentRegistry(2)
        agent = reg.spawn(PID, 0)
        agent.record(0.0, 1.0)
        agent.record(0.0, 1.0)
        assert agent.negative_streak
        moved = reg.rehome(PID, 0, 5)
        assert moved is agent
        assert agent.server_id == 5
        assert agent.moves == 1
        assert not agent.negative_streak
        assert list(agent.balances) == []
        # The agent still settles through the shared ledger row.
        neg, __ = reg.streak_flags()
        agent.record(0.0, 1.0)
        agent.record(0.0, 1.0)
        assert neg[agent.row]

    def test_reset_after_economic_replication(self):
        # §II-C: both the parent and the new copy restart their windows.
        reg = AgentRegistry(2)
        parent = reg.spawn(PID, 0)
        for __ in range(2):
            parent.record(2.0, 1.0)
        assert parent.positive_streak
        child = reg.spawn(PID, 1)
        child.reset_history()
        parent.reset_history()
        assert not parent.positive_streak
        assert list(child.balances) == []

    def test_reset_after_split_with_wealth_inheritance(self):
        reg = AgentRegistry(2)
        agent = reg.spawn(PID, 3)
        agent.record(4.0, 1.0)
        agent.record(4.0, 1.0)
        wealth = agent.wealth
        low, high = PartitionId(0, 0, 10), PartitionId(0, 0, 11)
        reg.split_partition(PID, low, high)
        assert not reg.has(PID, 3)
        for child in (low, high):
            spawned = reg.get(child, 3)
            assert spawned.wealth == wealth / 2.0
            assert list(spawned.balances) == []  # fresh economics
            assert not spawned.positive_streak
        # The retired parent view still reads its final state.
        assert agent.wealth == wealth


class TestRowRecycling:
    def test_recycled_row_starts_clean(self):
        reg = AgentRegistry(2)
        doomed = reg.spawn(PID, 0)
        for __ in range(2):
            doomed.record(0.0, 1.0)
        row = doomed.row
        reg.retire(PID, 0)
        fresh = reg.spawn(PID2, 1)
        assert fresh.row == row  # the row was recycled...
        assert list(fresh.balances) == []  # ...with no inherited state
        assert not fresh.negative_streak
        assert fresh.wealth == 0.0
        neg, __ = reg.streak_flags()
        assert not neg[row]

    def test_retired_agent_is_detached(self):
        reg = AgentRegistry(2)
        agent = reg.spawn(PID, 0)
        agent.record(3.0, 1.0)
        wealth = agent.wealth
        reg.retire(PID, 0)
        # Readable after retirement, and isolated from the registry.
        assert agent.wealth == wealth
        assert agent.last_balance == 2.0
        replacement = reg.spawn(PID, 0)
        assert replacement.wealth == 0.0

    def test_detached_state_survives_row_reuse(self):
        """The retired agent's row is recycled and handed to the next
        spawn; the detached view must keep every field it had — with
        the ring buffer wrapped (5 records into a window of 3) and the
        replacement writing different values into the reused row."""
        reg = AgentRegistry(3)
        agent = reg.spawn(PID, 4)
        for utility in (1.0, 2.5, 0.25, 4.0, 0.5):
            agent.record(utility, 1.0)
        reg.rehome(PID, 4, 9)  # moves = 1, window reset
        for utility in (0.5, 0.25, 0.125, 0.0625):
            agent.record(utility, 1.0)
        row = agent.row
        want = (
            agent.server_id, agent.wealth, agent.balances, agent.moves,
            agent.epochs_alive, agent.last_balance,
            agent.negative_streak, agent.positive_streak,
        )
        assert want[0] == 9 and want[3] == 1 and want[6] is True
        assert want[2] == (-0.75, -0.875, -0.9375)  # wrapped, oldest first
        reg.retire(PID, 9)
        replacement = reg.spawn(PID, 7)
        assert replacement.row == row  # the recycled row, reused
        for __ in range(4):
            replacement.record(9.0, 1.0)
        assert (
            agent.server_id, agent.wealth, agent.balances, agent.moves,
            agent.epochs_alive, agent.last_balance,
            agent.negative_streak, agent.positive_streak,
        ) == want
        assert replacement.balances == (8.0, 8.0, 8.0)
        # Still a working ledger row of its own.
        agent.record(5.0, 1.0)
        assert agent.last_balance == 4.0
        assert agent.negative_streak is False


class TestCompaction:
    def test_compact_remaps_rows_and_preserves_state(self):
        reg = AgentRegistry(3)
        agents = [reg.spawn(PID, sid) for sid in range(40)]
        for i, agent in enumerate(agents):
            agent.record(float(i), 1.0)
        for sid in range(0, 40, 2):  # retire half
            reg.retire(PID, sid)
        survivors = [a for a in agents if a.server_id % 2 == 1]
        before = [
            (a.server_id, list(a.balances), a.wealth, a.epochs_alive)
            for a in survivors
        ]
        version = reg.version
        assert reg.maybe_compact(min_capacity=8)
        assert reg.version > version
        ledger = reg.ledger
        assert ledger.capacity == ledger.live_rows == len(survivors)
        assert sorted(a.row for a in survivors) == list(
            range(len(survivors))
        )
        after = [
            (a.server_id, list(a.balances), a.wealth, a.epochs_alive)
            for a in survivors
        ]
        assert before == after
        # Flags survive the remap and further recording works.
        neg, pos = reg.streak_flags()
        assert len(neg) == ledger.capacity
        survivors[0].record(0.0, 1.0)
        assert survivors[0].last_balance == -1.0

    def test_compact_preserves_streak_flags(self):
        reg = AgentRegistry(2)
        streaked = reg.spawn(PID, 1)
        for __ in range(2):
            streaked.record(0.0, 1.0)
        for sid in range(2, 30):
            reg.spawn(PID, sid)
        for sid in range(2, 30):
            reg.retire(PID, sid)
        assert reg.maybe_compact(min_capacity=4)
        neg, __ = reg.streak_flags()
        assert neg[streaked.row]
        assert streaked.negative_streak

    def test_maybe_compact_noop_when_dense(self):
        reg = AgentRegistry(2)
        for sid in range(8):
            reg.spawn(PID, sid)
        assert not reg.maybe_compact(min_capacity=4)

    def test_empty_registry_compacts(self):
        reg = AgentRegistry(2)
        for sid in range(80):
            reg.spawn(PID, sid)
        for sid in range(80):
            reg.retire(PID, sid)
        assert reg.maybe_compact(min_capacity=4)
        assert len(reg) == 0
        reg.spawn(PID, 0)  # still usable


class TestLedgerValidation:
    def test_window_required_for_detached_agent(self):
        with pytest.raises(AgentError):
            VNodeAgent(pid=PID, server_id=0)

    def test_invalid_window(self):
        with pytest.raises(AgentError):
            AgentLedger(window=0)

    def test_seeded_balances_do_not_count_as_wealth(self):
        agent = VNodeAgent(
            pid=PID, server_id=0, window=2, balances=[-1.0, -1.0]
        )
        assert agent.negative_streak
        assert agent.wealth == 0.0
        assert agent.epochs_alive == 0
