"""The array ledger must reproduce the old per-agent deque semantics.

The first agents kept a ``Deque[float]`` balance window each; the array
ledger stores every window as one row of a catalog-owned ring-buffer
matrix plus streak-run vectors.  These tests pin the representation to
the reference semantics: streak detection at window boundaries, window
resets after moves/replications/splits, scalar-vs-batched recording
bit-equality, row recycling hygiene and compaction.
"""

from collections import deque

import numpy as np
import pytest

from repro.core.agent import AgentError, AgentLedger, AgentRegistry, VNodeAgent
from repro.ring.keyspace import KeyRange
from repro.ring.partition import Partition, PartitionId
from tests.core.test_agent import catalog_of, part

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
        ledger = AgentLedger(window)
        agent = VNodeAgent(PID, 0, ledger=ledger, row=ledger.acquire(0))
        oracle = ReferenceAgent(window)
        for step in range(200):
            action = rng.integers(0, 10)
            if action == 0:
                ledger.reset_window(agent.row)
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
        catalogs = [catalog_of(window), catalog_of(window)]
        for catalog in catalogs:
            catalog.place(part(0), 0)
            catalog.place(part(0), 1)
            catalog.place(part(1), 2)
        batched, scalar = (AgentRegistry(c) for c in catalogs)
        rng = np.random.default_rng(42)
        for __ in range(7):
            utilities = rng.normal(size=3)
            rents = rng.normal(size=3)
            rows = np.array(
                [a.row for a in batched], dtype=np.intp
            )
            batched.ledger.record_batch(rows, utilities, rents)
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
        catalog = catalog_of(2)
        reg = AgentRegistry(catalog)
        catalog.place(part(0), 0)
        catalog.place(part(0), 1)
        a, b = reg.of_partition(PID)
        neg, pos = catalog.ledger.streak_flags()
        assert not neg[a.row] and not pos[a.row]
        for __ in range(2):
            a.record(0.0, 1.0)
            b.record(2.0, 1.0)
        assert neg[a.row] and not pos[a.row]
        assert pos[b.row] and not neg[b.row]
        catalog.ledger.reset_window(a.row)
        assert not neg[a.row]


class TestWindowResets:
    def test_reset_after_move(self):
        catalog = catalog_of(2)
        reg = AgentRegistry(catalog)
        catalog.place(part(0), 0)
        agent = reg.get(PID, 0)
        agent.record(0.0, 1.0)
        agent.record(0.0, 1.0)
        assert agent.negative_streak
        catalog.move(part(0), 0, 5)
        assert reg.get(PID, 5).row == agent.row
        assert agent.server_id == 5
        assert agent.moves == 1
        assert not agent.negative_streak
        assert list(agent.balances) == []
        # The agent still settles through the shared ledger row.
        neg, __ = catalog.ledger.streak_flags()
        agent.record(0.0, 1.0)
        agent.record(0.0, 1.0)
        assert neg[agent.row]

    def test_reset_after_economic_replication(self):
        # §II-C: both the parent and the new copy restart their windows.
        catalog = catalog_of(2)
        reg = AgentRegistry(catalog)
        catalog.place(part(0), 0)
        parent = reg.get(PID, 0)
        for __ in range(2):
            parent.record(2.0, 1.0)
        assert parent.positive_streak
        catalog.place(part(0), 1)
        catalog.ledger.reset_window(parent.row)
        child = reg.get(PID, 1)
        assert not parent.positive_streak
        assert list(child.balances) == []

    def test_reset_after_split_with_wealth_inheritance(self):
        catalog = catalog_of(2)
        reg = AgentRegistry(catalog)
        catalog.place(part(0), 3)
        agent = reg.get(PID, 3)
        agent.record(4.0, 1.0)
        agent.record(4.0, 1.0)
        wealth = agent.wealth
        low = Partition(PartitionId(0, 0, 10), KeyRange(0, 250), 50, 10_000)
        high = Partition(PartitionId(0, 0, 11), KeyRange(250, 500), 50,
                         10_000)
        catalog.split_partition(part(0), low, high)
        assert reg.of_partition(PID) == []
        for child in (low.pid, high.pid):
            spawned = reg.get(child, 3)
            assert spawned.wealth == wealth / 2.0
            assert list(spawned.balances) == []  # fresh economics
            assert not spawned.positive_streak


class TestRowRecycling:
    def test_recycled_row_starts_clean(self):
        catalog = catalog_of(2)
        reg = AgentRegistry(catalog)
        catalog.place(part(0), 0)
        doomed = reg.get(PID, 0)
        for __ in range(2):
            doomed.record(0.0, 1.0)
        row = doomed.row
        catalog.drop(part(0), 0)
        catalog.place(part(1), 1)
        fresh = reg.get(PID2, 1)
        assert fresh.row == row  # the row was recycled...
        assert list(fresh.balances) == []  # ...with no inherited state
        assert not fresh.negative_streak
        assert fresh.wealth == 0.0
        neg, __ = catalog.ledger.streak_flags()
        assert not neg[row]


class TestCompaction:
    def test_compact_remaps_rows_and_preserves_state(self):
        catalog = catalog_of(3, n=40)
        reg = AgentRegistry(catalog)
        for sid in range(40):
            catalog.place(part(0), sid)
        for sid, agent in enumerate(reg.of_partition(PID)):
            agent.record(float(sid), 1.0)
        for sid in range(0, 40, 2):  # drop half
            catalog.drop(part(0), sid)

        def state():
            return [
                (a.server_id, list(a.balances), a.wealth, a.epochs_alive)
                for a in reg.of_partition(PID)
            ]

        before = state()
        version = catalog.version
        assert reg.maybe_compact(min_capacity=8)
        assert catalog.version > version
        ledger = reg.ledger
        assert ledger is catalog.ledger
        assert ledger.capacity == ledger.live_rows == 20
        assert sorted(catalog.rows_of(PID)) == list(range(20))
        assert state() == before
        # Flags survive the remap and further recording works.
        neg, pos = ledger.streak_flags()
        assert len(neg) == ledger.capacity
        survivor = reg.of_partition(PID)[0]
        survivor.record(0.0, 1.0)
        assert survivor.balances[-1] == -1.0

    def test_compact_preserves_streak_flags(self):
        catalog = catalog_of(2, n=30)
        reg = AgentRegistry(catalog)
        catalog.place(part(0), 1)
        streaked = reg.get(PID, 1)
        for __ in range(2):
            streaked.record(0.0, 1.0)
        for sid in range(2, 30):
            catalog.place(part(1), sid)
        for sid in range(2, 30):
            catalog.drop(part(1), sid)
        assert reg.maybe_compact(min_capacity=4)
        streaked = reg.get(PID, 1)
        neg, __ = catalog.ledger.streak_flags()
        assert neg[streaked.row]
        assert streaked.negative_streak

    def test_maybe_compact_noop_when_dense(self):
        catalog = catalog_of(2, n=8)
        reg = AgentRegistry(catalog)
        for sid in range(8):
            catalog.place(part(0), sid)
        assert not reg.maybe_compact(min_capacity=4)

    def test_empty_catalog_compacts(self):
        catalog = catalog_of(2, n=80)
        reg = AgentRegistry(catalog)
        for sid in range(80):
            catalog.place(part(0), sid)
        for sid in range(80):
            catalog.drop(part(0), sid)
        assert reg.maybe_compact(min_capacity=4)
        assert len(reg) == 0
        catalog.place(part(0), 0)  # still usable
        assert reg.get(PID, 0).row == 0


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
