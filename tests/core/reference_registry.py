"""The hand-paired agent registry as it was before the catalog owned
the agents' ledger rows, frozen.

Test-only oracle for ``tests/integration/test_replica_table_oracle.py``.
Every catalog mutation used to be mirrored by hand through this class —
place ⇔ :meth:`spawn`, drop ⇔ :meth:`retire`, move ⇔ :meth:`rehome`,
plus :meth:`split_partition` and :meth:`drop_server` — which kept its
own ``(pid, server)`` dict, per-partition agent lists and a row mirror
over a private :class:`~repro.core.agent.AgentLedger`.  The bodies are
the parent commit's, verbatim where the shipped ledger allows; left out
are what only served the retired catalog↔ledger alignment (each row's
partition slot and spawn sequence, the mutation journal) and the
graveyard retired agents detached onto (nothing here reads a retired
agent).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.agent import AgentError, AgentLedger
from repro.ring.partition import PartitionId


class ReferenceAgent:
    """One agent: its partition and its row of the reference ledger."""

    __slots__ = ("pid", "row")

    def __init__(self, pid: PartitionId, row: int) -> None:
        self.pid = pid
        self.row = row


class ReferenceRegistry:
    """All live agents, indexed by (partition, server) and by partition."""

    def __init__(self, window: int) -> None:
        self.ledger = AgentLedger(window)
        self._agents: Dict[Tuple[PartitionId, int], ReferenceAgent] = {}
        self._by_pid: Dict[PartitionId, List[ReferenceAgent]] = {}

    def __len__(self) -> int:
        return len(self._agents)

    def server_id(self, agent: ReferenceAgent) -> int:
        return self.ledger.server_id(agent.row)

    def spawn(self, pid: PartitionId, server_id: int) -> ReferenceAgent:
        key = (pid, server_id)
        if key in self._agents:
            raise AgentError(f"agent already exists for {pid}@{server_id}")
        agent = ReferenceAgent(pid, self.ledger.acquire(server_id))
        self._agents[key] = agent
        self._by_pid.setdefault(pid, []).append(agent)
        return agent

    def retire(self, pid: PartitionId, server_id: int) -> ReferenceAgent:
        key = (pid, server_id)
        try:
            agent = self._agents.pop(key)
        except KeyError:
            raise AgentError(f"no agent for {pid}@{server_id}") from None
        self._by_pid[pid].remove(agent)
        if not self._by_pid[pid]:
            del self._by_pid[pid]
        self.ledger.release(agent.row)
        return agent

    def rehome(self, pid: PartitionId, src: int, dst: int) -> ReferenceAgent:
        key = (pid, src)
        try:
            agent = self._agents.pop(key)
        except KeyError:
            raise AgentError(f"no agent for {pid}@{src}") from None
        # ``VNodeAgent.moved_to``: re-point, count the move, reset.
        self.ledger.set_server_id(agent.row, dst)
        self.ledger.add_move(agent.row)
        self.ledger.reset_window(agent.row)
        self._agents[(pid, dst)] = agent
        # The agent keeps its ledger row; only the (pid, server) key and
        # the per-partition list order change (removed, re-appended) to
        # mirror the catalog's move (place dst, drop src).
        agents = self._by_pid[pid]
        agents.remove(agent)
        agents.append(agent)
        return agent

    def get(self, pid: PartitionId, server_id: int) -> ReferenceAgent:
        try:
            return self._agents[(pid, server_id)]
        except KeyError:
            raise AgentError(f"no agent for {pid}@{server_id}") from None

    def has(self, pid: PartitionId, server_id: int) -> bool:
        return (pid, server_id) in self._agents

    def of_partition(self, pid: PartitionId) -> List[ReferenceAgent]:
        return list(self._by_pid.get(pid, ()))

    def partitions(self) -> List[PartitionId]:
        """Every partition that currently has at least one agent."""
        return list(self._by_pid.keys())

    def drop_server(self, server_id: int) -> List[ReferenceAgent]:
        """Retire every agent on a failed server; returns the casualties."""
        victims = [
            a for a in self._agents.values()
            if self.server_id(a) == server_id
        ]
        for agent in victims:
            self.retire(agent.pid, server_id)
        return victims

    def split_partition(self, parent: PartitionId, low: PartitionId,
                        high: PartitionId) -> None:
        """Replace a split partition's agents with per-child agents.

        Children inherit the parent agent's wealth split evenly (the
        balance window restarts — the children face fresh economics).
        """
        for agent in self.of_partition(parent):
            sid = self.server_id(agent)
            inherited = self.ledger.wealth(agent.row) / 2.0
            self.retire(parent, sid)
            for child in (low, high):
                spawned = self.spawn(child, sid)
                self.ledger.set_wealth(spawned.row, inherited)

    def compact(self) -> None:
        """Repack the ledger densely after retirements."""
        fresh, remap = self.ledger.compacted()
        for agent in self._agents.values():
            agent.row = int(remap[agent.row])
        self.ledger = fresh

    def maybe_compact(self, min_capacity: int = 64) -> bool:
        """Compact when more than half the ledger rows sit free."""
        ledger = self.ledger
        if ledger.capacity <= min_capacity:
            return False
        if ledger.capacity - ledger.live_rows <= ledger.live_rows:
            return False
        self.compact()
        return True

    def check_mirror(self, servers_of) -> None:
        """Verify agent existence matches a catalog view.

        ``servers_of`` is a callable pid -> list of server ids.
        """
        for (pid, sid) in self._agents:
            if sid not in servers_of(pid):
                raise AgentError(f"agent {pid}@{sid} has no replica")
        for pid, agents in self._by_pid.items():
            expected = set(servers_of(pid))
            actual = {self.server_id(a) for a in agents}
            if expected != actual:
                raise AgentError(
                    f"agent mismatch for {pid}: {actual} != {expected}"
                )

    def state(self, agent: ReferenceAgent) -> tuple:
        """(wealth, window, neg run, pos run, moves, epochs alive)."""
        return row_state(self.ledger, agent.row)


def row_state(ledger: AgentLedger, row: int) -> tuple:
    """One ledger row's economics, in the order the oracle compares."""
    neg_run, pos_run = ledger.streak_run_vectors()
    return (
        ledger.wealth(row),
        tuple(ledger.window_values(row)),
        int(neg_run[row]),
        int(pos_run[row]),
        ledger.moves(row),
        ledger.epochs_alive(row),
    )
