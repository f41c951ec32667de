"""Static Dynamo-style replication baseline.

The comparison point the paper positions itself against (§I, [5]): a
fixed replication degree per ring with placement on the key's successor
servers, no economics, no geographic awareness and no adaptation.  The
baseline runs under the identical substrate (same cloud, rings,
catalog, budgets, workload) so ablation benches isolate the value of
the virtual economy itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.board import PriceBoard
from repro.core.decision import DecisionEngine
from repro.core.policy import DecisionStats
from repro.ring.hashing import hash_key
from repro.ring.partition import Partition
from repro.workload.mix import EpochLoad


class StaticDecider(DecisionEngine):
    """Fixed-count successor placement; repairs count, never optimises.

    Inherits the settlement path (agents still pay rent and earn
    utility, so cost metrics stay comparable) but replaces the entire
    §II-C decision pass: every partition simply keeps
    ``ring.level.target_replicas`` copies on the first feasible servers
    clockwise from its hash position.
    """

    def decide(self, board: PriceBoard, load: EpochLoad,
               rng: np.random.Generator,
               g_of_app: Optional[Dict[int, np.ndarray]] = None
               ) -> DecisionStats:
        stats = DecisionStats()
        for ring in self._rings:
            target = ring.level.target_replicas
            for partition in ring:
                self._top_up(partition, target, stats)
        return stats

    def _successor_order(self, partition: Partition) -> List[int]:
        """Server ids ordered clockwise from the partition's position."""
        ids = self._cloud.server_ids
        ranked = sorted(ids, key=lambda sid: hash_key(f"server:{sid}"))
        position = partition.key_range.end
        # First server whose hash exceeds the partition position.
        start = 0
        for i, sid in enumerate(ranked):
            if hash_key(f"server:{sid}") >= position:
                start = i
                break
        return ranked[start:] + ranked[:start]

    def _top_up(self, partition: Partition, target: int,
                stats: DecisionStats) -> None:
        pid = partition.pid
        servers = self._live_replicas(pid)
        if not servers:
            stats.lost_partitions += 1
            return
        if len(servers) >= target:
            return
        order = self._successor_order(partition)
        for candidate in order:
            if len(servers) >= target:
                break
            if candidate in servers:
                continue
            server = self._cloud.server(candidate)
            if not server.can_store(partition.size):
                continue
            source = self._pick_source(servers, partition.size)
            if source is None:
                stats.deferred += 1
                return
            result = self._transfers.replicate(partition, source, candidate)
            if not result.ok:
                stats.deferred += 1
                return
            stats.repairs += 1
            servers = self._live_replicas(pid)
        if len(servers) < target:
            stats.unsatisfied_partitions += 1


#: Factory for :class:`~repro.sim.engine.Simulation`.
static_decider = StaticDecider.from_context
