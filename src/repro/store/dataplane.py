"""The per-epoch serving overlay: clients, hints, repair, metrics.

:class:`DataPlane` is what the engine instantiates when a
:class:`repro.sim.config.DataPlaneConfig` is attached: one
:class:`~repro.store.quorum.QuorumKVStore` routed through the run's
believed membership view, a :class:`~repro.store.hints.HintStore` for
sloppy-quorum handoff, and a
:class:`~repro.workload.clients.DataPlaneClients` traffic source.
Each epoch it

1. issues the epoch's client operations (recording every outcome as a
   :class:`ClientOp` — the history the consistency audit replays),
2. drains due hints toward rehabilitated targets,
3. runs one budget-capped anti-entropy pass,

and then reports the epoch's counter deltas as a
:class:`repro.sim.metrics.DataPlaneFrame`.

The overlay is deliberately side-effect-free toward the economy: it
keeps its own copies, uses its own RNG stream, and never touches
partition sizes or server storage — which is why enabling it leaves
the golden EpochFrame streams byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.location import Location
from repro.ring.virtualring import RingSet
from repro.store.hints import HintStore
from repro.store.quorum import Level, QuorumError, QuorumKVStore
from repro.store.replica import ReplicaCatalog
from repro.workload.clients import DataPlaneClients

# NOTE: repro.sim.metrics is imported lazily inside collect_frame so
# this module can be imported from either package side (repro.store or
# repro.sim) without a circular import.


@dataclass(frozen=True)
class ClientOp:
    """One replayable entry of the client history.

    ``version`` is the version the operation observed (reads) or
    stamped (writes); failed operations carry -1.  ``ghost_served``
    marks a read answered by a physically dead replica — impossible
    through :class:`QuorumKVStore` by construction (contact goes
    through ``membership.responds``), kept so the audit can classify
    it when replaying histories from looser stores.
    """

    seq: int
    epoch: int
    kind: str  # "get" | "put"
    level: str
    app_id: int
    ring_id: int
    key: bytes
    ok: bool
    version: int
    ghost_served: bool = False


class DataPlane:
    """Owns the serving stack for one simulation run."""

    def __init__(self, config, cloud, rings: RingSet,
                 catalog: ReplicaCatalog, membership, *,
                 rng: np.random.Generator,
                 apps: Sequence[Tuple[int, int]],
                 sites: Sequence[Location] = ()) -> None:
        self.config = config
        self.level = Level(config.level)
        self.hints = HintStore(
            ttl=config.hint_ttl,
            base_delay=config.hint_base_delay,
            cap=config.hint_backoff_cap,
        )
        self.store = QuorumKVStore(
            cloud, rings, catalog,
            read_repair=config.read_repair,
            membership=membership,
            hints=self.hints,
            track_catalog=True,
        )
        self.clients: Optional[DataPlaneClients] = None
        if config.ops_per_epoch > 0:
            self.clients = DataPlaneClients(
                apps=apps,
                ops_per_epoch=config.ops_per_epoch,
                read_fraction=config.read_fraction,
                keyspace=config.keyspace,
                value_size=config.value_size,
                rng=rng,
                sites=sites,
            )
        self.history: List[ClientOp] = []
        #: Cleared (e.g. during a settle phase) to stop issuing client
        #: traffic while hints keep draining and anti-entropy keeps
        #: running — how the audit lets the system quiesce.
        self.clients_enabled = True
        self._seq = 0
        self._prev_scalars: Dict[str, int] = {
            name: 0 for name in self.store.stats.SCALARS
        }
        self._prev_levels: Dict[str, Tuple[int, int, int]] = {}

    # -- epoch loop ------------------------------------------------------------

    def step(self, epoch: int) -> None:
        """Run one epoch of client traffic, hint drain and anti-entropy."""
        self.store.begin_epoch(epoch)
        if self.clients is not None and self.clients_enabled:
            self._run_clients(epoch)
        self.store.drain_hints(epoch)
        cfg = self.config
        if cfg.anti_entropy_partitions > 0:
            self.store.anti_entropy(
                epoch,
                max_partitions=cfg.anti_entropy_partitions,
                max_bytes=cfg.anti_entropy_bytes,
            )

    def _run_clients(self, epoch: int) -> None:
        level = self.level
        for req in self.clients.draw(epoch):
            ok = True
            version = -1
            try:
                if req.kind == "get":
                    read = self.store.get(
                        req.app_id, req.ring_id, req.key,
                        level=level, client=req.client,
                    )
                    version = read.version
                else:
                    write = self.store.put(
                        req.app_id, req.ring_id, req.key, req.value,
                        level=level, client=req.client,
                    )
                    version = write.version
            except QuorumError:
                ok = False
            self.history.append(ClientOp(
                seq=self._seq, epoch=epoch, kind=req.kind,
                level=level.value, app_id=req.app_id,
                ring_id=req.ring_id, key=req.key, ok=ok,
                version=version,
            ))
            self._seq += 1

    def collect_frame(self, epoch: int):
        """The epoch's :class:`~repro.sim.metrics.DataPlaneFrame` deltas."""
        from repro.sim.metrics import DataPlaneFrame

        stats = self.store.stats
        scalars = stats.as_dict()
        deltas = {
            name: scalars[name] - self._prev_scalars[name]
            for name in scalars
        }
        self._prev_scalars = scalars
        level_rows = stats.level_rows()
        level_deltas: Dict[str, Tuple[int, int, int]] = {}
        for lv, row in level_rows.items():
            prev = self._prev_levels.get(lv, (0, 0, 0))
            delta = tuple(row[k] - prev[k] for k in range(3))
            if any(delta):
                level_deltas[lv] = delta
        self._prev_levels = level_rows
        return DataPlaneFrame(
            epoch=epoch,
            hint_queue_depth=self.hints.depth,
            levels=level_deltas,
            **deltas,
        )

    # -- audit ground truth ----------------------------------------------------

    def op_keys(self) -> List[Tuple[int, int, bytes]]:
        """Distinct (app, ring, key) identities the history touched."""
        seen: Dict[Tuple[int, int, bytes], None] = {}
        for op in self.history:
            seen.setdefault((op.app_id, op.ring_id, op.key), None)
        return list(seen)

    def surviving_versions(self) -> Dict[Tuple[int, int, bytes], int]:
        """Freshest surviving version (copies + parked hints) per key."""
        return {
            ident: self.store.surviving_version(*ident)
            for ident in self.op_keys()
        }
