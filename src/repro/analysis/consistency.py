"""Linearizability-lite consistency audit over a client history.

Each serving overlay folds every request into a
:class:`ConsistencyFrontier` as it completes, checking it against the
committed ground truth — per key, the highest version any *successful
strong-level write* (``quorum`` / ``all``) stamped — and classifying
every deviation:

* **stale read** — a strong-level read observed a version older than a
  strong write committed *before* it.  Transiently possible under
  sloppy quorum: a hinted ack does not extend the read-overlap
  guarantee until the hint drains, which is exactly the window the
  audit is built to measure.  ONE-level reads are *expected* to be
  stale sometimes; they are tallied separately, not flagged.
* **lost write** — a committed strong write whose version no surviving
  copy (replica or parked hint) carries at audit time.  The guarantee
  under network-only fault schedules is that this count is zero: acked
  copies never physically vanish, and the catalog mirror drains a
  decommissioned replica's copies before dropping them.  Crashes are
  bounded by docs/ARCHITECTURE.md's sloppy-quorum rule.
* **dirty ghost read** — a read served by a physically dead replica.
  Impossible through :class:`repro.store.quorum.QuorumKVStore` (every
  contact goes through ``membership.responds``); checked so histories
  from looser stores replay under the same audit.

The checker is deliberately *lite*: versions are totally ordered per
key by the store's central stamp, so full linearizability checking
collapses to monotonicity against the committed frontier — no
permutation search needed.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Levels whose reads must observe every previously committed strong
#: write (R + W > N) once the system has quiesced.
STRONG_LEVELS = frozenset({"quorum", "all"})

#: A key's identity in the audit: (app_id, ring_id, key bytes).
KeyIdent = Tuple[int, int, bytes]


class AnomalyKind(enum.Enum):
    """Classification of one observed consistency deviation."""

    STALE_READ = "stale_read"
    LOST_WRITE = "lost_write"
    DIRTY_GHOST_READ = "dirty_ghost_read"


@dataclass(frozen=True)
class Anomaly:
    """One classified deviation, anchored to the op that exposed it."""

    kind: AnomalyKind
    seq: int
    epoch: int
    key: KeyIdent
    detail: str


@dataclass
class ConsistencyReport:
    """The audit verdict over one client history."""

    operations: int = 0
    reads: int = 0
    writes: int = 0
    read_failures: int = 0
    write_failures: int = 0
    weak_stale_reads: int = 0
    committed_keys: int = 0
    anomalies: List[Anomaly] = field(default_factory=list)

    @property
    def failed_ops(self) -> int:
        return self.read_failures + self.write_failures

    def counts(self) -> Dict[str, int]:
        out = {kind.value: 0 for kind in AnomalyKind}
        for anomaly in self.anomalies:
            out[anomaly.kind.value] += 1
        return out

    @property
    def stale_reads(self) -> int:
        return self.counts()[AnomalyKind.STALE_READ.value]

    @property
    def lost_writes(self) -> int:
        return self.counts()[AnomalyKind.LOST_WRITE.value]

    @property
    def dirty_ghost_reads(self) -> int:
        return self.counts()[AnomalyKind.DIRTY_GHOST_READ.value]

    @property
    def green(self) -> bool:
        """The durability verdict: no committed write lost, no dirty
        ghost served.  (Transient strong stale reads are reported but
        do not redden the audit — they are the measured cost of sloppy
        quorum, bounded by hint drain.)"""
        return self.lost_writes == 0 and self.dirty_ghost_reads == 0

    def render(self) -> str:
        counts = self.counts()
        lines = [
            "consistency audit "
            + ("GREEN" if self.green else "RED"),
            f"  operations: {self.operations} "
            f"({self.reads} reads, {self.writes} writes, "
            f"{self.failed_ops} failed)",
            f"  committed keys: {self.committed_keys}",
            f"  lost writes: {counts['lost_write']}",
            f"  strong stale reads: {counts['stale_read']}",
            f"  dirty ghost reads: {counts['dirty_ghost_read']}",
            f"  weak (ONE-level) stale reads: {self.weak_stale_reads}",
        ]
        for anomaly in self.anomalies[:10]:
            lines.append(
                f"    {anomaly.kind.value} @seq {anomaly.seq} "
                f"epoch {anomaly.epoch}: {anomaly.detail}"
            )
        if len(self.anomalies) > 10:
            lines.append(
                f"    ... and {len(self.anomalies) - 10} more"
            )
        return "\n".join(lines)


class ConsistencyFrontier:
    """The audit as a fold, one operation at a time; ``tally`` is the
    running report.  Per key it holds the freshest version any write
    acked (any level: what :meth:`lost` checks) and the freshest
    strong-level commit with its sequence number (what stale reads and
    the report's lost writes are measured against)."""

    def __init__(self) -> None:
        self.tally = ConsistencyReport()
        self._acked: Dict[KeyIdent, int] = {}
        self._committed: Dict[KeyIdent, int] = {}
        self._commit_seq: Dict[KeyIdent, int] = {}

    def fold(self, seq: int, epoch: int, kind: str, level: str,
             ident: KeyIdent, version: int,
             ghost_served: bool = False) -> None:
        """Account one completed operation: ``kind`` "get" | "put",
        ``version`` the one it read or stamped, -1 when it failed."""
        tally = self.tally
        tally.operations += 1
        if kind == "get":
            tally.reads += 1
            if ghost_served:
                tally.anomalies.append(Anomaly(
                    kind=AnomalyKind.DIRTY_GHOST_READ,
                    seq=seq, epoch=epoch, key=ident,
                    detail="read answered by a physically dead replica",
                ))
            if version < 0:
                tally.read_failures += 1
                return
            committed = self._committed.get(ident, 0)
            if version >= committed:
                return
            if level in STRONG_LEVELS:
                tally.anomalies.append(Anomaly(
                    kind=AnomalyKind.STALE_READ,
                    seq=seq, epoch=epoch, key=ident,
                    detail=(
                        f"strong read saw v{version} after v{committed} "
                        f"committed at seq {self._commit_seq[ident]}"
                    ),
                ))
            else:
                tally.weak_stale_reads += 1
            return
        tally.writes += 1
        if version < 0:
            tally.write_failures += 1
            return
        if version > self._acked.get(ident, 0):
            self._acked[ident] = version
        if level in STRONG_LEVELS and version > self._committed.get(ident, 0):
            self._committed[ident] = version
            self._commit_seq[ident] = seq

    def lost(self, surviving: Callable[..., int]
             ) -> List[Tuple[int, int, bytes, int, int]]:
        """Acked writes (any level) no surviving copy still carries:
        ``(app_id, ring_id, key, acked_version, surviving)`` rows in key
        order; ``surviving(app_id, ring_id, key)`` is the freshest
        version left."""
        rows = []
        for ident, acked in sorted(self._acked.items()):
            version = surviving(*ident)
            if version < acked:
                rows.append((*ident, acked, version))
        return rows

    def report(self, surviving: Optional[Callable[..., int]] = None
               ) -> ConsistencyReport:
        """The verdict so far; with ``surviving`` (as for :meth:`lost`)
        every committed strong write is also checked for durability."""
        report = dataclasses.replace(
            self.tally, committed_keys=len(self._committed),
            anomalies=list(self.tally.anomalies),
        )
        if surviving is None:
            return report
        for seq, ident in sorted(
            (seq, ident) for ident, seq in self._commit_seq.items()
        ):
            version = self._committed[ident]
            left = surviving(*ident)
            if left < version:
                report.anomalies.append(Anomaly(
                    kind=AnomalyKind.LOST_WRITE, seq=seq, epoch=-1,
                    key=ident,
                    detail=f"committed v{version} survives only as v{left}",
                ))
        return report

