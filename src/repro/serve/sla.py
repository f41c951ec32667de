"""Per-ring / per-tenant SLA evaluation for the serving front door.

The paper's economics are availability economics — replicas are bought
to keep availability above per-ring thresholds.  The SLA view closes
the loop to what users actually see: each ring (one tenant's
availability tier) is held to one latency target per operation kind
(:data:`SLA_READ_MS`, :data:`SLA_WRITE_MS`), every request is judged
against it, and the ledger reports attainment per tenant.  A failed
request (no quorum) always violates — unavailability is the worst
latency.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Latency targets (milliseconds) per operation kind.  A worst-case
#: healthy quorum op costs two cross-continent round trips (~240 ms),
#: so 250 / 400 ms classify timeout waits and queueing excursions as
#: violations without penalizing clean geography.
SLA_READ_MS = 250.0
SLA_WRITE_MS = 400.0


class SlaLedger:
    """Counts requests and SLA violations per (app_id, ring_id) tenant."""

    def __init__(self) -> None:
        # (app_id, ring_id) -> [requests, read_violations, write_violations]
        self._tenants: Dict[Tuple[int, int], list] = {}
        self.read_violations = 0
        self.write_violations = 0
        self._epoch_base = (0, 0)

    def record(self, app_id: int, ring_id: int, kind: str,
               latency_ms: float, ok: bool) -> bool:
        """Judge one request; returns True when it violated its SLA."""
        row = self._tenants.setdefault((app_id, ring_id), [0, 0, 0])
        row[0] += 1
        violated = (not ok) or latency_ms > (
            SLA_READ_MS if kind == "get" else SLA_WRITE_MS
        )
        if violated:
            if kind == "get":
                row[1] += 1
                self.read_violations += 1
            else:
                row[2] += 1
                self.write_violations += 1
        return violated

    def begin_epoch(self) -> None:
        """Snapshot counters so :meth:`epoch_counts` reports deltas."""
        self._epoch_base = (self.read_violations, self.write_violations)

    def epoch_counts(self) -> Tuple[int, int]:
        """(read, write) violation deltas since :meth:`begin_epoch`."""
        return (
            self.read_violations - self._epoch_base[0],
            self.write_violations - self._epoch_base[1],
        )

    def tenant_view(self) -> Dict[Tuple[int, int], Dict[str, float]]:
        """Whole-run attainment per tenant ring.

        ``attainment`` is the fraction of requests inside their SLA —
        the user-visible counterpart of the ring's availability tier.
        """
        out: Dict[Tuple[int, int], Dict[str, float]] = {}
        for tenant, (requests, reads, writes) in sorted(
            self._tenants.items()
        ):
            violations = reads + writes
            out[tenant] = {
                "requests": requests,
                "read_violations": reads,
                "write_violations": writes,
                "attainment": (
                    1.0 - violations / requests if requests else 1.0
                ),
            }
        return out
