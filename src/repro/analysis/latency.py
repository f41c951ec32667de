"""Response-time and communication-overhead models.

The paper's conclusion defers "latency and communication overhead" to
future work; this module provides the straightforward model its
geographic machinery implies, so the proximity behaviour (eq. 4, the
migrate-toward-clients rule) can be evaluated quantitatively:

* **network latency** — a monotone map from the 6-bit diversity between
  a client location and the serving replica to a round-trip estimate.
  The defaults follow typical 2010 WAN numbers: sub-millisecond within
  a rack, ~100 ms across continents.
* **response time** — per-partition expectation over the client
  geography, assuming clients hit their closest live replica.
* **communication overhead** — bytes shipped over access links for
  replica maintenance (replication + migration traffic), which the
  simulator already meters per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.location import Location, diversity
from repro.cluster.topology import Cloud
from repro.ring.partition import PartitionId
from repro.store.replica import ReplicaCatalog
from repro.workload.clients import ClientGeography


class LatencyError(ValueError):
    """Raised for invalid latency-model parameters."""


#: Default RTT estimate (milliseconds) per diversity value.  Diversity
#: is always of the form 2^k − 1: 0 same server, 1 same rack, 3 same
#: room, 7 same datacenter, 15 same country+DC-step, 31 cross-country
#: (same continent), 63 cross-continent.
DEFAULT_RTT_MS: Dict[int, float] = {
    0: 0.1,
    1: 0.3,
    3: 0.5,
    7: 1.0,
    15: 10.0,
    31: 35.0,
    63: 120.0,
}


@dataclass(frozen=True)
class LatencyModel:
    """Monotone diversity → round-trip-time map."""

    rtt_ms: Dict[int, float] = field(
        default_factory=lambda: dict(DEFAULT_RTT_MS)
    )

    def __post_init__(self) -> None:
        if set(self.rtt_ms) != set(DEFAULT_RTT_MS):
            raise LatencyError(
                f"rtt_ms must map exactly the diversity values "
                f"{sorted(DEFAULT_RTT_MS)}"
            )
        ordered = [self.rtt_ms[d] for d in sorted(self.rtt_ms)]
        if any(b < a for a, b in zip(ordered, ordered[1:])):
            raise LatencyError("rtt_ms must be monotone in diversity")
        if any(v < 0 for v in ordered):
            raise LatencyError("rtt values must be >= 0")

    def rtt(self, d: int) -> float:
        """RTT for one diversity value."""
        try:
            return self.rtt_ms[d]
        except KeyError:
            raise LatencyError(f"not a diversity value: {d}") from None

    def client_to_server(self, client: Location, cloud: Cloud,
                         server_id: int) -> float:
        return self.rtt(diversity(client, cloud.server(server_id).location))

    def best_replica_rtt(self, client: Location, cloud: Cloud,
                         replicas: Sequence[int]) -> float:
        """RTT to the closest live replica (how reads are routed)."""
        live = [
            sid
            for sid in replicas
            if sid in cloud and cloud.server(sid).alive
        ]
        if not live:
            raise LatencyError("no live replica")
        return min(
            self.client_to_server(client, cloud, sid) for sid in live
        )


def expected_response_time(model: LatencyModel, cloud: Cloud,
                           catalog: ReplicaCatalog, pid: PartitionId,
                           geography: ClientGeography) -> float:
    """Geography-weighted expected read RTT of one partition (ms).

    Under the uniform geography every (continent, country) of the
    cloud's own layout is an equally likely client site, approximated
    here by the mean RTT from each replica-hosting continent... the
    uniform case instead uses the *server population* as the client
    population: each live server location is an equally weighted
    client, which matches "clients are everywhere".
    """
    replicas = catalog.servers_of(pid)
    if geography.is_uniform:
        sites: List[Tuple[Location, float]] = [
            (server.location, 1.0) for server in cloud
        ]
    else:
        sites = geography.weighted_sites()
    total_w = sum(w for __, w in sites)
    if total_w <= 0:
        raise LatencyError("geography has no weight")
    acc = 0.0
    for site, weight in sites:
        acc += weight * model.best_replica_rtt(site, cloud, replicas)
    return acc / total_w


def weighted_percentile(values: np.ndarray, weights: np.ndarray,
                        q: float) -> float:
    """Inverse-CDF percentile of ``values`` under non-negative ``weights``.

    The q-th percentile is the smallest value whose cumulative weight
    reaches ``q`` percent of the total.  With all weights equal this is
    the classic "nearest-rank" percentile (no interpolation), which is
    what a popularity-weighted tail should report: an actual observed
    value, not a blend of two.
    """
    if len(values) != len(weights):
        raise LatencyError("values and weights must have equal length")
    total = float(weights.sum())
    if total <= 0:
        raise LatencyError("weights must have positive total")
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    idx = int(np.searchsorted(cum, (q / 100.0) * total, side="left"))
    return float(values[order][min(idx, len(values) - 1)])


def app_response_times(model: LatencyModel, cloud: Cloud,
                       catalog: ReplicaCatalog,
                       pids: Sequence[PartitionId],
                       geography: ClientGeography,
                       weights: Optional[Dict[PartitionId, float]] = None
                       ) -> Dict[str, float]:
    """Summary statistics of expected read RTT over an app's partitions.

    With ``weights=None`` (or an empty mapping) every partition counts
    equally — the explicit unweighted path.  A non-empty ``weights``
    mapping (e.g. popularity) weights the mean *and* the percentiles,
    so a skewed app's p50/p95 reflect what its traffic actually sees;
    partitions absent from the mapping get weight 0.  Passing weights
    that sum to zero is an error (it would silently degenerate to the
    unweighted view), as is a negative weight.
    """
    if not pids:
        raise LatencyError("no partitions given")
    rtts = np.array(
        [
            expected_response_time(model, cloud, catalog, pid, geography)
            for pid in pids
        ],
        dtype=np.float64,
    )
    if weights:
        w = np.array(
            [weights.get(pid, 0.0) for pid in pids], dtype=np.float64
        )
        if (w < 0).any():
            raise LatencyError("weights must be >= 0")
        if w.sum() <= 0:
            raise LatencyError(
                "weights sum to zero over the given partitions; pass "
                "weights=None for the unweighted summary"
            )
        mean = float((rtts * w).sum() / w.sum())
        p50 = weighted_percentile(rtts, w, 50)
        p95 = weighted_percentile(rtts, w, 95)
    else:
        mean = float(rtts.mean())
        p50 = float(np.percentile(rtts, 50))
        p95 = float(np.percentile(rtts, 95))
    return {
        "mean_ms": mean,
        "p50_ms": p50,
        "p95_ms": p95,
        "max_ms": float(rtts.max()),
    }


@dataclass
class OverheadLedger:
    """Cumulative maintenance traffic, in bytes over access links.

    Fed from the per-epoch metric frames; answers "what does keeping
    the SLAs cost the network?" — the paper's deferred question.
    """

    replication_bytes: int = 0
    migration_bytes: int = 0
    epochs: int = 0

    def record(self, replication_bytes: int, migration_bytes: int) -> None:
        if replication_bytes < 0 or migration_bytes < 0:
            raise LatencyError("byte counts must be >= 0")
        self.replication_bytes += replication_bytes
        self.migration_bytes += migration_bytes
        self.epochs += 1

    @property
    def total_bytes(self) -> int:
        return self.replication_bytes + self.migration_bytes

