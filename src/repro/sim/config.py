"""Scenario configuration for the Skute simulator.

:class:`SimConfig` captures every §III-A parameter.  Nothing here builds
one: :func:`repro.sim.scenario.compile_config` is the only constructor
in ``src/``, and the paper's parameter sets (§III-A base cloud, Fig. 4
spike, Fig. 5 insert stream) are the spec templates in
:mod:`repro.sim.specs.paper`.

Scale note: the paper stores 500 GB across three applications while
capping partitions at 256 MB with M=200 partitions per application —
numbers that force thousands of immediate splits.  The default scenario
keeps M=200 and the 256 MB cap but seeds each partition at half
capacity (96 MB, migratable within the 100 MB/epoch budget), preserving
every decision-relevant ratio (storage pressure, splits under inserts,
bandwidth-budget units) at tractable simulation cost; a spec's
constraints tier exposes the knobs to run the full-size variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cluster.confidence import ConfidenceModel
from repro.cluster.server import GB, MB
from repro.cluster.topology import CloudLayout
from repro.core.economy import RentModel
from repro.core.policy import KERNELS, EconomicPolicy
from repro.net.model import NetConfig
from repro.workload.arrivals import ConstantRate, RateProfile
from repro.workload.clients import ClientGeography, uniform_geography


class ConfigError(ValueError):
    """Raised for inconsistent scenario configurations."""


def scaled_paper_layout(scale: int = 1) -> CloudLayout:
    """The §III-A cloud grown ``scale``× (same geography tree).

    Scaling only the partition count would oversubscribe the paper
    cloud's storage and measure a permanent repair storm instead of
    epoch throughput, so scale variants grow the cloud alongside:
    the 10 countries / 2 datacenters skeleton is kept and racks get
    deeper (and, at 10×+, more numerous), exactly how capacity upgrades
    land in practice.  Scales 10 and 100 match the perf harness's
    ``fig4-slashdot-10x``/``-100x`` scenarios; other factors deepen
    racks linearly.
    """
    if scale < 1:
        raise ConfigError(f"scale must be >= 1, got {scale}")
    if scale == 1:
        return CloudLayout()
    if scale == 10:
        return CloudLayout(racks_per_room=4, servers_per_rack=25)
    if scale == 100:
        return CloudLayout(racks_per_room=8, servers_per_rack=125)
    return CloudLayout(servers_per_rack=5 * scale)


@dataclass(frozen=True)
class RingConfig:
    """One virtual ring of one application."""

    ring_id: int
    threshold: float
    target_replicas: int
    partitions: int = 200
    partition_capacity: int = 256 * MB
    # 96 MB default: under the 100 MB/epoch migration budget, so freshly
    # seeded partitions can migrate; insert-grown partitions may exceed
    # it and lose migration (only replication/suicide), as in the paper's
    # own parameterisation (256 MB cap vs 100 MB/epoch budget).
    initial_partition_size: int = 96 * MB

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {self.threshold}")
        if self.target_replicas < 1:
            raise ConfigError(
                f"target_replicas must be >= 1, got {self.target_replicas}"
            )
        if self.partitions < 1:
            raise ConfigError(
                f"partitions must be >= 1, got {self.partitions}"
            )
        if not 0 <= self.initial_partition_size <= self.partition_capacity:
            raise ConfigError(
                "initial_partition_size must be within partition_capacity"
            )


@dataclass(frozen=True)
class AppConfig:
    """One tenant application: its rings, query share and geography."""

    app_id: int
    name: str
    query_share: float
    rings: Tuple[RingConfig, ...]
    geography: ClientGeography = field(default_factory=uniform_geography)

    def __post_init__(self) -> None:
        if not self.rings:
            raise ConfigError(f"app {self.app_id} needs at least one ring")
        ids = [r.ring_id for r in self.rings]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"app {self.app_id} has duplicate ring ids")


@dataclass(frozen=True)
class InsertConfig:
    """The Fig. 5 insert stream.

    ``routing`` selects how inserts map to partitions: ``"keyspace"``
    (new keys hash uniformly, inflow ∝ arc fraction — the default and
    the reading under which the paper's 96 %-fill claim is reachable)
    or ``"popularity"`` (inflow follows the Pareto query skew — the
    stress variant used by the ablation benches).
    """

    rate: int = 2000
    object_size: int = 500 * 1024
    start_epoch: int = 0
    routing: str = "keyspace"

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ConfigError(f"rate must be >= 0, got {self.rate}")
        if self.object_size <= 0:
            raise ConfigError(
                f"object_size must be > 0, got {self.object_size}"
            )
        if self.routing not in ("keyspace", "popularity"):
            raise ConfigError(
                f"routing must be 'keyspace' or 'popularity', got "
                f"{self.routing!r}"
            )


#: The data plane's consistency level and read share of its requests.
DATA_PLANE_LEVEL = "quorum"
DATA_PLANE_READ_FRACTION = 0.6


@dataclass(frozen=True)
class DataPlaneConfig:
    """The stale-view serving data plane riding on the epoch loop.

    When attached to a :class:`SimConfig`, the engine runs it as a
    second :class:`repro.serve.frontend.ServingFrontEnd` (see
    :meth:`serving_config`): ``ops_per_epoch`` quorum get/puts per epoch
    under the run's *believed* membership view, hint drain and a
    budget-capped anti-entropy pass, with one
    :class:`repro.sim.metrics.DataPlaneFrame` per epoch in the
    :class:`repro.sim.metrics.RobustnessLog`.

    The data plane is an observer overlay: it owns its own versioned
    copies and its own RNG stream (``dataplane``), touches no
    economic state, and therefore leaves the golden EpochFrame
    streams byte-identical whether enabled or not.

    Its level and read share are :data:`DATA_PLANE_LEVEL` and
    :data:`DATA_PLANE_READ_FRACTION`; the store and latency knobs are
    the overlay's module constants, as for :class:`ServingConfig`.
    """

    ops_per_epoch: int = 48
    keyspace: int = 96

    def __post_init__(self) -> None:
        if self.ops_per_epoch < 0:
            raise ConfigError(
                f"ops_per_epoch must be >= 0, got {self.ops_per_epoch}"
            )
        if self.keyspace < 1:
            raise ConfigError(f"keyspace must be >= 1, got {self.keyspace}")

    def serving_config(self) -> "ServingConfig":
        """The overlay config this data plane runs as: ``ops_per_epoch``
        becomes ``requests_per_epoch``, at the data plane's fixed
        consistency level and read/write mix."""
        return ServingConfig(
            level=DATA_PLANE_LEVEL, requests_per_epoch=self.ops_per_epoch,
            read_fraction=DATA_PLANE_READ_FRACTION, keyspace=self.keyspace,
        )


@dataclass(frozen=True)
class ServingConfig:
    """The live-serving front door riding on the epoch loop (ISSUE 10).

    When attached to a :class:`SimConfig`, every epoch an open-loop
    arrival stream of ``requests_per_epoch`` get/put requests (its own
    ``serving`` RNG stream) is admitted by a deterministic event-loop
    scheduler over ``workers`` virtual executors, routed through
    :class:`repro.ring.router.Router` to a
    :class:`repro.store.quorum.QuorumKVStore`, and costed with
    :class:`repro.analysis.latency.LatencyModel` RTTs along the quorum
    path (coordinator hop + slowest-of-quorum replica fan-out +
    timeout penalties under faults) — emitting one
    :class:`repro.sim.metrics.ServingFrame` per epoch with
    requests/sec, p50/p99/p999 read & write latency and SLA-violation
    counts.

    Like the data plane (the same overlay class), the front door is an
    observer: it owns its own versioned copies, hints and RNG stream
    and touches no economic state, so enabling it leaves the golden
    EpochFrame streams byte-identical.

    Only what runs vary is a field.  The rest are module constants
    beside their one reader: the hint TTL and backoff
    (:mod:`repro.store.hints`), the anti-entropy budget and the timeout
    penalty (:mod:`repro.serve.frontend`), the value size and the epoch
    length (:mod:`repro.serve.loadgen`) and the SLA targets
    (:mod:`repro.serve.sla`).  Read repair is always on.
    """

    level: str = "quorum"
    requests_per_epoch: int = 512
    read_fraction: float = 0.9
    keyspace: int = 256
    #: Virtual executors of the front end's event loop: requests queue
    #: when every worker is busy, so queueing delay shows in the tails.
    #: A cross-continent round trip is ~120 ms and a quorum op pays
    #: two of them, so 512 req/s of ~200 ms ops needs ~100 executors
    #: to sit below saturation; 128 leaves headroom for fault windows.
    workers: int = 128

    def __post_init__(self) -> None:
        if self.requests_per_epoch < 0:
            raise ConfigError(
                f"requests_per_epoch must be >= 0, got "
                f"{self.requests_per_epoch}"
            )
        if self.level not in ("one", "quorum", "all"):
            raise ConfigError(
                f"level must be 'one', 'quorum' or 'all', got {self.level!r}"
            )
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )
        if self.keyspace < 1:
            raise ConfigError(f"keyspace must be >= 1, got {self.keyspace}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class SimConfig:
    """Complete description of one simulation run."""

    layout: CloudLayout = field(default_factory=CloudLayout)
    apps: Tuple[AppConfig, ...] = ()
    epochs: int = 100
    seed: int = 0
    server_storage: int = 5 * GB
    server_query_capacity: int = 1000
    replication_budget: int = 300 * MB
    migration_budget: int = 100 * MB
    expensive_fraction: float = 0.3
    cheap_rent: float = 100.0
    expensive_rent: float = 125.0
    rent_model: RentModel = field(default_factory=RentModel)
    policy: EconomicPolicy = field(default_factory=EconomicPolicy)
    base_rate: float = 3000.0
    profile: Optional[RateProfile] = None
    inserts: Optional[InsertConfig] = None
    # Epoch-kernel selection: "vectorized" (production — batched eq. 5
    # settlement, incremental eq. 2 availability) or "scalar" (the
    # straight-line reference the equivalence tests and the perf
    # harness compare against).  Seeded runs produce bit-identical
    # EpochFrame streams under either kernel.
    kernel: str = "vectorized"
    # Per-server confidence assignment (eq. 2 weights).  None keeps the
    # evaluation's uniform conf ≡ 1.0.  Fractional confidences make
    # eq. 2 pair terms non-integer, so such scenarios compare kernel
    # streams under a relative tolerance rather than bit-exactly (see
    # PERFORMANCE.md and the golden registry's per-scenario rtol).
    confidence: Optional[ConfidenceModel] = None
    # Faulty control-plane network.  None keeps the
    # idealized instant-membership engine path byte-for-byte; a
    # NetConfig routes every heartbeat/price/membership message through
    # the repro.net fabric and the engine consumes *believed* (stale)
    # membership and price columns.  A zero-fault NetConfig (loss=0, no
    # partitions/flaps) reproduces the idealized run exactly while
    # still counting every control-plane message.
    net: Optional[NetConfig] = None
    # Stale-view serving data plane (ISSUE 7).  None skips it; a
    # DataPlaneConfig runs a second serving overlay (quorum requests +
    # hinted handoff + read repair + anti-entropy over the believed
    # membership view), with per-epoch DataPlaneFrame metrics in the
    # RobustnessLog.
    data_plane: Optional[DataPlaneConfig] = None
    # Live-serving front door (ISSUE 10).  None skips it; a
    # ServingConfig admits an open-loop request stream through the
    # router → quorum store each epoch and reports per-epoch
    # throughput, latency tails and SLA violations as ServingFrames.
    serving: Optional[ServingConfig] = None

    def __post_init__(self) -> None:
        if not self.apps:
            raise ConfigError("need at least one application")
        if self.kernel not in KERNELS:
            raise ConfigError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        ids = [a.app_id for a in self.apps]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate app ids: {ids}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.server_storage <= 0:
            raise ConfigError("server_storage must be > 0")
        if self.server_query_capacity <= 0:
            raise ConfigError("server_query_capacity must be > 0")
        if self.base_rate < 0:
            raise ConfigError(f"base_rate must be >= 0, got {self.base_rate}")

    @property
    def rate_profile(self) -> RateProfile:
        return self.profile if self.profile is not None else ConstantRate(
            self.base_rate
        )

    def app(self, app_id: int) -> AppConfig:
        for app in self.apps:
            if app.app_id == app_id:
                return app
        raise ConfigError(f"unknown app id {app_id}")
