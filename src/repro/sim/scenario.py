"""Declarative scenario specs: tiered, validated, compiled to configs.

A scenario is *data*: five tiered sections instead of a hand-built
factory — **structure** (cloud shape, server classes), **flows** (base
rate, surges, diurnal cycle, inserts, the two serving overlays),
**constraints** (tenants and their SLA tiers, budgets, policy, rent
model), **failure** (membership events, the control-plane fault
schedule or a seeded chaos draw) and **operations** (horizon, seed,
kernel, tolerance, audit).  ``docs/ARCHITECTURE.md`` tabulates what
each tier compiles to.

:func:`compile_spec` lowers a spec *deterministically* onto the
runtime objects (:class:`repro.sim.config.SimConfig`,
:class:`repro.cluster.events.EventSchedule`,
:class:`repro.net.model.NetConfig`): compiling the same spec twice
yields equal configs and byte-identical frame streams.
:func:`compile_config` is the only place in ``src/`` that constructs a
``SimConfig`` — the paper's own parameter sets are the spec templates in
:mod:`repro.sim.specs.paper`, and the CLI lowers its flags onto a spec
before compiling.  Where a tier's section *is* a runtime dataclass
(``structure.layout/confidence``, ``flows.inserts/traffic/serving``,
``constraints.policy/economy``, ``failure.net``) the spec holds that
class directly; a spec class exists only where the JSON format hides or
renames runtime fields.  Keys the format no longer has are read
through one :data:`RETIRED` table: each loads only at the value that
changes nothing, and is dropped.

Specs round-trip losslessly through plain dicts/JSON
(:meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.from_dict`), which
is what the CLI's ``scenario run <path>`` and the examples' ``--spec``
dumps ride on.  The randomized equivalence/invariant harnesses draw
seeded specs from this same space (``tests/spec_samplers.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.cluster.confidence import ConfidenceModel
from repro.cluster.events import (
    AddServers,
    EventSchedule,
    RemoveServers,
    ScopedOutage,
)
from repro.cluster.server import GB, MB
from repro.cluster.topology import CloudLayout
from repro.core.availability import paper_thresholds
from repro.core.decision import REPAIR_ITERATIONS
from repro.core.economy import BETA, RentModel
from repro.core.policy import KERNELS, REVENUE_PER_QUERY, EconomicPolicy
from repro.net.fabric import GOSSIP_FANOUT
from repro.net.model import FULL_FABRIC_MAX_NODES, NetConfig
from repro.serve.frontend import (
    ANTI_ENTROPY_BYTES, ANTI_ENTROPY_PARTITIONS, TIMEOUT_PENALTY_MS)
from repro.serve.loadgen import EPOCH_MS, VALUE_SIZE
from repro.serve.sla import SLA_READ_MS, SLA_WRITE_MS
from repro.sim.config import (
    DATA_PLANE_LEVEL,
    DATA_PLANE_READ_FRACTION,
    AppConfig,
    DataPlaneConfig,
    InsertConfig,
    RingConfig,
    ServingConfig,
    SimConfig,
    scaled_paper_layout,
)
from repro.sim.seeds import RngStreams
from repro.store.hints import HINT_BACKOFF_CAP, HINT_BASE_DELAY, HINT_TTL
from repro.workload.arrivals import RateProfile
from repro.workload.clients import ClientGeography, hotspot, mixture
from repro.workload.popularity import PARETO_SCALE, PARETO_SHAPE
from repro.workload.slashdot import slashdot_profile


class SpecError(ValueError):
    """Raised for invalid or inconsistent scenario specs."""


# ---------------------------------------------------------------------------
# dict <-> dataclass plumbing (strict: unknown keys are errors)
# ---------------------------------------------------------------------------


#: Per spec class, each field's raw -> value parser, derived from the
#: dataclass field types the first time a class is seen.  The
#: ``_field_parsers(ScenarioSpec)`` call below the class resolves the
#: whole tree at import, so loading a spec never inspects a type.
_PARSERS: Dict[type, Dict[str, Callable]] = {}


def _field_parsers(cls) -> Dict[str, Callable]:
    table = _PARSERS.get(cls)
    if table is None:
        table = _PARSERS[cls] = {}  # registered first: GeoSpec nests itself
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            table[f.name] = _parser(hints[f.name])
    return table


def _verbatim(raw: Any) -> Any:
    return raw


def _parser(tp) -> Callable:
    """The parser the JSON form of one annotated field type needs."""
    if dataclasses.is_dataclass(tp):
        _field_parsers(tp)
        return functools.partial(_build, tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union:
        members = tuple(a for a in args if a is not type(None))
        if len(members) < len(args):  # Optional[T]
            inner = _parser(Union[members])
            return lambda raw: None if raw is None else inner(raw)
        kinds = {_EVENT_KINDS[member]: _parser(member) for member in members}
        return functools.partial(_parse_tagged, kinds)
    if origin is tuple:
        if args[-1] is Ellipsis:  # Tuple[T, ...]
            item = _parser(args[0])
            return lambda raw: tuple(item(v) for v in _listed(raw))
        items = [_parser(a) for a in args]  # a fixed-shape row
        return lambda raw: tuple(
            item(v) for item, v in zip(items, _listed(raw, len(items)))
        )
    if origin is dict:  # int-keyed, written as sorted [key, value] pairs
        key_type = args[0]
        return lambda raw: {
            key_type(k): v
            for k, v in (raw.items() if isinstance(raw, Mapping) else raw)
        }
    return _verbatim


def _listed(raw: Any, length: Optional[int] = None) -> Any:
    # Shape errors are TypeErrors: the enclosing _build names the class.
    if not isinstance(raw, (list, tuple)):
        raise TypeError(f"expected a list, got {type(raw).__name__}")
    if length is not None and len(raw) != length:
        raise TypeError(f"expected {length} items, got {len(raw)}")
    return raw


def _parse_tagged(kinds: Dict[str, Callable], raw: Any):
    """One member of a ``kind``-tagged union (the failure events)."""
    if not isinstance(raw, Mapping) or "kind" not in raw:
        raise TypeError("failure event needs a 'kind' tag")
    kind = raw["kind"]
    if kind not in kinds:
        raise ValueError(
            f"unknown failure-event kind {kind!r} "
            f"(expected one of {sorted(kinds)})"
        )
    return kinds[kind]({k: v for k, v in raw.items() if k != "kind"})


def _build(cls, data: Any):
    """Construct spec class ``cls`` from its JSON form, strictly.

    :data:`RETIRED` keys are checked and dropped first.  Unknown keys,
    a non-mapping section and any value the class (or a class nested in
    it) rejects raise :class:`SpecError` naming ``cls``.
    """
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{cls.__name__} section must be a mapping, got "
            f"{type(data).__name__}"
        )
    parsers = _field_parsers(cls)
    retired = RETIRED.get(cls, {})
    try:
        for key, (accepts, rule) in retired.items():
            if key in data and not accepts(data[key], data):
                raise SpecError(f"{rule}, got {data[key]!r}")
        data = {k: v for k, v in data.items() if k not in retired}
        unknown = sorted(set(data) - set(parsers))
        if unknown:
            raise SpecError(f"{cls.__name__}: unknown keys {unknown}")
        return cls(**{
            name: parsers[name](raw) for name, raw in data.items()
        })
    except SpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{cls.__name__}: {exc}") from exc


def _plain(value: Any) -> Any:
    """Spec value -> JSON-able plain data (dicts keep int keys as pairs)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {}
        for f in dataclasses.fields(value):
            out[f.name] = _plain(getattr(value, f.name))
        if type(value) in _EVENT_KINDS:
            out["kind"] = _EVENT_KINDS[type(value)]
        return out
    if isinstance(value, dict):
        return [[_plain(k), _plain(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Tier 1 — structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServerClassesSpec:
    """Heterogeneous server classes: the rent split and per-box capacity."""

    cheap_rent: float = 100.0
    expensive_rent: float = 125.0
    expensive_fraction: float = 0.3
    storage: int = 5 * GB
    query_capacity: int = 1000

    def __post_init__(self) -> None:
        if self.cheap_rent < 0 or self.expensive_rent < 0:
            raise SpecError("rents must be >= 0")
        if not 0.0 <= self.expensive_fraction <= 1.0:
            raise SpecError(
                f"expensive_fraction must be in [0, 1], got "
                f"{self.expensive_fraction}"
            )
        if self.storage <= 0:
            raise SpecError(f"storage must be > 0, got {self.storage}")
        if self.query_capacity <= 0:
            raise SpecError(
                f"query_capacity must be > 0, got {self.query_capacity}"
            )


@dataclass(frozen=True)
class StructureSpec:
    """Tier 1: cloud shape and server classes."""

    scale: int = 1
    layout: Optional[CloudLayout] = None
    classes: ServerClassesSpec = field(default_factory=ServerClassesSpec)
    confidence: Optional[ConfidenceModel] = None

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise SpecError(f"scale must be >= 1, got {self.scale}")
        if self.layout is not None and self.scale != 1:
            raise SpecError("give either an explicit layout or a scale, not both")

    def compile_layout(self) -> CloudLayout:
        if self.layout is not None:
            return self.layout
        return scaled_paper_layout(self.scale)


# ---------------------------------------------------------------------------
# Tier 2 — flows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlashCrowd:
    """One Slashdot-style surge: linear ramp to ``peak_factor``× then decay."""

    spike_epoch: int
    ramp_epochs: int
    decay_epochs: int
    peak_factor: float

    def __post_init__(self) -> None:
        if self.spike_epoch < 0:
            raise SpecError(f"spike_epoch must be >= 0, got {self.spike_epoch}")
        if self.ramp_epochs <= 0 or self.decay_epochs <= 0:
            raise SpecError("ramp_epochs and decay_epochs must be > 0")
        if self.peak_factor < 1.0:
            raise SpecError(
                f"peak_factor must be >= 1, got {self.peak_factor}"
            )


@dataclass(frozen=True)
class Diurnal:
    """A sinusoidal day/night cycle multiplying the base rate."""

    period: int = 24
    amplitude: float = 0.5
    phase: int = 0

    def __post_init__(self) -> None:
        if self.period < 2:
            raise SpecError(f"period must be >= 2, got {self.period}")
        if not 0.0 <= self.amplitude <= 1.0:
            raise SpecError(
                f"amplitude must be in [0, 1], got {self.amplitude}"
            )


@dataclass(frozen=True)
class ComposedProfile:
    """Base rate × diurnal cycle × every surge multiplier.

    Used only when the flow set needs genuine composition; the single
    flash-crowd case compiles to the paper's
    :func:`repro.workload.slashdot.slashdot_profile` bit-for-bit.
    """

    base_rate: float
    surges: Tuple[FlashCrowd, ...] = ()
    diurnal: Optional[Diurnal] = None

    def _surge_multiplier(self, surge: FlashCrowd, epoch: int) -> float:
        t0 = surge.spike_epoch
        t1 = t0 + surge.ramp_epochs
        t2 = t1 + surge.decay_epochs
        if epoch <= t0 or epoch >= t2:
            return 1.0
        if epoch <= t1:
            frac = (epoch - t0) / (t1 - t0)
            return 1.0 + frac * (surge.peak_factor - 1.0)
        frac = (epoch - t1) / (t2 - t1)
        return surge.peak_factor + frac * (1.0 - surge.peak_factor)

    def __call__(self, epoch: int) -> float:
        rate = self.base_rate
        if self.diurnal is not None:
            angle = (
                2.0 * np.pi * (epoch - self.diurnal.phase)
                / self.diurnal.period
            )
            rate *= 1.0 + self.diurnal.amplitude * float(np.sin(angle))
        for surge in self.surges:
            rate *= self._surge_multiplier(surge, epoch)
        return rate


@dataclass(frozen=True)
class FlowsSpec:
    """Tier 2: the composable workload phases."""

    base_rate: float = 3000.0
    surges: Tuple[FlashCrowd, ...] = ()
    diurnal: Optional[Diurnal] = None
    inserts: Optional[InsertConfig] = None
    traffic: Optional[DataPlaneConfig] = None
    serving: Optional[ServingConfig] = None

    def __post_init__(self) -> None:
        if self.base_rate < 0:
            raise SpecError(f"base_rate must be >= 0, got {self.base_rate}")
        windows = sorted(  # each surge's [start, end) epoch span
            (s.spike_epoch, s.spike_epoch + s.ramp_epochs + s.decay_epochs)
            for s in self.surges)
        for (_, end), (start, _) in zip(windows, windows[1:]):
            if start < end:
                raise SpecError(
                    f"overlapping surge phases: epoch {start} < {end}"
                )

    def compile_profile(self) -> Optional[RateProfile]:
        """The rate profile, or None for a constant base rate.

        A single surge with no diurnal cycle lowers onto the paper's
        own :func:`slashdot_profile` so legacy scenarios stay
        float-for-float identical; anything composite uses
        :class:`ComposedProfile`.
        """
        if not self.surges and self.diurnal is None:
            return None
        if len(self.surges) == 1 and self.diurnal is None:
            surge = self.surges[0]
            return slashdot_profile(
                base_rate=self.base_rate,
                peak_rate=self.base_rate * surge.peak_factor,
                spike_epoch=surge.spike_epoch,
                ramp_epochs=surge.ramp_epochs,
                decay_epochs=surge.decay_epochs,
            )
        return ComposedProfile(
            base_rate=self.base_rate,
            surges=tuple(sorted(self.surges, key=lambda s: s.spike_epoch)),
            diurnal=self.diurnal,
        )


# ---------------------------------------------------------------------------
# Tier 3 — constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeoSpec:
    """A client geography: uniform, a country hotspot, or a mixture."""

    kind: str = "uniform"
    country: int = 0
    concentration: float = 0.8
    components: Tuple[Tuple["GeoSpec", float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "hotspot", "mixture"):
            raise SpecError(
                f"geography kind must be 'uniform', 'hotspot' or "
                f"'mixture', got {self.kind!r}"
            )
        if self.kind == "mixture" and not self.components:
            raise SpecError("mixture geography needs components")
        if self.kind == "hotspot" and self.country < 0:
            raise SpecError(f"country must be >= 0, got {self.country}")

    def compile(self, layout: CloudLayout) -> ClientGeography:
        if self.kind == "uniform":
            return ClientGeography()
        if self.kind == "hotspot":
            if self.country >= layout.countries:
                raise SpecError(
                    f"hotspot country {self.country} outside the "
                    f"{layout.countries}-country layout"
                )
            return hotspot(
                layout, self.country, concentration=self.concentration
            )
        return mixture([
            (geo.compile(layout), weight)
            for geo, weight in self.components
        ])


@dataclass(frozen=True)
class TierSpec:
    """One availability tier of a tenant: one virtual ring."""

    replicas: int
    partitions: int = 200
    partition_capacity: int = 256 * MB
    initial_size: int = 96 * MB
    threshold: Optional[float] = None
    ring_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise SpecError(f"replicas must be >= 1, got {self.replicas}")
        if self.partitions < 1:
            raise SpecError(f"partitions must be >= 1, got {self.partitions}")
        if self.threshold is None and self.replicas not in paper_thresholds():
            raise SpecError(
                f"no paper threshold for {self.replicas} replicas — "
                f"give an explicit threshold"
            )

    def compile(self, index: int) -> RingConfig:
        threshold = self.threshold
        if threshold is None:
            threshold = paper_thresholds()[self.replicas]
        return RingConfig(
            ring_id=self.ring_id if self.ring_id is not None else index,
            threshold=threshold,
            target_replicas=self.replicas,
            partitions=self.partitions,
            partition_capacity=self.partition_capacity,
            initial_partition_size=self.initial_size,
        )


@dataclass(frozen=True)
class TenantSpec:
    """One application: its query share, SLA tiers and client geography."""

    name: str
    share: float
    tiers: Tuple[TierSpec, ...]
    geography: GeoSpec = field(default_factory=GeoSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("tenant needs a name")
        if self.share <= 0:
            raise SpecError(f"share must be > 0, got {self.share}")
        if not self.tiers:
            raise SpecError(f"tenant {self.name!r} needs at least one tier")

    def compile(self, app_id: int, layout: CloudLayout) -> AppConfig:
        return AppConfig(
            app_id=app_id,
            name=self.name,
            query_share=self.share,
            rings=tuple(
                tier.compile(i) for i, tier in enumerate(self.tiers)
            ),
            geography=self.geography.compile(layout),
        )


@dataclass(frozen=True)
class ConstraintsSpec:
    """Tier 3: tenants/SLAs, bandwidth budgets, economic policy."""

    tenants: Optional[Tuple[TenantSpec, ...]] = None
    partitions: int = 200
    partition_capacity: int = 256 * MB
    initial_size: int = 96 * MB
    replication_budget: int = 300 * MB
    migration_budget: int = 100 * MB
    policy: EconomicPolicy = field(default_factory=EconomicPolicy)
    economy: RentModel = field(default_factory=RentModel)

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise SpecError(f"partitions must be >= 1, got {self.partitions}")
        for name in ("replication_budget", "migration_budget",
                     "partition_capacity"):
            if getattr(self, name) < 0:
                raise SpecError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if not 0 <= self.initial_size <= self.partition_capacity:
            raise SpecError(
                "initial_size must be within partition_capacity"
            )

    def compile_apps(self, layout: CloudLayout) -> Tuple[AppConfig, ...]:
        tenants = self.tenants
        if tenants is None:
            tenants = paper_tenants(
                partitions=self.partitions,
                partition_capacity=self.partition_capacity,
                initial_size=self.initial_size,
            )
        return tuple(
            tenant.compile(i, layout) for i, tenant in enumerate(tenants)
        )


# ---------------------------------------------------------------------------
# Tier 4 — failure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinWave:
    """``count`` servers join at ``epoch`` (capacities default to the
    structure tier's server class)."""

    epoch: int
    count: int
    storage: Optional[int] = None
    query_capacity: Optional[int] = None
    rent: float = 100.0

    def __post_init__(self) -> None:
        if self.epoch < 0 or self.count < 1:
            raise SpecError("join wave needs epoch >= 0 and count >= 1")


@dataclass(frozen=True)
class LeaveWave:
    """``count`` uncorrelated servers fail at ``epoch``."""

    epoch: int
    count: int
    exclude_recent: bool = True

    def __post_init__(self) -> None:
        if self.epoch < 0 or self.count < 1:
            raise SpecError("leave wave needs epoch >= 0 and count >= 1")


@dataclass(frozen=True)
class OutageEvent:
    """A correlated outage of one location subtree (2=country … 5=rack)."""

    epoch: int
    depth: int

    def __post_init__(self) -> None:
        if self.epoch < 0:
            raise SpecError(f"epoch must be >= 0, got {self.epoch}")
        if not 1 <= self.depth <= 5:
            raise SpecError(f"depth must be in [1, 5], got {self.depth}")


_EVENT_KINDS = {JoinWave: "join", LeaveWave: "leave", OutageEvent: "outage"}


@dataclass(frozen=True)
class ChaosSpec:
    """A seeded random fault draw (:func:`repro.sim.chaos.random_fault_schedule`)."""

    seed: int = 0
    loss_lo: float = 0.02
    loss_hi: float = 0.15
    max_partitions: int = 2
    max_flaps: int = 2
    quiet_tail: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_lo <= self.loss_hi < 1.0:
            raise SpecError(
                f"need 0 <= loss_lo <= loss_hi < 1, got "
                f"{self.loss_lo}, {self.loss_hi}"
            )
        if self.max_partitions < 0 or self.max_flaps < 0:
            raise SpecError("max_partitions and max_flaps must be >= 0")
        if self.quiet_tail < 0:
            raise SpecError(f"quiet_tail must be >= 0, got {self.quiet_tail}")


@dataclass(frozen=True)
class FailureSpec:
    """Tier 4: membership events and the control-plane fault schedule."""

    events: Tuple[Union[JoinWave, LeaveWave, OutageEvent], ...] = ()
    net: Optional[NetConfig] = None
    chaos: Optional[ChaosSpec] = None

    def __post_init__(self) -> None:
        for event in self.events:
            if type(event) not in _EVENT_KINDS:
                raise SpecError(
                    f"unknown failure event {type(event).__name__}"
                )

    def compile_net(self, epochs: int) -> Optional[NetConfig]:
        if self.chaos is None:
            return self.net
        from repro.sim.chaos import random_fault_schedule

        return random_fault_schedule(
            self.chaos.seed,
            epochs,
            loss_range=(self.chaos.loss_lo, self.chaos.loss_hi),
            max_partitions=self.chaos.max_partitions,
            max_flaps=self.chaos.max_flaps,
            quiet_tail=self.chaos.quiet_tail,
            base=self.net,
        )


# ---------------------------------------------------------------------------
# Tier 5 — operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperationsSpec:
    """Tier 5: horizon, seeds, kernel, audits, comparison tolerance."""

    epochs: int = 100
    seed: int = 0
    kernel: str = "vectorized"
    rtol: float = 0.0
    audit: bool = False
    settle_epochs: int = 16

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise SpecError(f"epochs must be >= 1, got {self.epochs}")
        if self.kernel not in KERNELS:
            raise SpecError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )
        if self.rtol < 0:
            raise SpecError(f"rtol must be >= 0, got {self.rtol}")
        if self.settle_epochs < 0:
            raise SpecError(
                f"settle_epochs must be >= 0, got {self.settle_epochs}"
            )


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: five tiers plus a name and a one-liner."""

    name: str
    summary: str = ""
    structure: StructureSpec = field(default_factory=StructureSpec)
    flows: FlowsSpec = field(default_factory=FlowsSpec)
    constraints: ConstraintsSpec = field(default_factory=ConstraintsSpec)
    failure: FailureSpec = field(default_factory=FailureSpec)
    operations: OperationsSpec = field(default_factory=OperationsSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("scenario needs a name")
        if self.operations.audit and self.flows.traffic is None:
            raise SpecError(
                f"{self.name}: a consistency audit needs client traffic "
                f"(flows.traffic)"
            )
        failure = self.failure
        if failure.net is not None or failure.chaos is not None:
            nodes = self.structure.compile_layout().total_servers + sum(
                e.count for e in failure.events if isinstance(e, JoinWave)
            )
            if nodes > FULL_FABRIC_MAX_NODES:
                raise SpecError(
                    f"{self.name}: {nodes} servers (initial plus joins) "
                    f"exceed the gossip fabric's FULL_FABRIC_MAX_NODES = "
                    f"{FULL_FABRIC_MAX_NODES}"
                )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain JSON-able dict; lossless under :meth:`from_dict`."""
        return _plain(self)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        return _build(cls, data)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"bad spec JSON: {exc}") from exc
        return cls.from_dict(data)

    # -- convenience -------------------------------------------------------

    def with_operations(self, **changes) -> "ScenarioSpec":
        """A copy with operations-tier fields replaced (epochs, seed …)."""
        return dataclasses.replace(
            self,
            operations=dataclasses.replace(self.operations, **changes),
        )


_field_parsers(ScenarioSpec)  # resolve every field type once, at import


# ---------------------------------------------------------------------------
# Retired keys
# ---------------------------------------------------------------------------


def _is(value: Any, want: Any) -> bool:
    """``value == want``, with a JSON bool equal to a bool only: Python
    holds ``True == 1`` and ``False == 0``, a spec must not."""
    return isinstance(value, bool) == isinstance(want, bool) and value == want


def _fixed(section: str, **values):
    """Rows for keys whose one value became a constant of the code."""
    return {key: (lambda value, _, want=want: _is(value, want),
                  f"{section}: {key} must be {json.dumps(want)} (a constant)")
            for key, want in values.items()}


#: The quorum-store knobs both overlay configs had, at their constants.
_STORE_KNOBS = dict(
    value_size=VALUE_SIZE, hint_ttl=HINT_TTL, hint_base_delay=HINT_BASE_DELAY,
    hint_backoff_cap=HINT_BACKOFF_CAP, anti_entropy_bytes=ANTI_ENTROPY_BYTES,
    anti_entropy_partitions=ANTI_ENTROPY_PARTITIONS, read_repair=True)

#: Keys the JSON format once had, per class: each key's test of the one
#: value that changes nothing (given the value and its section) and the
#: rule a refusal quotes.  An accepted retired key is dropped, so
#: :meth:`ScenarioSpec.to_dict` never writes it back.
RETIRED: Dict[type, Dict[str, Tuple[Callable[[Any, Mapping], bool], str]]] = {
    EconomicPolicy: {
        **_fixed("policy", revenue_per_query=REVENUE_PER_QUERY,
                 repair_iterations=REPAIR_ITERATIONS),
        "rent_weight": (
            lambda value, _: _is(value, 1.0),
            "policy: rent_weight must be 1.0 (eq. 3 weighs rent at 1)"),
        "max_replicas": (
            lambda value, _: value is None,
            "policy: max_replicas must be null (the economic replication "
            "degree is uncapped)"),
    },
    RentModel: {
        **_fixed("economy", beta=BETA),
        "normalize_by_usage": (
            lambda value, _: not value,
            "economy: normalize_by_usage must be false (usage-normalised "
            "eq. 1 pricing is not modelled)"),
    },
    NetConfig: {
        **_fixed("net", fanout=GOSSIP_FANOUT, delay_max=0),
        "fabric": (
            lambda value, _: value == "full",
            f"net: fabric must be 'full' (the gossip fabric, capped at "
            f"FULL_FABRIC_MAX_NODES = {FULL_FABRIC_MAX_NODES} nodes)"),
        "suspect_rounds": (
            lambda value, net: not isinstance(value, bool) and value in range(
                1, net.get("dead_rounds", NetConfig.dead_rounds)
            ),
            "net: need 1 <= suspect_rounds < dead_rounds"),
    },
    DataPlaneConfig: _fixed("traffic", **_STORE_KNOBS, level=DATA_PLANE_LEVEL,
                            read_fraction=DATA_PLANE_READ_FRACTION),
    ServingConfig: _fixed(
        "serving", **_STORE_KNOBS, epoch_ms=EPOCH_MS, sla_read_ms=SLA_READ_MS,
        sla_write_ms=SLA_WRITE_MS, timeout_penalty_ms=TIMEOUT_PENALTY_MS),
    FlowsSpec: _fixed("flows", popularity_shape=PARETO_SHAPE,
                      popularity_scale=PARETO_SCALE),
}


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_config(spec: ScenarioSpec) -> SimConfig:
    """Lower a spec onto a :class:`SimConfig` (deterministic)."""
    structure = spec.structure
    flows = spec.flows
    constraints = spec.constraints
    ops = spec.operations
    layout = structure.compile_layout()
    classes = structure.classes
    try:
        config = SimConfig(
            layout=layout,
            apps=constraints.compile_apps(layout),
            epochs=ops.epochs,
            seed=ops.seed,
            server_storage=classes.storage,
            server_query_capacity=classes.query_capacity,
            replication_budget=constraints.replication_budget,
            migration_budget=constraints.migration_budget,
            expensive_fraction=classes.expensive_fraction,
            cheap_rent=classes.cheap_rent,
            expensive_rent=classes.expensive_rent,
            rent_model=constraints.economy,
            policy=constraints.policy,
            base_rate=flows.base_rate,
            profile=flows.compile_profile(),
            inserts=flows.inserts,
            kernel=ops.kernel,
            confidence=structure.confidence,
            net=spec.failure.compile_net(ops.epochs),
            data_plane=flows.traffic,
            serving=flows.serving,
        )
        _cluster_events(spec, config)  # refuses a join no server takes
        return config
    except SpecError:
        raise
    except ValueError as exc:
        raise SpecError(f"{spec.name}: {exc}") from exc


def _cluster_events(spec: ScenarioSpec, config: SimConfig) -> List[object]:
    """The failure tier's events as (immutable) cluster events."""
    events: List[object] = []
    for event in spec.failure.events:
        if isinstance(event, JoinWave):
            events.append(AddServers(
                epoch=event.epoch,
                count=event.count,
                storage_capacity=(
                    config.server_storage if event.storage is None
                    else event.storage
                ),
                query_capacity=(
                    config.server_query_capacity
                    if event.query_capacity is None
                    else event.query_capacity
                ),
                monthly_rent=event.rent,
            ))
        elif isinstance(event, LeaveWave):
            events.append(RemoveServers(
                epoch=event.epoch,
                count=event.count,
                exclude_recent=event.exclude_recent,
            ))
        else:
            events.append(ScopedOutage(epoch=event.epoch, depth=event.depth))
    return events


def compile_events(spec: ScenarioSpec,
                   config: SimConfig) -> Optional[EventSchedule]:
    """A *fresh* event schedule for one run (schedules are stateful)."""
    if not spec.failure.events:
        return None
    return EventSchedule(
        _cluster_events(spec, config), layout=config.layout,
        rng=RngStreams(config.seed).events,
    )


@dataclass(frozen=True)
class CompiledScenario:
    """A spec lowered onto runtime objects, ready to run."""

    spec: ScenarioSpec
    config: SimConfig

    def events(self) -> Optional[EventSchedule]:
        """A fresh event schedule (one per run — schedules are stateful)."""
        return compile_events(self.spec, self.config)

    def simulation(self, *, decider_factory=None):
        """Build a :class:`repro.sim.engine.Simulation` for this scenario."""
        from repro.sim.engine import Simulation

        kwargs = {} if decider_factory is None else {
            "decider_factory": decider_factory}
        return Simulation(self.config, events=self.events(), **kwargs)

    def run_audit(self, *, decider_factory=None):
        """Run the scenario through the consistency-audit harness."""
        from repro.sim.chaos import run_consistency_audit

        kwargs = {} if decider_factory is None else {
            "decider_factory": decider_factory}
        return run_consistency_audit(
            self.config,
            events=self.events(),
            settle_epochs=self.spec.operations.settle_epochs,
            **kwargs,
        )


def compile_spec(spec: ScenarioSpec) -> CompiledScenario:
    """Validate and lower a spec; the one entry point callers need."""
    return CompiledScenario(spec=spec, config=compile_config(spec))


@dataclass(frozen=True)
class ScenarioEntry:
    """One named-scenario registry row: the spec plus its pin horizon.

    ``pin_epochs`` is the short horizon the golden-digest suite
    (``tests/integration/test_named_scenarios.py``) runs the scenario
    for — shorter than the spec's own horizon so sweeping the whole
    catalog stays cheap.
    """

    spec: ScenarioSpec
    pin_epochs: int

    def __post_init__(self) -> None:
        if self.pin_epochs < 1:
            raise SpecError(
                f"{self.spec.name}: pin_epochs must be >= 1, got "
                f"{self.pin_epochs}"
            )

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def summary(self) -> str:
        return self.spec.summary

    def pinned(self) -> CompiledScenario:
        """Compile the spec at its pin horizon (for digest pinning)."""
        return compile_spec(self.spec.with_operations(epochs=self.pin_epochs))


def load_spec(path) -> ScenarioSpec:
    """Read a spec from a JSON file (the CLI's ``scenario run <path>``)."""
    with open(path) as handle:
        return ScenarioSpec.from_json(handle.read())


# ---------------------------------------------------------------------------
# Paper-shaped building blocks
# ---------------------------------------------------------------------------


#: The evaluation's query shares over the three applications (§III-A).
PAPER_SHARES: Tuple[float, ...] = (4.0 / 7.0, 2.0 / 7.0, 1.0 / 7.0)


def paper_tenants(*, partitions: int = 200,
                  partition_capacity: int = 256 * MB,
                  initial_size: int = 96 * MB) -> Tuple[TenantSpec, ...]:
    """The evaluation's three applications on virtual rings 0, 1, 2.

    Application i demands the availability level met by 2+i replicas
    (thresholds from :func:`paper_thresholds`) and attracts 4/7, 2/7,
    1/7 of the query load.  What ``tenants=None`` lowers through, and
    the starting point for scenarios that override per-tenant fields
    such as geography.
    """
    return tuple(
        TenantSpec(
            name=f"app-{i + 1}",
            share=share,
            tiers=(
                TierSpec(
                    replicas=2 + i,
                    partitions=partitions,
                    partition_capacity=partition_capacity,
                    initial_size=initial_size,
                    ring_id=i,
                ),
            ),
        )
        for i, share in enumerate(PAPER_SHARES)
    )
