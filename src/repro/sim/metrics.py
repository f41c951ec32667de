"""Per-epoch metric collection for the paper's figures.

Each epoch the engine emits one :class:`EpochFrame` holding exactly the
observables the evaluation plots: virtual nodes per server (Fig. 2),
virtual nodes per ring (Fig. 3), average query load per ring per server
(Fig. 4) and storage usage plus insert failures (Fig. 5) — along with
economic diagnostics (prices, actions, availability satisfaction) the
ablation benches use.  :class:`MetricsLog` turns the frame stream into
named series.

Storage is *columnar* and there is one of it: :class:`FrameStore`
derives a column block per field from a frame dataclass's type hints —
every scalar field as one growable array, every keyed field as one
value/presence column pair per key, the per-server vnode histogram as
one compact count vector per epoch sharing a per-version server-id
tuple — instead of a list of frames full of dicts.  At 20 000 servers a
stored ``{sid: count}`` dict dominated frame memory; the column store
holds the same information in one compact int32 vector per epoch
(``HIST_COUNT_DTYPE``).  The four frame dataclasses remain the frame
API: reads materialize a lightweight row view (``vnodes_per_server`` a
lazy :class:`ServerVnodeHistogram` mapping over the stored arrays), so
``framedump``, the goldens, reporting and the examples see
byte-identical streams.  :class:`MetricsLog`, :class:`RobustnessLog`
and :class:`ServingLog` are that store plus what is specific to their
stream: the figure helpers and the run summaries.

The frame stream is the epoch kernels' equivalence contract: a seeded
run must emit bit-identical frames under the vectorized and scalar
kernels (``tests/integration/test_kernel_equivalence.py``).  Under the
vectorized kernel every per-ring aggregate is gathered from the
maintained per-partition vectors — the epoch load's dense query
counts and the availability store's eq. 2 / replica-count vectors
(``Simulation._collect``) — in the same ring order the scalar loop
visits, which is what keeps the aggregates exact.
"""

from __future__ import annotations

import dataclasses
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple
from typing import get_args, get_origin, get_type_hints

import numpy as np

from repro.util.columns import GrowableColumn


class MetricsError(KeyError):
    """Raised when a requested series is unavailable."""


class ServerVnodeHistogram(Mapping):
    """Lazy ``{server_id: vnode count}`` view over two arrays.

    The Fig. 2 observable without the dict: a shared server-id tuple
    (one per cloud-membership version, not per epoch) plus one compact
    count vector.  Behaves like the dict the engine used to build —
    same iteration order (slot order), same items, equality against
    plain dicts — while storing no per-entry objects.
    """

    __slots__ = ("_ids", "_counts", "_index")

    def __init__(self, server_ids: Tuple[int, ...],
                 counts: np.ndarray) -> None:
        if len(server_ids) != len(counts):
            raise MetricsError(
                f"histogram mismatch: {len(server_ids)} ids, "
                f"{len(counts)} counts"
            )
        self._ids = tuple(server_ids)
        self._counts = counts
        self._index: Optional[Dict[int, int]] = None

    @property
    def server_ids(self) -> Tuple[int, ...]:
        return self._ids

    @property
    def counts(self) -> np.ndarray:
        """The per-server count vector, slot order (do not mutate)."""
        return self._counts

    def _lookup(self) -> Dict[int, int]:
        index = self._index
        if index is None:
            index = {sid: i for i, sid in enumerate(self._ids)}
            self._index = index
        return index

    def __getitem__(self, server_id: int) -> int:
        idx = self._lookup().get(server_id)
        if idx is None:
            raise KeyError(server_id)
        return int(self._counts[idx])

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, server_id: object) -> bool:
        return server_id in self._lookup()
    # keys()/values()/items() come from Mapping: proper dict-view
    # objects (set operations on keys() keep working), whose iteration
    # goes through __getitem__ and therefore yields Python ints — which
    # is what the framedump codec requires.


@dataclass(frozen=True, slots=True)
class EpochFrame:
    """One epoch's observables (a row view when read from the log)."""

    epoch: int
    total_queries: int
    live_servers: int
    vnodes_total: int
    vnodes_per_ring: Dict[Tuple[int, int], int]
    vnodes_per_server: Mapping
    queries_per_ring: Dict[Tuple[int, int], float]
    mean_availability_per_ring: Dict[Tuple[int, int], float]
    unsatisfied_partitions: int
    lost_partitions: int
    storage_used: int
    storage_capacity: int
    insert_attempts: int
    insert_failures: int
    repairs: int
    economic_replications: int
    migrations: int
    suicides: int
    deferred: int
    min_price: float
    mean_price: float
    max_price: float
    unavailable_queries: int
    vnodes_on_expensive: int
    vnodes_on_cheap: int
    replication_bytes: int = 0
    migration_bytes: int = 0

    @property
    def bytes_moved(self) -> int:
        """Maintenance traffic over access links this epoch."""
        return self.replication_bytes + self.migration_bytes

    @property
    def storage_fraction(self) -> float:
        if self.storage_capacity == 0:
            return 0.0
        return self.storage_used / self.storage_capacity


#: Column dtype of each scalar value type a frame field can declare.
_DTYPES = {int: np.int64, float: np.float64}
#: Storage dtype of the per-epoch vnode histogram vectors — the frame
#: store's dominant allocation at scale (one S-wide vector per epoch;
#: 20 000 servers × int64 was 160 KB/epoch).  Per-server vnode counts
#: are bounded far below 2^31, and reads go through ``int(...)`` casts,
#: so int32 storage round-trips exactly; :meth:`_HistogramField.append`
#: still keeps a wider vector verbatim if its values would not fit.
HIST_COUNT_DTYPE = np.int32


class _ScalarField(GrowableColumn):
    """One ``int`` / ``float`` frame field as an int64 / float64 column."""

    __slots__ = ("cast",)

    def __init__(self, cast: type) -> None:
        super().__init__(_DTYPES[cast])
        self.cast = cast

    def get(self, index: int):
        return self.cast(self[index])


class _KeyedField:
    """One ``{key: int | float}`` frame field as per-key value/presence
    columns.

    The engine emits a tiny ``{(app_id, ring_id): value}`` dict per
    epoch for each of the three per-ring observables; storing those
    dicts per epoch is what the column store exists to avoid.  Here
    each key owns one growable value column plus one presence
    column (rings can appear mid-run — elasticity — and hand-built
    frame streams may drop a ring for an epoch), so a whole run is
    R columns regardless of epoch count, and per-key series are plain
    array gathers.

    Round trips are exact for the value types the engine emits (Python
    ``int`` for counts, ``float`` for queries/availabilities).  An
    epoch whose mapping carries anything else — hand-built frames in
    tests — is kept verbatim in a per-epoch overflow dict instead of
    being coerced, so :meth:`get` always reproduces the appended
    mapping exactly.
    """

    __slots__ = ("_cast", "_cols", "_raw", "_n")

    def __init__(self, cast: type) -> None:
        self._cast = cast
        #: key -> (value column, presence column), first-appearance order.
        self._cols: Dict[object, Tuple[GrowableColumn, GrowableColumn]] = {}
        self._raw: Dict[int, Dict] = {}
        self._n = 0

    def _representable(self, value: object) -> bool:
        if self._cast is int:
            return isinstance(value, (int, np.integer)) and not isinstance(
                value, bool
            )
        return isinstance(value, (float, np.floating))

    def append(self, mapping: Mapping) -> None:
        items = dict(mapping)
        if not all(self._representable(v) for v in items.values()):
            # Exactness beats compactness: park the odd epoch verbatim.
            self._raw[self._n] = items
            items = {}
        for key in items:
            if key not in self._cols:
                values = GrowableColumn(_DTYPES[self._cast])
                present = GrowableColumn(bool)
                # Backfill the epochs before this key first appeared.
                values.extend([0] * self._n)
                present.extend([False] * self._n)
                self._cols[key] = (values, present)
        for key, (values, present) in self._cols.items():
            values.append(items.get(key, 0))
            present.append(key in items)
        self._n += 1

    def get(self, index: int) -> Dict:
        """The epoch's mapping, reconstructed exactly."""
        raw = self._raw.get(index)
        if raw is not None:
            return dict(raw)
        return {
            key: self._cast(values[index])
            for key, (values, present) in self._cols.items()
            if present[index]
        }

    def keys(self) -> List:
        """Every key ever stored (first-appearance order)."""
        seen = dict.fromkeys(self._cols)
        for mapping in self._raw.values():
            seen.update(dict.fromkeys(mapping))
        return list(seen)

    def series(self, key) -> np.ndarray:
        """One key's values over all epochs (0 where absent), float64."""
        if self._raw:
            # Overflow epochs are test-stream territory; take the
            # exact per-epoch path rather than splicing arrays.
            return np.array(
                [self.get(i).get(key, 0) for i in range(self._n)],
                dtype=np.float64,
            )
        if key not in self._cols:
            return np.zeros(self._n, dtype=np.float64)
        values, present = self._cols[key]
        return np.where(present.view(), values.view().astype(np.float64), 0.0)

    @property
    def nbytes(self) -> int:
        return sum(
            values.nbytes + present.nbytes
            for values, present in self._cols.values()
        ) + sum(sys.getsizeof(d) for d in self._raw.values())


class _VerbatimField(list):
    """One ``{key: (int, ...)}`` frame field (message counts per code,
    operation counts per consistency level): each epoch's small dict
    kept as appended — only the keys present that epoch, rows as
    tuples.  Nothing reads these fields' bytes, so columns buy nothing."""

    __slots__ = ()

    def get(self, index: int) -> Dict:
        return self[index]

    @property
    def nbytes(self) -> int:
        return sum(sys.getsizeof(mapping) for mapping in self)


class _HistogramField:
    """The per-server vnode histogram field: one count vector per epoch
    plus a server-id tuple shared across the epochs of one
    cloud-membership version."""

    __slots__ = ("_ids", "_counts")

    def __init__(self) -> None:
        self._ids: List[Tuple[int, ...]] = []
        self._counts: List[np.ndarray] = []

    def append(self, hist: Mapping) -> None:
        if isinstance(hist, ServerVnodeHistogram):
            ids, counts = hist.server_ids, hist.counts
        else:
            ids = tuple(hist)
            counts = np.fromiter(
                (hist[sid] for sid in ids), dtype=np.int64, count=len(ids)
            )
        if counts.dtype != HIST_COUNT_DTYPE:
            # Narrow for storage only when exact: a hand-built stream
            # carrying counts past the int32 range keeps its dtype.
            narrowed = counts.astype(HIST_COUNT_DTYPE)
            if np.array_equal(narrowed, counts):
                counts = narrowed
        # Share the id tuple with the previous epoch when membership
        # did not change — the common case, and what keeps the store's
        # footprint one count vector per epoch.
        if self._ids and self._ids[-1] == ids:
            ids = self._ids[-1]
        self._ids.append(ids)
        self._counts.append(counts)

    def get(self, index: int) -> ServerVnodeHistogram:
        return ServerVnodeHistogram(self._ids[index], self._counts[index])

    @property
    def nbytes(self) -> int:
        """Every epoch's vector plus each distinct id tuple once."""
        total = sum(counts.nbytes for counts in self._counts)
        distinct = {id(ids): ids for ids in self._ids}
        return total + sum(sys.getsizeof(ids) for ids in distinct.values())


def _storage_for(hint):
    """The column block a frame field's declared type maps to."""
    if hint in _DTYPES:
        return _ScalarField(hint)
    if hint is Mapping:
        return _HistogramField()
    if get_origin(hint) is dict:
        value = get_args(hint)[1]
        if value in _DTYPES:
            return _KeyedField(value)
        if get_origin(value) is tuple:
            return _VerbatimField()
    raise MetricsError(f"no column storage for frame field type {hint!r}")


class FrameStore:
    """Columnar backing store for a stream of one frame dataclass.

    The storage is derived from the frame class's resolved type hints,
    one block per field: ``int`` / ``float`` → one growable int64 /
    float64 column; ``Dict[key, int | float]`` → a value + presence
    column per key (:class:`_KeyedField`); ``Dict[key, Tuple[int, …]]``
    → the epoch's dict verbatim; ``Mapping`` (the vnode histogram) → one
    count vector per epoch plus a server-id tuple shared across the
    epochs of one cloud-membership version.

    :meth:`frame` materializes a row view on demand — round trips are
    exact (int64/float64 hold every value the engine emits, and
    off-type test streams overflow to verbatim storage), so a stored
    stream serializes byte-identically to the frames it was appended
    from.
    """

    def __init__(self, frame_cls: type) -> None:
        hints = get_type_hints(frame_cls)
        self._cls = frame_cls
        self._fields = {
            f.name: _storage_for(hints[f.name])
            for f in dataclasses.fields(frame_cls)
        }

    def __len__(self) -> int:
        return len(self._fields["epoch"])

    def append(self, frame) -> None:
        """Store one frame; epochs must strictly increase."""
        epochs = self._fields["epoch"]
        if len(epochs) and frame.epoch <= epochs[-1]:
            raise MetricsError(
                f"non-monotonic {self._cls.__name__} epoch {frame.epoch} "
                f"after {epochs[-1]}"
            )
        for name, stored in self._fields.items():
            stored.append(getattr(frame, name))

    def frame(self, index: int):
        """Materialize one epoch as a row view (lazy histogram)."""
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"frame index {index} out of range ({n})")
        return self._cls(**{
            name: stored.get(index) for name, stored in self._fields.items()
        })

    def __iter__(self) -> Iterator:
        return (self.frame(i) for i in range(len(self)))

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self.frame(i) for i in range(*idx.indices(len(self)))]
        return self.frame(idx)

    @property
    def last(self):
        if not len(self):
            raise MetricsError(f"no {self._cls.__name__} collected")
        return self.frame(-1)

    @property
    def scalar_fields(self) -> Dict[str, type]:
        """``{name: int | float}`` of the scalar columns, in field order."""
        return {
            name: stored.cast for name, stored in self._fields.items()
            if isinstance(stored, _ScalarField)
        }

    def series(self, name: str) -> np.ndarray:
        """A scalar attribute of every frame, as float64 (fresh array).

        Scalar fields are column gathers; derived ``@property``
        attributes fall back to materialization.  An empty stream
        yields an empty array; an unknown name raises.
        """
        stored = self._fields.get(name)
        if isinstance(stored, _ScalarField):
            return stored.view().astype(np.float64)
        if not isinstance(getattr(self._cls, name, None), property):
            raise MetricsError(
                f"unknown {self._cls.__name__} series {name!r}"
            )
        return np.array(
            [getattr(frame, name) for frame in self], dtype=np.float64
        )

    def total(self, name: str) -> int:
        """Exact Python-int sum of one int column (no float64 cast).

        Byte counters can cross 2^53 over a long 100×-scale run, where
        a float64 sum silently loses integer exactness.
        """
        return sum(self._field(name, _ScalarField).view().tolist())

    def _field(self, name: str, kind: type):
        stored = self._fields.get(name)
        if not isinstance(stored, kind):
            raise MetricsError(
                f"{self._cls.__name__} has no {kind.__name__} {name!r}"
            )
        return stored

    def ring_series(self, name: str, key) -> np.ndarray:
        """One key's values over all epochs (0 absent) as float64."""
        return self._field(name, _KeyedField).series(key)

    def ring_keys(self, name: str = "vnodes_per_ring") -> List:
        """Every key one field ever stored, first-appearance order."""
        return self._field(name, _KeyedField).keys()

    def row_totals(self, name: str) -> Dict[object, List[int]]:
        """Per-key run totals of one tuple-valued keyed field, one per
        tuple position (keys in first-appearance order)."""
        totals: Dict[object, List[int]] = {}
        for mapping in self._field(name, _VerbatimField):
            for key, row in mapping.items():
                agg = totals.setdefault(key, [0] * len(row))
                for k, value in enumerate(row):
                    agg[k] += value
        return totals

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of the stored stream.

        Counts every column array at its capacity, each epoch's
        histogram vector and the shared id tuples (once per distinct
        tuple) — the store only grows, so the value at the end of a
        run is its peak.
        """
        return sum(stored.nbytes for stored in self._fields.values())


class MetricsLog(FrameStore):
    """The :class:`EpochFrame` stream plus the Figs. 2–5 series helpers."""

    def __init__(self) -> None:
        super().__init__(EpochFrame)

    def epochs(self) -> List[int]:
        return [int(e) for e in self.series("epoch")]

    def rings(self) -> List[Tuple[int, int]]:
        return sorted(self.ring_keys("vnodes_per_ring"))

    def query_load_series(self, ring: Tuple[int, int]) -> np.ndarray:
        """Fig. 4 series: average per-server query load of one ring."""
        live = self.series("live_servers")
        queries = self.ring_series("queries_per_ring", ring)
        out = np.zeros(len(queries), dtype=np.float64)
        np.divide(queries, live, out=out, where=live > 0)
        return out

    def vnode_histogram(self, epoch_index: int = -1) -> Mapping:
        """Fig. 2 snapshot: vnodes per server at one epoch.

        Returns the stored histogram *view* (a read-only mapping over
        the count vector) — no O(S) dict copy per access.
        """
        return self._fields["vnodes_per_server"].get(epoch_index)

    def vnode_counts(self, epoch_index: int = -1) -> np.ndarray:
        """One epoch's per-server vnode counts, slot order (read-only)."""
        return self.vnode_histogram(epoch_index).counts

    def storage_fraction_series(self) -> np.ndarray:
        return self.series("storage_fraction")

    def cumulative_insert_failures(self) -> np.ndarray:
        return np.cumsum(self.series("insert_failures"))

    def action_totals(self) -> Dict[str, int]:
        return {
            name: self.total(name)
            for name in ("repairs", "economic_replications", "migrations",
                         "suicides", "deferred")
        }


@dataclass(frozen=True, slots=True)
class ControlPlaneFrame:
    """One epoch's control-plane observables (faulty-network runs).

    Emitted alongside the :class:`EpochFrame` stream when the run
    carries a :class:`repro.net.model.NetConfig` — the EpochFrame
    contract (and the goldens serialized from it) is untouched.
    ``messages`` maps each message code to its
    ``(sent, delivered, dropped_loss, dropped_partition)`` epoch
    counts, straight from :class:`repro.net.model.MessageStats`.
    """

    epoch: int
    messages: Dict[str, Tuple[int, int, int, int]]
    actual_live: int
    believed_live: int
    ghosts: int
    false_suspects: int
    detections: int
    staleness_mean: float
    staleness_max: int
    price_version_lag: int
    retries_pushed: int
    retries_retried: int
    retries_succeeded: int
    retries_dropped: int
    wasted_transfers: int
    conflicting_repair_risk: int

    @property
    def messages_sent(self) -> int:
        return sum(row[0] for row in self.messages.values())

    @property
    def messages_dropped(self) -> int:
        return sum(row[2] + row[3] for row in self.messages.values())

    @property
    def membership_error(self) -> int:
        """|believed live − actually live| — the staleness the engine
        acted on this epoch (ghosts believed up + live believed down)."""
        return self.ghosts + self.false_suspects


@dataclass(frozen=True, slots=True)
class DataPlaneFrame:
    """One epoch's data-plane observables (stale-view serving runs).

    The quorum store's mirror of :class:`ControlPlaneFrame`: emitted
    when the run carries a :class:`repro.sim.config.DataPlaneConfig`,
    per-epoch deltas of the store's monotonic counters plus the hint
    queue depth at collection time.  ``levels`` maps a consistency
    level value (``"one"`` / ``"quorum"`` / ``"all"``) to its
    ``(ok_ops, replica_timeouts, stale_copies_observed)`` counts.
    """

    epoch: int
    reads: int
    writes: int
    read_failures: int
    write_failures: int
    replica_timeouts: int
    replica_unreachable: int
    suspects_skipped: int
    stale_observed: int
    read_repairs: int
    handoff_writes: int
    hints_parked: int
    hints_drained: int
    hints_expired: int
    hint_queue_depth: int
    anti_entropy_partitions: int
    anti_entropy_keys: int
    anti_entropy_bytes: int
    levels: Dict[str, Tuple[int, int, int]]

    @property
    def operations(self) -> int:
        return self.reads + self.writes

    @property
    def failures(self) -> int:
        return self.read_failures + self.write_failures

    @property
    def failure_rate(self) -> float:
        attempted = self.operations + self.failures
        if attempted == 0:
            return 0.0
        return self.failures / attempted


class RobustnessLog:
    """The control- and data-plane frame streams plus the robustness
    aggregates.

    Two :class:`FrameStore` streams (iteration, indexing and
    :meth:`series` read the control plane; the ``data_plane*`` members
    read the other) with the summary statistics ISSUE 6 asks for:
    false-suspicion rate, membership-staleness distribution, wasted
    transfer and retry totals, and per-code message totals.
    """

    # No ``nbytes`` here, deliberately: ``benchmarks/e2e`` falls back to
    # 8 bytes per number over ``list(log) + log.data_plane`` when the
    # attribute is missing, and a capacity-based figure would read
    # higher than that and fail its ``telemetry_bytes`` bound.

    def __init__(self) -> None:
        self._control = FrameStore(ControlPlaneFrame)
        self._data = FrameStore(DataPlaneFrame)

    def append(self, frame: ControlPlaneFrame) -> None:
        self._control.append(frame)

    def append_data_plane(self, frame: DataPlaneFrame) -> None:
        """Append one epoch's data-plane frame (monotonic epochs)."""
        self._data.append(frame)

    def __len__(self) -> int:
        return len(self._control)

    def __iter__(self) -> Iterator[ControlPlaneFrame]:
        return iter(self._control)

    def series(self, name: str) -> np.ndarray:
        return self._control.series(name)

    def message_totals(self) -> Dict[str, Dict[str, int]]:
        """Per-code cumulative counts over the whole run."""
        names = ("sent", "delivered", "dropped_loss", "dropped_partition")
        return {
            code: dict(zip(names, row))
            for code, row in self._control.row_totals("messages").items()
        }

    def false_suspicion_rate(self) -> float:
        """False-suspect server-epochs / live server-epochs.

        The FailureDetector accuracy headline: what fraction of the
        time a physically-live server spent being believed dead.
        """
        live_epochs = self._control.total("actual_live")
        if live_epochs == 0:
            return 0.0
        return self._control.total("false_suspects") / live_epochs

    def staleness_distribution(self) -> Dict[str, float]:
        """Mean / p95 / max of the board's membership-view staleness."""
        if not len(self):
            return {"mean": 0.0, "p95": 0.0, "max": 0.0}
        means = self.series("staleness_mean")
        maxes = self.series("staleness_max")
        return {
            "mean": float(means.mean()),
            "p95": float(np.percentile(means, 95)),
            "max": float(maxes.max()),
        }

    @property
    def data_plane(self) -> List[DataPlaneFrame]:
        """The data-plane frame stream (empty when not collected)."""
        return list(self._data)

    def data_plane_series(self, name: str) -> np.ndarray:
        return self._data.series(name)

    def data_plane_summary(self) -> Dict[str, object]:
        """Whole-run data-plane totals plus the per-level breakdown."""
        data = self._data
        totals: Dict[str, object] = {
            name: data.total(name)
            for name in data.scalar_fields
            if name not in ("epoch", "hint_queue_depth")
        }
        # Peaks are over non-negative counts, so an empty stream reads 0.
        depth = data.series("hint_queue_depth")
        totals["peak_hint_queue_depth"] = int(depth.max(initial=0))
        totals["final_hint_queue_depth"] = int(depth[-1]) if len(depth) else 0
        totals["levels"] = {
            level: dict(zip(("ok", "timeouts", "stale"), row))
            for level, row in data.row_totals("levels").items()
        }
        return totals

    def summary(self) -> Dict[str, object]:
        """The robustness report block (text render in analysis/)."""
        control = self._control
        out: Dict[str, object] = {
            "epochs": len(control),
            "false_suspicion_rate": self.false_suspicion_rate(),
            "staleness": self.staleness_distribution(),
            "detections": control.total("detections"),
            "wasted_transfers": control.total("wasted_transfers"),
            "retries": {
                kind: control.total(f"retries_{kind}")
                for kind in ("pushed", "retried", "succeeded", "dropped")
            },
            "max_price_version_lag": int(
                control.series("price_version_lag").max(initial=0)
            ),
            "peak_conflicting_repair_risk": int(
                control.series("conflicting_repair_risk").max(initial=0)
            ),
            "messages": self.message_totals(),
        }
        if len(self._data):
            out["data_plane"] = self.data_plane_summary()
        return out


@dataclass(frozen=True, slots=True)
class ServingFrame:
    """One epoch's live-serving observables (front-door runs).

    Emitted by :class:`repro.serve.frontend.ServingFrontEnd` when the
    run carries a :class:`repro.sim.config.ServingConfig`: the request
    throughput, the read/write latency tails (p50/p99/p999 over the
    epoch's costed per-request latencies) and the SLA violation deltas.
    Like the control- and data-plane frames it rides alongside the
    :class:`EpochFrame` stream without touching it — the goldens stay
    byte-identical whether serving is on or off.
    """

    epoch: int
    requests: int
    reads: int
    writes: int
    read_failures: int
    write_failures: int
    sla_read_violations: int
    sla_write_violations: int
    requests_per_sec: float
    read_p50_ms: float
    read_p99_ms: float
    read_p999_ms: float
    write_p50_ms: float
    write_p99_ms: float
    write_p999_ms: float
    mean_queue_ms: float

    @property
    def failures(self) -> int:
        return self.read_failures + self.write_failures

    @property
    def sla_violations(self) -> int:
        return self.sla_read_violations + self.sla_write_violations


class ServingLog(FrameStore):
    """The :class:`ServingFrame` stream plus its run summary.

    The serving front door emits one small all-scalar frame per epoch,
    so the whole stream packs into one int64/float64 column per field —
    the same treatment the EpochFrame scalars get — with exact row
    round trips through :meth:`frame`.
    """

    def __init__(self) -> None:
        super().__init__(ServingFrame)

    def summary(self) -> Dict[str, object]:
        """Whole-run serving totals plus steady-state tail medians."""
        if not len(self):
            return {"epochs": 0}
        totals = {
            name: self.total(name)
            for name, cast in self.scalar_fields.items()
            if cast is int and name != "epoch"
        }
        out: Dict[str, object] = {"epochs": len(self), **totals}
        out["mean_requests_per_sec"] = float(
            self.series("requests_per_sec").mean()
        )
        # Median-of-epochs keeps a single fault window from dominating
        # the headline tails.
        for name in ("read_p50_ms", "read_p99_ms", "read_p999_ms",
                     "write_p50_ms", "write_p99_ms", "write_p999_ms"):
            out[name] = float(np.median(self.series(name)))
        for op in ("read", "write"):
            out[f"peak_{op}_p999_ms"] = float(
                self.series(f"{op}_p999_ms").max()
            )
        requests = totals["requests"]
        violations = (
            totals["sla_read_violations"] + totals["sla_write_violations"]
        )
        out["sla_attainment"] = (
            1.0 - violations / requests if requests else 1.0
        )
        return out
