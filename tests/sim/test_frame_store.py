"""Columnar FrameStore ↔ framedump byte-identity and histogram views.

The metrics log stores frames as columns (scalars as growable arrays,
the Fig. 2 vnode histogram as one count vector per epoch over a shared
server-id tuple) and materializes :class:`EpochFrame` row views on
read.  The contract: a stored stream must serialize *byte-identically*
to the frames the engine emitted — the golden files and the kernel
equivalence suite both read through this path.
"""

import dataclasses

import numpy as np
import pytest

from repro.sim.engine import Simulation
from repro.sim.framedump import dump_frames, dump_log
from repro.sim.metrics import (
    EpochFrame,
    MetricsError,
    MetricsLog,
    ServerVnodeHistogram,
)
from repro.sim.scenario import compile_spec
from repro.sim.specs import slashdot_spec


def fig4_scale_config(epochs=10, partitions=24):
    """A shrunken Fig. 4 Slashdot shape (same scenario family as the
    ``fig4-slashdot`` bench), spike inside the horizon."""
    return compile_spec(slashdot_spec(
        epochs=epochs, seed=9, partitions=partitions,
        spike_epoch=3, ramp_epochs=2, decay_epochs=4,
    )).config


class TestFramedumpByteIdentity:
    @pytest.mark.parametrize("kernel", ["vectorized", "scalar"])
    def test_stored_stream_serializes_byte_identical(self, kernel):
        """Frames re-read from the column store must dump to the exact
        bytes of the frames ``step()`` returned (fig4-scale run with a
        load spike, repairs, migrations and economic replications)."""
        config = dataclasses.replace(
            fig4_scale_config(), kernel=kernel
        )
        sim = Simulation(config)
        live_frames = [sim.step() for _ in range(config.epochs)]
        assert dump_frames(live_frames) == dump_log(sim.metrics)

    def test_stored_stream_identical_across_kernels(self):
        dumps = {}
        for kernel in ("vectorized", "scalar"):
            sim = Simulation(
                dataclasses.replace(fig4_scale_config(), kernel=kernel)
            )
            sim.run()
            dumps[kernel] = dump_log(sim.metrics)
        assert dumps["vectorized"] == dumps["scalar"]


@pytest.fixture(scope="module")
def sim_and_log():
    sim = Simulation(fig4_scale_config(epochs=4))
    return sim, sim.run()


class TestHistogramView:
    def test_vnode_histogram_returns_view_not_copy(self, sim_and_log):
        __, log = sim_and_log
        hist = log.vnode_histogram()
        assert isinstance(hist, ServerVnodeHistogram)
        # Mapping semantics against the engine's ground truth.
        assert hist == {
            sid: count for sid, count in zip(hist.server_ids, hist.counts)
        }

    def test_histogram_matches_catalog(self, sim_and_log):
        sim, log = sim_and_log
        hist = log.vnode_histogram()
        for sid in sim.cloud.server_ids:
            assert hist[sid] == sim.catalog.vnode_count(sid)

    def test_histogram_is_immutable_mapping(self, sim_and_log):
        __, log = sim_and_log
        hist = log.vnode_histogram()
        with pytest.raises(TypeError):
            hist[0] = 99  # Mapping has no __setitem__

    def test_id_tuple_shared_across_epochs(self, sim_and_log):
        __, log = sim_and_log
        first = log[0].vnodes_per_server
        last = log.last.vnodes_per_server
        assert first.server_ids is last.server_ids

    def test_values_and_items_are_python_ints(self, sim_and_log):
        __, log = sim_and_log
        hist = log.vnode_histogram()
        assert all(type(v) is int for v in hist.values())
        assert all(type(v) is int for __, v in hist.items())


def _hist_frame(counts: np.ndarray, ids=None, epoch: int = 0) -> EpochFrame:
    """A minimal frame around one vnode histogram."""
    if ids is None:
        ids = tuple(range(len(counts)))
    return EpochFrame(
        epoch=epoch, total_queries=1, live_servers=len(ids),
        vnodes_total=int(counts.sum()),
        vnodes_per_ring={(0, 0): 1},
        vnodes_per_server=ServerVnodeHistogram(ids, counts),
        queries_per_ring={(0, 0): 1.0},
        mean_availability_per_ring={(0, 0): 31.0},
        unsatisfied_partitions=0, lost_partitions=0,
        storage_used=0, storage_capacity=1,
        insert_attempts=0, insert_failures=0, repairs=0,
        economic_replications=0, migrations=0, suicides=0,
        deferred=0, min_price=0.1, mean_price=0.1, max_price=0.1,
        unavailable_queries=0, vnodes_on_expensive=0, vnodes_on_cheap=0,
    )


class TestStoreAccessors:
    def test_series_and_ring_series_match_frames(self, sim_and_log):
        __, log = sim_and_log
        frames = list(log)
        assert log.series("repairs").tolist() == [
            float(f.repairs) for f in frames
        ]
        ring = log.rings()[0]
        assert log.ring_series("vnodes_per_ring", ring).tolist() == [
            float(f.vnodes_per_ring.get(ring, 0)) for f in frames
        ]

    def test_derived_series_fall_back_to_materialization(self, sim_and_log):
        __, log = sim_and_log
        assert log.series("bytes_moved").tolist() == [
            float(f.bytes_moved) for f in log
        ]
        with pytest.raises(MetricsError):
            log.series("bogus")

    def test_negative_and_slice_indexing(self, sim_and_log):
        __, log = sim_and_log
        assert log[-1].epoch == log.last.epoch
        assert [f.epoch for f in log[1:3]] == [1, 2]

    def test_nbytes_grows_and_stays_columnar(self):
        log = MetricsLog()
        base = None
        counts = np.arange(50, dtype=np.int64)
        ids = tuple(range(50))
        for epoch in range(8):
            log.append(
                EpochFrame(
                    epoch=epoch, total_queries=1, live_servers=50,
                    vnodes_total=int(counts.sum()),
                    vnodes_per_ring={(0, 0): 1},
                    vnodes_per_server=ServerVnodeHistogram(ids, counts),
                    queries_per_ring={(0, 0): 1.0},
                    mean_availability_per_ring={(0, 0): 31.0},
                    unsatisfied_partitions=0, lost_partitions=0,
                    storage_used=0, storage_capacity=1,
                    insert_attempts=0, insert_failures=0, repairs=0,
                    economic_replications=0, migrations=0, suicides=0,
                    deferred=0, min_price=0.1, mean_price=0.1,
                    max_price=0.1, unavailable_queries=0,
                    vnodes_on_expensive=0, vnodes_on_cheap=0,
                )
            )
            if base is None:
                base = log.nbytes
        assert log.nbytes > 0
        # Seven further epochs of a 50-server histogram cost one int64
        # vector (400 bytes) plus small ring dicts each — kilobytes,
        # not the ~5 KB/epoch a stored {sid: count} dict would take.
        assert log.nbytes - base < 7 * 2000

    def test_plain_dict_histograms_are_columnarized(self):
        # MetricsLog accepts hand-built frames (tests, tools) and still
        # stores their histogram as a count vector.
        log = MetricsLog()
        frame = EpochFrame(
            epoch=0, total_queries=1, live_servers=2, vnodes_total=3,
            vnodes_per_ring={(0, 0): 3},
            vnodes_per_server={7: 2, 9: 1},
            queries_per_ring={(0, 0): 1.0},
            mean_availability_per_ring={(0, 0): 31.0},
            unsatisfied_partitions=0, lost_partitions=0,
            storage_used=0, storage_capacity=1,
            insert_attempts=0, insert_failures=0, repairs=0,
            economic_replications=0, migrations=0, suicides=0,
            deferred=0, min_price=0.1, mean_price=0.1, max_price=0.1,
            unavailable_queries=0, vnodes_on_expensive=0,
            vnodes_on_cheap=3,
        )
        log.append(frame)
        stored = log[0].vnodes_per_server
        assert isinstance(stored, ServerVnodeHistogram)
        assert stored == {7: 2, 9: 1}
        assert dump_frames([frame]) == dump_log(log)

    def test_histogram_counts_stored_int32_when_exact(self):
        # ISSUE 9 narrow-dtype core: the dominant per-epoch allocation
        # (one count vector over the server-id tuple) is stored int32
        # whenever the narrowing round-trips exactly.
        log = MetricsLog()
        counts = np.arange(50, dtype=np.int64)
        log.append(_hist_frame(counts))
        stored = log._fields["vnodes_per_server"]._counts[0]
        assert stored.dtype == np.int32
        hist = log[0].vnodes_per_server
        assert list(hist.values()) == counts.tolist()

    def test_histogram_counts_past_int32_keep_their_dtype(self):
        # A hand-built stream carrying counts past the int32 range must
        # not be clipped by the storage narrowing.
        log = MetricsLog()
        counts = np.array([2**40, 1], dtype=np.int64)
        log.append(_hist_frame(counts, ids=(7, 9)))
        stored = log._fields["vnodes_per_server"]._counts[0]
        assert stored.dtype == np.int64
        assert log[0].vnodes_per_server[7] == 2**40

    def test_numpy_scalar_ring_values_stay_columnar(self):
        # A producer handing the ring block np.int64/np.float64 values
        # must not demote the epoch to the verbatim-dict overflow path
        # (that would quietly reintroduce per-epoch ring dicts).
        import numpy as np

        log = MetricsLog()
        frame = EpochFrame(
            epoch=0, total_queries=1, live_servers=2, vnodes_total=3,
            vnodes_per_ring={(0, 0): np.int64(3)},
            vnodes_per_server={7: 2, 9: 1},
            queries_per_ring={(0, 0): np.float64(1.0)},
            mean_availability_per_ring={(0, 0): 31.0},
            unsatisfied_partitions=0, lost_partitions=0,
            storage_used=0, storage_capacity=1,
            insert_attempts=0, insert_failures=0, repairs=0,
            economic_replications=0, migrations=0, suicides=0,
            deferred=0, min_price=0.1, mean_price=0.1, max_price=0.1,
            unavailable_queries=0, vnodes_on_expensive=0,
            vnodes_on_cheap=3,
        )
        log.append(frame)
        for name in ("vnodes_per_ring", "queries_per_ring"):
            assert not log._fields[name]._raw
        assert log[0].vnodes_per_ring == {(0, 0): 3}
        assert log.ring_series("vnodes_per_ring", (0, 0)).tolist() == [3.0]
