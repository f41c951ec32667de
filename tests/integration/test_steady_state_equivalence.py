"""Fig. 4-scale equivalence for the steady-state fast paths (PR 3).

The 100×-scale kernel work — the dense partition index behind the
array-backed ``EpochLoad`` / availability stores, the row-space
incidence rebuild, and the shared per-pass transfer batch — must leave
the ``EpochFrame`` stream *bit-identical* to the scalar reference
kernel.  The golden suite pins small scenarios; this one runs the full
Fig. 4 shape (200 partitions/app on the paper cloud, a compressed
Slashdot spike) so the surge regime the fast paths target — expansion
herds, repair waves, decay-time suicides and migrations — is exercised
at its native scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import Simulation
from repro.sim.framedump import frames_to_jsonable
from repro.sim.scenario import compile_spec
from repro.sim.specs import slashdot_spec


EPOCHS = 48


def fig4_config(kernel: str):
    # Compress the spike into the horizon: bootstrap (epochs 0–8),
    # ramp + peak (9–24), decay (25–48) — every §II-C action class
    # fires, at the paper's full partition count.
    return compile_spec(slashdot_spec(
        epochs=EPOCHS,
        seed=7,
        partitions=200,
        spike_epoch=18,
        ramp_epochs=10,
        decay_epochs=20,
    ).with_operations(kernel=kernel)).config


@pytest.fixture(scope="module")
def scalar_frames():
    sim = Simulation(fig4_config("scalar"))
    sim.run()
    return frames_to_jsonable(sim.metrics)


class TestFig4ScaleEquivalence:
    def test_vectorized_kernel_matches_scalar_at_fig4_scale(
        self, scalar_frames
    ):
        sim = Simulation(fig4_config("vectorized"))
        sim.run()
        assert frames_to_jsonable(sim.metrics) == scalar_frames

    def test_dense_load_vector_mirrors_dict(self):
        """The array-backed EpochLoad answers every pid exactly like
        the dict the scalar kernel draws."""
        sim = Simulation(fig4_config("vectorized"))
        for __ in range(6):
            sim.step()
        load = sim.mix.draw(99, sim.rings.layout(), sim.popularity)
        assert load.counts is not None
        total = 0
        for ring in sim.rings:
            for partition in ring:
                q = load.queries_for(partition.pid)
                assert q == load.per_partition.get(partition.pid, 0)
                total += q
        assert total == load.total_queries
        # Vector gathers agree with the scalar accessor, including
        # out-of-range slots (partitions indexed after the draw).
        slots = np.arange(len(load.counts) + 3, dtype=np.intp)
        gathered = load.counts_at(slots)
        assert int(gathered.sum()) == load.total_queries
        assert tuple(gathered[-3:]) == (0, 0, 0)

    def test_availability_store_mirrors_catalog(self):
        """Replica-count and eq. 2 vectors stay exact mirrors of the
        catalog after a spike's worth of membership churn."""
        from repro.core.availability import availability

        sim = Simulation(fig4_config("vectorized"))
        sim.run(24)
        index = sim.avail_index
        pindex = index.partition_index
        for ring in sim.rings:
            for partition in ring:
                pid = partition.pid
                slot = pindex.get(pid)
                assert slot is not None
                slots = np.array([slot], dtype=np.intp)
                assert int(index.replica_counts_at(slots)[0]) == (
                    sim.catalog.replica_count(pid)
                )
                assert float(index.availability_at(slots)[0]) == (
                    availability(sim.cloud, sim.catalog.servers_of(pid))
                )
