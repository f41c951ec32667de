"""Unit tests for the cloud topology and its per-level prefix codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.location import NUM_LEVELS, Location, diversity
from repro.cluster.server import ServerTable, make_server
from repro.cluster.topology import (
    PAPER_LAYOUT,
    Cloud,
    CloudLayout,
    TopologyError,
    build_cloud,
    fresh_locations,
)
from repro.sim.config import scaled_paper_layout

REPO_ROOT = Path(__file__).resolve().parents[2]
#: ``frames_digest`` of the fig4 100× bootstrap's four epochs.
FIG4_100X_BOOT_DIGEST = (
    "fcb6e54dc539505cd6677060d5086f24de62704dd227146a8304e870230120e3"
)


class TestCloudLayout:
    def test_paper_layout_has_200_servers(self):
        assert PAPER_LAYOUT.total_servers == 200

    def test_paper_layout_structure(self):
        locations = list(PAPER_LAYOUT.locations())
        assert len(locations) == 200
        assert len(set(locations)) == 200
        # 10 countries over 5 continents (2 each).
        continents = {l.continent for l in locations}
        assert continents == set(range(5))
        # 5 servers per rack.
        racks = {}
        for l in locations:
            racks.setdefault(l.prefix(5), 0)
            racks[l.prefix(5)] += 1
        assert set(racks.values()) == {5}
        assert len(racks) == 40  # 10 countries * 2 DCs * 1 room * 2 racks

    def test_invalid_layout(self):
        with pytest.raises(TopologyError):
            CloudLayout(countries=0)

    def test_custom_layout_count(self):
        layout = CloudLayout(
            countries=2,
            countries_per_continent=1,
            datacenters_per_country=1,
            rooms_per_datacenter=1,
            racks_per_room=1,
            servers_per_rack=3,
        )
        assert layout.total_servers == 6


def small_cloud(n=4):
    cloud = Cloud()
    for i in range(n):
        cloud.add_servers([
            make_server(i, Location(i % 2, 0, 0, 0, 0, i // 2),
                        storage_capacity=1000)
        ])
    return cloud


class TestCloudMutation:
    def test_add_and_len(self):
        cloud = small_cloud(4)
        assert len(cloud) == 4
        assert set(cloud.server_ids) == {0, 1, 2, 3}

    def test_duplicate_id_rejected(self):
        cloud = small_cloud(1)
        with pytest.raises(TopologyError):
            cloud.add_servers([make_server(0, Location(0, 0, 0, 0, 0, 9))])

    def test_unknown_server(self):
        cloud = small_cloud(1)
        with pytest.raises(TopologyError):
            cloud.server(99)

    def test_remove_keeps_survivor_diversity(self):
        cloud = small_cloud(4)
        before = {
            (a, b): cloud.diversity(a, b)
            for a in cloud.server_ids
            for b in cloud.server_ids
        }
        cloud.remove_server(1)
        assert 1 not in cloud
        assert len(cloud) == 3
        for a in cloud.server_ids:
            for b in cloud.server_ids:
                assert cloud.diversity(a, b) == before[(a, b)]

    def test_removed_server_is_marked_dead(self):
        cloud = small_cloud(2)
        server = cloud.remove_server(0)
        assert not server.alive

    def test_spawn_server_gets_fresh_id(self):
        cloud = small_cloud(3)
        cloud.remove_server(2)
        spawned = cloud.spawn_servers([Location(1, 1, 0, 0, 0, 0)])[0]
        assert spawned.server_id == 3  # id 2 is never reused

    def test_diversity_matches_location_diversity(self):
        cloud = build_cloud(CloudLayout(
            countries=2, countries_per_continent=1,
            datacenters_per_country=1, rooms_per_datacenter=1,
            racks_per_room=1, servers_per_rack=3,
        ))
        for a in cloud.server_ids:
            for b in cloud.server_ids:
                expected = diversity(
                    cloud.server(a).location, cloud.server(b).location
                )
                assert cloud.diversity(a, b) == expected

    def test_begin_epoch_propagates(self):
        cloud = small_cloud(2)
        cloud.server(0).record_queries(5)
        cloud.begin_epoch()
        assert cloud.server(0).queries_this_epoch == 0


class TestRemoveWaveValidation:
    def test_remove_servers_unknown_id_leaves_cloud_intact(self):
        cloud = small_cloud(3)
        with pytest.raises(TopologyError):
            cloud.remove_servers([1, 99])
        assert cloud.server_ids == [0, 1, 2]

    def test_remove_servers_repeated_id_leaves_cloud_intact(self):
        cloud = build_cloud()
        before = (cloud.server_ids, list(cloud.locations), cloud.version)
        with pytest.raises(TopologyError):
            cloud.remove_servers([5, 5])
        assert (
            cloud.server_ids, list(cloud.locations), cloud.version
        ) == before
        assert cloud.server(5).alive and cloud.slot(5) == 5
        # The slot map is still whole: the next wave removes cleanly.
        cloud.remove_servers([6, 7])
        assert cloud.slot(8) == 6 and len(cloud) == 198


#: Level values: small ones that collide across servers, plus sparse
#: giants that only a canonical code (not a packed key) keeps exact.
PART = st.sampled_from((0, 1, 2, 9, 2**31 - 1, 2**40 + 3))
#: Deep racks: up to 41 servers under one rack prefix.
LOCATION = st.builds(Location, PART, PART, PART, PART, PART,
                     st.integers(0, 40))


@st.composite
def membership_scripts(draw):
    start = draw(st.lists(LOCATION, min_size=1, max_size=14))
    waves = draw(st.lists(st.one_of(
        st.tuples(st.just("join"),
                  st.lists(LOCATION, min_size=1, max_size=6)),
        st.tuples(st.just("leave"),
                  st.lists(st.integers(0, 99), min_size=1, max_size=4)),
    ), max_size=5))
    return start, waves


def check_codes_against_locations(cloud):
    """Every diversity read equals §II-B's ``location.diversity``."""
    ids = cloud.server_ids
    locs = [cloud.server(sid).location for sid in ids]
    assert cloud.locations == locs
    n = len(ids)
    ref = np.array(
        [[diversity(a, b) for b in locs] for a in locs], dtype=np.int64
    ).reshape(n, n)
    slots = np.arange(n)
    assert np.array_equal(
        cloud.diversity_between(slots[:, None], slots[None, :]), ref
    )
    for a in range(n):
        for b in range(n):
            assert cloud.diversity(ids[a], ids[b]) == ref[a, b]
    rng = np.random.default_rng(n)
    for size in (0, 1, 2, 3, 7) if n else (0,):
        members = rng.integers(0, max(n, 1), size=size).tolist()  # multiset
        got = cloud.diversity_sum(members)
        assert got.dtype == np.float64
        assert np.array_equal(got, ref[members].sum(axis=0))
    loc_ids = cloud.location_ids()
    continents = cloud.continent_ids()
    for a in range(n):
        for b in range(n):
            assert (loc_ids[a] == loc_ids[b]) == (locs[a] == locs[b])
            assert (continents[a] == continents[b]) == (
                locs[a].continent == locs[b].continent
            )
    # Row ≡ slot: every survivor's row view writes its own slot.
    cloud.begin_epoch()
    for rank, sid in enumerate(ids):
        cloud.server(sid).record_queries(rank + 1)
    assert cloud.queries_vector().tolist() == list(range(1, n + 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(membership_scripts())
def test_prefix_codes_follow_join_and_leave_waves(script):
    start, waves = script
    cloud = Cloud(make_server(i, loc) for i, loc in enumerate(start))
    check_codes_against_locations(cloud)
    for kind, arg in waves:
        if kind == "join":
            first = cloud.spawn_servers(arg[:1], storage_capacity=7)[0]
            rest = cloud.spawn_servers(arg[1:])
            assert [s.server_id for s in [first, *rest]] == list(
                range(first.server_id, first.server_id + len(arg))
            )
            assert first.storage_capacity == 7
        elif len(cloud):
            live = cloud.server_ids
            gone = sorted({live[k % len(live)] for k in arg})
            removed = cloud.remove_servers(gone)
            assert not any(server.alive for server in removed)
            assert not set(gone) & set(cloud.server_ids)
        check_codes_against_locations(cloud)


class TestScale:
    def test_cloud_state_is_linear_in_servers(self):
        """No array the cloud holds grows past ``NUM_LEVELS · S``
        elements through a build, a leave wave and a join wave."""
        layout = scaled_paper_layout(10)
        cloud = build_cloud(layout)
        cloud.remove_servers(cloud.server_ids[::20])
        cloud.spawn_servers(
            fresh_locations(layout, list(cloud.locations), 150)
        )
        cloud.slot_lookup()
        arrays = [
            value
            for attr in vars(cloud).values()
            for value in (attr if isinstance(attr, tuple) else (attr,))
            if isinstance(value, np.ndarray)
        ] + [
            getattr(cloud.table, name)
            for name in ServerTable.__slots__
            if isinstance(getattr(cloud.table, name), np.ndarray)
        ]
        assert len(arrays) > 10  # the codes, slot map and table columns
        assert max(a.size for a in arrays) <= NUM_LEVELS * len(cloud)

    @pytest.mark.slow
    def test_fig4_100x_bootstrap_fits_in_400_mib(self):
        """The 20 000-server fig4 bootstrap (epochs 0–3) in a fresh
        interpreter: peak RSS under 400 MiB, frames unchanged."""
        script = (
            "import resource, sys\n"
            "sys.path.insert(0, 'benchmarks/perf')\n"
            "from test_epoch_throughput import _fig4_scaled_config\n"
            "from repro.sim.engine import Simulation\n"
            "from repro.sim.framedump import frames_digest\n"
            "sim = Simulation(_fig4_scaled_config(100, 0, 4))\n"
            "sim.run(4)\n"
            "print(frames_digest(list(sim.metrics)))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out[0] == FIG4_100X_BOOT_DIGEST
        assert int(out[1]) <= 400 * 1024  # ru_maxrss is in KiB


class TestVectors:
    def test_confidence_vector(self):
        cloud = small_cloud(2)
        assert np.allclose(cloud.confidence_vector(), [1.0, 1.0])

    def test_storage_available_vector(self):
        cloud = small_cloud(2)
        cloud.server(0).allocate_storage(100)
        vec = cloud.storage_available_vector()
        assert vec[cloud.slot(0)] == 900
        assert vec[cloud.slot(1)] == 1000


class TestBuildCloud:
    def test_paper_build(self):
        cloud = build_cloud()
        assert len(cloud) == 200
        rents = [s.monthly_rent for s in cloud]
        assert rents.count(125.0) == 60
        assert rents.count(100.0) == 140

    def test_expensive_fraction_with_rng(self):
        cloud = build_cloud(rng=np.random.default_rng(7))
        rents = [s.monthly_rent for s in cloud]
        assert rents.count(125.0) == 60

    def test_rng_choice_is_deterministic(self):
        a = build_cloud(rng=np.random.default_rng(3))
        b = build_cloud(rng=np.random.default_rng(3))
        assert [s.monthly_rent for s in a] == [s.monthly_rent for s in b]

    def test_invalid_fraction(self):
        with pytest.raises(TopologyError):
            build_cloud(expensive_fraction=1.5)


class TestFreshLocations:
    def test_new_locations_unique_and_disjoint(self):
        layout = CloudLayout()
        existing = list(layout.locations())
        fresh = fresh_locations(layout, existing, 20)
        assert len(fresh) == 20
        assert len(set(fresh)) == 20
        assert not set(fresh) & set(existing)

    def test_fills_existing_racks(self):
        layout = CloudLayout()
        existing = list(layout.locations())
        fresh = fresh_locations(layout, existing, 5)
        existing_racks = {l.prefix(5) for l in existing}
        assert all(l.prefix(5) in existing_racks for l in fresh)

    def test_zero_count(self):
        assert fresh_locations(CloudLayout(), [], 0) == []

    def test_negative_count(self):
        with pytest.raises(TopologyError):
            fresh_locations(CloudLayout(), [], -1)
