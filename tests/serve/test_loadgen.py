"""Unit tests for the open-loop serving load generator."""

import numpy as np
import pytest

from repro.cluster.location import Location
from repro.serve.loadgen import VALUE_SIZE, LoadGenerator, ServeError


def make_gen(*, seed=0, **kwargs):
    params = dict(
        apps=((0, 0), (1, 1)),
        requests_per_epoch=32,
        read_fraction=0.75,
        keyspace=16,
        rng=np.random.default_rng(seed),
    )
    params.update(kwargs)
    return LoadGenerator(**params)


class TestValidation:
    def test_needs_apps(self):
        with pytest.raises(ServeError):
            make_gen(apps=())

    def test_negative_rate_rejected(self):
        with pytest.raises(ServeError):
            make_gen(requests_per_epoch=-1)

    def test_read_fraction_bounds(self):
        with pytest.raises(ServeError):
            make_gen(read_fraction=1.5)
        with pytest.raises(ServeError):
            make_gen(read_fraction=-0.1)

    def test_keyspace(self):
        with pytest.raises(ServeError):
            make_gen(keyspace=0)


class TestArrivals:
    def test_count_matches_rate(self):
        gen = make_gen()
        assert len(gen.draw(0)) == 32

    def test_offsets_monotone_nondecreasing(self):
        """Open loop: arrivals are a time-ordered stream by construction."""
        arrivals = make_gen().draw(0)
        offsets = [a.offset_ms for a in arrivals]
        assert offsets == sorted(offsets)
        assert all(t > 0 for t in offsets)

    def test_deterministic_replay(self):
        """Same seed ⇒ the identical arrival stream, epoch by epoch."""
        a = make_gen(seed=7)
        b = make_gen(seed=7)
        for epoch in range(3):
            assert a.draw(epoch) == b.draw(epoch)

    def test_different_seeds_differ(self):
        assert make_gen(seed=1).draw(0) != make_gen(seed=2).draw(0)

    def test_keys_use_serving_prefix(self):
        gen = make_gen()
        assert all(k.startswith(b"sv-") for k in gen.keys)
        for arrival in gen.draw(0):
            assert arrival.key in gen.keys

    def test_read_fraction_extremes(self):
        reads = make_gen(read_fraction=1.0).draw(0)
        assert all(a.kind == "get" and a.value is None for a in reads)
        writes = make_gen(read_fraction=0.0).draw(0)
        assert all(a.kind == "put" for a in writes)

    def test_values_padded_to_size(self):
        for arrival in make_gen(read_fraction=0.0).draw(0):
            assert len(arrival.value) == VALUE_SIZE
            assert arrival.value.startswith(b"sv-e0-")

    def test_apps_drawn_from_given_set(self):
        apps = {(0, 0), (1, 1)}
        drawn = {
            (a.app_id, a.ring_id) for a in make_gen().draw(0)
        }
        assert drawn <= apps

    def test_sites_assigned_when_given(self):
        sites = (Location(0, 0, 0, 0, 0, 0), Location(1, 0, 0, 0, 0, 0))
        arrivals = make_gen(sites=sites).draw(0)
        assert all(a.client in sites for a in arrivals)

    def test_no_sites_means_clientless(self):
        assert all(a.client is None for a in make_gen().draw(0))

    def test_zipf_skews_toward_head_keys(self):
        gen = make_gen(requests_per_epoch=2000, keyspace=16)
        arrivals = gen.draw(0)
        head = sum(1 for a in arrivals if a.key == gen.keys[0])
        tail = sum(1 for a in arrivals if a.key == gen.keys[-1])
        assert head > tail

    def test_zero_rate_yields_empty_epoch(self):
        assert make_gen(requests_per_epoch=0).draw(0) == []
