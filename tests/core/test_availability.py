"""Unit tests for eq. 2 availability and the paper's thresholds."""

from math import comb

import pytest

from repro.cluster.location import (
    CROSS_COUNTRY_DIVERSITY,
    MAX_DIVERSITY,
    Location,
)
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.availability import (
    AvailabilityError,
    availability,
    availability_without,
    pair_gain,
    paper_thresholds,
)


def cloud_with(*locations, confidence=1.0):
    cloud = Cloud()
    for i, loc in enumerate(locations):
        cloud.add_servers([
            make_server(i, Location(*loc), confidence=confidence)
        ])
    return cloud


class TestAvailability:
    def test_single_replica_is_zero(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0))
        assert availability(cloud, [0]) == 0.0

    def test_empty_set_is_zero(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0))
        assert availability(cloud, []) == 0.0

    def test_two_cross_continent_replicas(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
        assert availability(cloud, [0, 1]) == 63.0

    def test_three_replicas_sum_pairs(self):
        # continents 0, 1, plus a same-rack neighbour of server 0.
        cloud = cloud_with(
            (0, 0, 0, 0, 0, 0),
            (1, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1),
        )
        # pairs: (0,1)=63, (0,2)=1, (1,2)=63
        assert availability(cloud, [0, 1, 2]) == 127.0

    def test_confidence_scales_quadratically(self):
        cloud = cloud_with(
            (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), confidence=0.5
        )
        assert availability(cloud, [0, 1]) == pytest.approx(63 * 0.25)

    def test_dead_replica_contributes_nothing(self):
        cloud = cloud_with(
            (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)
        )
        full = availability(cloud, [0, 1, 2])
        cloud.server(2).fail()
        assert availability(cloud, [0, 1, 2]) == 63.0 < full

    def test_unknown_replica_ignored(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
        assert availability(cloud, [0, 1, 99]) == 63.0

    def test_duplicate_replicas_rejected(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0))
        with pytest.raises(AvailabilityError):
            availability(cloud, [0, 0])

    def test_adding_replica_never_decreases(self):
        cloud = cloud_with(
            (0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 1),
            (1, 0, 0, 0, 0, 0),
            (2, 0, 0, 0, 0, 0),
        )
        sets = [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3]]
        values = [availability(cloud, s) for s in sets]
        assert values == sorted(values)


class TestWithoutAndGain:
    def test_availability_without(self):
        cloud = cloud_with(
            (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)
        )
        total = availability(cloud, [0, 1, 2])
        without = availability_without(cloud, [0, 1, 2], 2)
        assert without == availability(cloud, [0, 1])
        assert without < total

    def test_without_requires_membership(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
        with pytest.raises(AvailabilityError):
            availability_without(cloud, [0, 1], 5)

    def test_pair_gain_matches_delta(self):
        cloud = cloud_with(
            (0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0), (2, 1, 0, 0, 0, 0)
        )
        before = availability(cloud, [0, 1])
        gain = pair_gain(cloud, [0, 1], 2)
        after = availability(cloud, [0, 1, 2])
        assert before + gain == pytest.approx(after)

    def test_pair_gain_candidate_must_be_new(self):
        cloud = cloud_with((0, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))
        with pytest.raises(AvailabilityError):
            pair_gain(cloud, [0, 1], 1)


def reference_pair_gain(cloud, server_ids, candidate, is_alive=None):
    """``pair_gain`` as it read the cloud before ISSUE 16: through the
    ``Server`` row views, one ``cloud.server`` / ``cloud.slot`` walk per
    pair.  Kept as the bit-identity reference for the column rewrite."""
    cand = cloud.server(candidate)
    if is_alive is None:
        if not cand.alive:
            return 0.0
    elif not is_alive(candidate):
        return 0.0
    gain = 0.0
    for sid in server_ids:
        if sid in cloud and (
            cloud.server(sid).alive if is_alive is None else is_alive(sid)
        ):
            gain += (
                cand.confidence
                * cloud.server(sid).confidence
                * cloud.diversity(candidate, sid)
            )
    return gain


def reference_contribution(cloud, server_id, servers, pred=None):
    """``AvailabilityIndex.contribution``'s pre-ISSUE-16 expression."""
    total = 0.0
    if server_id in cloud:
        me = cloud.server(server_id)
        if me.alive if pred is None else pred(server_id):
            for sid in servers:
                if sid != server_id and sid in cloud and (
                    cloud.server(sid).alive if pred is None else pred(sid)
                ):
                    total += (
                        me.confidence
                        * cloud.server(sid).confidence
                        * cloud.diversity(server_id, sid)
                    )
    return total


class TestColumnReadsAreBitIdentical:
    """Fractional confidences make every pair term a rounded float, so
    ``==`` here pins operand order, not just the math."""

    CONF = (0.97, 0.61, 0.83, 1.0, 0.35, 0.72, 0.9, 0.55, 0.41, 0.68)

    def build(self):
        cloud = Cloud()
        for i, conf in enumerate(self.CONF):
            cloud.add_servers([make_server(
                i, Location(i % 4, i % 3, i % 2, 0, i % 2, i),
                confidence=conf,
            )])
        cloud.server(3).fail()  # dead but still registered
        cloud.remove_server(6)  # gone: slots above it shifted left
        return cloud

    def sets(self):
        import itertools

        ids = [0, 1, 2, 3, 4, 5, 7, 8, 9, 6, 42]  # 6 and 42 unknown
        for r in (1, 2, 3, 5):
            for combo in itertools.islice(
                itertools.permutations(ids, r), 0, 400, 7
            ):
                yield list(combo)

    @pytest.mark.parametrize("believed", [False, True])
    def test_pair_gain(self, believed):
        cloud = self.build()
        pred = (lambda sid: sid % 4 != 1) if believed else None
        checked = 0
        for servers in self.sets():
            for cand in (0, 2, 3, 5, 9):
                if cand in servers:
                    continue
                got = pair_gain(cloud, servers, cand, is_alive=pred)
                want = reference_pair_gain(cloud, servers, cand, pred)
                assert got == want, (servers, cand)
                checked += got != 0.0
        assert checked > 100

    def test_pair_gain_unknown_candidate_raises_like_before(self):
        from repro.cluster.topology import TopologyError

        cloud = self.build()
        for fn in (pair_gain, reference_pair_gain):
            with pytest.raises(TopologyError):
                fn(cloud, [0, 1], 6)

    @pytest.mark.parametrize("believed", [False, True])
    def test_contribution(self, believed):
        from repro.core.availability import AvailabilityIndex

        cloud = self.build()
        pred = (lambda sid: sid % 4 != 1) if believed else None
        index = AvailabilityIndex(cloud)
        index.set_liveness(pred)
        checked = 0
        for n, servers in enumerate(self.sets()):
            for me in servers:
                got = index.contribution(("p", n), me, servers)
                want = reference_contribution(cloud, me, servers, pred)
                assert got == want, (servers, me)
                checked += got != 0.0
        assert checked > 100


class TestThresholds:
    def test_one_continent_each_is_the_upper_bound(self):
        """n replicas on n continents score C(n, 2) · 63, eq. 2's max."""
        cloud = cloud_with(*[(c, 0, 0, 0, 0, 0) for c in range(4)])
        for n in range(1, 5):
            assert availability(cloud, list(range(n))) == (
                comb(n, 2) * MAX_DIVERSITY
            )

    def test_paper_thresholds_sit_in_the_right_bands(self):
        th = paper_thresholds()
        continents = cloud_with(*[(c, 0, 0, 0, 0, 0) for c in range(3)])
        countries = cloud_with(*[(0, c, 0, 0, 0, 0) for c in range(3)])
        # Ring 1 (3 replicas): unreachable with 2, reachable with 3
        # cross-country replicas.
        assert th[3] > availability(continents, [0, 1])
        assert th[3] <= availability(countries, [0, 1, 2]) == (
            3 * CROSS_COUNTRY_DIVERSITY
        )
        # Ring 2 (4 replicas): unreachable with 3 even at max dispersion.
        assert th[4] > availability(continents, [0, 1, 2])

    def test_thresholds_increase_with_level(self):
        th = paper_thresholds()
        assert th[2] < th[3] < th[4]

