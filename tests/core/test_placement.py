"""Unit tests for eq. 3 placement scoring and eq. 4 proximity weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.board import PriceBoard
from repro.core.placement import (
    PlacementError,
    PlacementScorer,
    proximity_weights,
)
from repro.ring.keyspace import KeyRange
from repro.ring.partition import Partition, PartitionId
from repro.store.replica import ReplicaCatalog
from repro.store.transfer import TransferEngine
from repro.workload.clients import ClientGeography, uniform_geography


def build(locations, rents=None, storage=1000):
    cloud = Cloud()
    for i, loc in enumerate(locations):
        cloud.add_servers([
            make_server(i, Location(*loc), storage_capacity=storage)
        ])
    board = PriceBoard()
    prices = rents or {i: 1.0 for i in range(len(locations))}
    board.post(0, prices)
    return cloud, board


FOUR = [
    (0, 0, 0, 0, 0, 0),  # server 0
    (0, 0, 0, 0, 0, 1),  # server 1: same rack as 0
    (1, 0, 0, 0, 0, 0),  # server 2: other continent
    (2, 0, 0, 0, 0, 0),  # server 3: third continent
]


class TestProximityWeights:
    def test_uniform_geography_is_all_ones(self):
        cloud, __ = build(FOUR)
        g = proximity_weights(cloud, uniform_geography())
        assert np.allclose(g, 1.0)

    def test_hotspot_prefers_local_servers(self):
        cloud, __ = build(FOUR)
        site = Location(1, 0, 0, 0, 0, 0)
        geo = ClientGeography(sites=(site,), shares=(1.0,))
        g = proximity_weights(cloud, geo)
        assert g[cloud.slot(2)] == pytest.approx(1.0)  # local = max
        assert g[cloud.slot(0)] < g[cloud.slot(2)]

    def test_query_counts_override_shares(self):
        cloud, __ = build(FOUR)
        site_far = Location(2, 0, 0, 0, 0, 0)
        geo = ClientGeography(
            sites=(Location(1, 0, 0, 0, 0, 0),), shares=(1.0,)
        )
        g = proximity_weights(cloud, geo, query_counts={site_far: 10.0})
        assert g[cloud.slot(3)] == pytest.approx(1.0)

    def test_empty_cloud_rejected(self):
        with pytest.raises(PlacementError):
            proximity_weights(Cloud(), uniform_geography())


class TestScoring:
    def test_prefers_max_diversity(self):
        cloud, board = build(FOUR)
        scorer = PlacementScorer(cloud, board)
        # Replica on server 0: server 2/3 (other continents) beat 1.
        candidate = scorer.best([0], need_bytes=10)
        assert candidate.server_id in (2, 3)
        assert candidate.diversity_gain == 63.0

    def test_rent_breaks_ties(self):
        cloud, board = build(
            FOUR, rents={0: 1.0, 1: 1.0, 2: 3.0, 3: 2.0}
        )
        scorer = PlacementScorer(cloud, board)
        # Servers 2 and 3 tie on diversity (63); 3 is cheaper.
        candidate = scorer.best([0], need_bytes=10)
        assert candidate.server_id == 3
        assert candidate.rent == 2.0

    def test_scores_match_eq3(self):
        cloud, board = build(FOUR, rents={0: 1.0, 1: 0.5, 2: 2.0, 3: 1.5})
        scorer = PlacementScorer(cloud, board)
        __, scores = scorer._gain_and_scores([0, 2], None, None)
        # For server 3: div(0,3)=63, div(2,3)=63 -> 126 - 1.5
        assert scores[cloud.slot(3)] == pytest.approx(126 - 1.5)
        # For server 1: div(0,1)=1, div(2,1)=63 -> 64 - 0.5
        assert scores[cloud.slot(1)] == pytest.approx(64 - 0.5)

    def test_g_weights_scale_diversity_term(self):
        cloud, board = build(FOUR)
        scorer = PlacementScorer(cloud, board)
        g = np.ones(len(cloud))
        g[cloud.slot(3)] = 0.01  # server 3 far from clients
        candidate = scorer.best([0], need_bytes=10, g=g)
        assert candidate.server_id == 2

    def test_rent_weight_scales_cost_term(self):
        cloud, board = build(FOUR, rents={0: 1.0, 1: 1.0, 2: 70.0, 3: 1.0})
        # With rent_weight=1, server 2's rent (70) exceeds its diversity
        # edge over server 1 (63 vs 1): best is server 3 (63 - 1).
        scorer = PlacementScorer(cloud, board, rent_weight=1.0)
        assert scorer.best([0], need_bytes=1).server_id == 3
        # With rent_weight=0 cost vanishes; 2 and 3 tie, argmax stable.
        free = PlacementScorer(cloud, board, rent_weight=0.0)
        assert free.best([0], need_bytes=1).server_id in (2, 3)


class TestFeasibilityMasks:
    def test_existing_replicas_excluded(self):
        cloud, board = build(FOUR)
        scorer = PlacementScorer(cloud, board)
        candidate = scorer.best([0, 2, 3], need_bytes=10)
        assert candidate.server_id == 1

    def test_storage_mask(self):
        cloud, board = build(FOUR, storage=100)
        cloud.server(2).allocate_storage(95)
        cloud.server(3).allocate_storage(95)
        scorer = PlacementScorer(cloud, board)
        candidate = scorer.best([0], need_bytes=50)
        assert candidate.server_id == 1  # only one with space

    def test_dead_server_mask(self):
        cloud, board = build(FOUR)
        cloud.server(2).fail()
        cloud.server(3).fail()
        scorer = PlacementScorer(cloud, board)
        assert scorer.best([0], need_bytes=1).server_id == 1

    def test_max_rent_mask(self):
        cloud, board = build(FOUR, rents={0: 1.0, 1: 0.4, 2: 2.0, 3: 0.9})
        scorer = PlacementScorer(cloud, board)
        candidate = scorer.best([0], need_bytes=1, max_rent=1.0)
        assert candidate.server_id in (1, 3)
        assert candidate.rent < 1.0

    def test_explicit_exclude(self):
        cloud, board = build(FOUR)
        scorer = PlacementScorer(cloud, board)
        candidate = scorer.best([0], need_bytes=1, exclude=(2, 3))
        assert candidate.server_id == 1

    def test_no_feasible_candidate(self):
        cloud, board = build(FOUR, storage=10)
        scorer = PlacementScorer(cloud, board)
        assert scorer.best([0], need_bytes=100) is None

    def test_budget_mask(self):
        cloud, board = build(FOUR)
        cloud.server(2).replication_budget.reserve(
            cloud.server(2).replication_budget.capacity
        )
        cloud.server(3).replication_budget.reserve(
            cloud.server(3).replication_budget.capacity
        )
        scorer = PlacementScorer(cloud, board)
        candidate = scorer.best([0], need_bytes=10, budget="replication")
        assert candidate.server_id == 1

    def test_unknown_budget_kind(self):
        cloud, board = build(FOUR)
        scorer = PlacementScorer(cloud, board)
        with pytest.raises(PlacementError):
            scorer.best([0], need_bytes=1, budget="teleport")


class TestIncrementalCaches:
    def test_consume_budget_masks_for_later_calls(self):
        cloud, board = build(FOUR)
        scorer = PlacementScorer(cloud, board)
        first = scorer.best([0], need_bytes=10, budget="replication")
        # Exhaust the winner's cached budget; next call must avoid it.
        scorer.consume_budget(first.server_id, 10**12, "replication")
        second = scorer.best([0], need_bytes=10, budget="replication")
        assert second.server_id != first.server_id

    def test_consume_budget_updates_storage_mask(self):
        cloud, board = build(FOUR, storage=100)
        scorer = PlacementScorer(cloud, board)
        first = scorer.best([0], need_bytes=60)
        scorer.consume_budget(first.server_id, 60, "replication")
        second = scorer.best([0], need_bytes=60)
        assert second is None or second.server_id != first.server_id

    def test_release_storage_unmasks(self):
        cloud, board = build(FOUR, storage=100)
        scorer = PlacementScorer(cloud, board)
        scorer.consume_budget(2, 100, "replication")
        scorer.consume_budget(3, 100, "replication")
        scorer.consume_budget(1, 100, "replication")
        assert scorer.best([0], need_bytes=50) is None
        scorer.release_storage(3, 100)
        assert scorer.best([0], need_bytes=50).server_id == 3

    def test_rent_column_follows_the_board(self):
        cloud, board = build(FOUR, rents={0: 0.1, 1: 0.2, 2: 0.3, 3: 0.4})
        scorer = PlacementScorer(cloud, board)
        assert rent_of(scorer, 2) == pytest.approx(0.3)
        with pytest.raises(PlacementError):
            scorer._slot(99)


class TestClassKeyedGainCache:
    def test_gain_cache_shared_across_same_class_keys(self):
        cloud, board = build(FOUR)
        scorer = PlacementScorer(cloud, board)
        a = scorer._diversity_gain([0, 2], cache_key=("p1", (0, 2)))
        before = scorer.class_gain_reuses
        b = scorer._diversity_gain([2, 0], cache_key=("p2", (2, 0)))
        assert scorer.class_gain_reuses == before + 1
        assert len(scorer._gain_cache) == 1
        assert a.tolist() == b.tolist()

    def test_orderings_of_one_location_multiset_are_bit_identical(self):
        """Server 4 shares server 2's location, so ``[0, 2, 3]`` and
        ``[3, 4, 0]`` are one placement class: the second ordering is
        served the first one's gain row, and that row is bit-identical
        to a fresh, uncached sum over the second ordering."""
        cloud = Cloud()
        for i, (loc, conf) in enumerate(zip(
            FOUR + [FOUR[2]], (0.97, 1.0, 0.5, 0.3, 0.7)
        )):
            cloud.add_servers([make_server(
                i, Location(*loc), confidence=conf, storage_capacity=1000
            )])
        board = PriceBoard()
        board.post(0, {i: 1.0 for i in range(5)})
        cached = PlacementScorer(cloud, board)
        fresh = PlacementScorer(cloud, board)
        first = cached._diversity_gain([0, 2, 3], cache_key=("p", (0, 2, 3)))
        second = cached._diversity_gain([3, 4, 0], cache_key=("q", (3, 4, 0)))
        assert second is first and cached.class_gain_reuses == 1
        uncached = fresh._diversity_gain([3, 4, 0])
        assert not fresh._gain_cache
        assert second.tobytes() == uncached.tobytes()

    def test_unknown_server_falls_back_to_raw_key(self):
        cloud, board = build(FOUR)
        scorer = PlacementScorer(cloud, board)
        key = ("p", (0, 99))
        scorer._diversity_gain([0, 99], cache_key=key)
        assert scorer._class_key([0, 99], key) == ("raw", key)
        assert ("raw", key) in scorer._gain_cache


def large_cloud(rng, n=300):
    """``n`` servers over three continents and few distinct locations
    (so placement classes are shared), with fractional confidences and
    sub-dollar rents."""
    cloud = Cloud()
    for i in range(n):
        cloud.add_servers([make_server(
            i, Location(int(rng.integers(3)), int(rng.integers(2)), 0,
                        int(rng.integers(2)), 0, int(rng.integers(3))),
            confidence=float(rng.choice((1.0, 0.97, 0.5))),
            storage_capacity=int(rng.integers(2_000, 9_000)),
            replication_budget=int(rng.integers(500, 3_000)),
            migration_budget=int(rng.integers(500, 3_000)),
        )])
    board = PriceBoard()
    board.post(0, {i: float(rng.uniform(0.05, 0.5)) for i in range(n)})
    return cloud, board


class TestLargeCloudEquivalence:
    """``best`` against ``scan`` on a cloud past 256 servers.

    ``fast`` answers with everything ``best`` has — the ceiling
    certificate, its scan fallback and the class-keyed gain cache —
    while ``ref`` runs the uncached scan on a twin scorer kept in the
    same state.  Repair chains append each accepted candidate to the
    replica set; sibling partitions ask for the same set under their
    own keys; random transfers and releases move the rents and masks.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_best_equals_scan_through_chains_and_transfers(self, seed):
        rng = np.random.default_rng(seed)
        cloud, board = large_cloud(rng)
        n = len(cloud)
        fast = PlacementScorer(cloud, board)
        ref = PlacementScorer(cloud, board)
        g_vec = rng.choice((1.0, 0.6, 0.05), size=n)
        answered = 0
        for chain in range(30):
            servers = [int(rng.integers(n))]
            g = g_vec if chain % 2 else None
            for step in range(int(rng.integers(1, 6))):
                for __ in range(int(rng.integers(3))):
                    sid = int(rng.integers(n))
                    nbytes = int(rng.integers(1, 800))
                    if rng.random() < 0.7:
                        kind = ("replication", "migration")[
                            int(rng.integers(2))
                        ]
                        for scorer in (fast, ref):
                            scorer.consume_budget(sid, nbytes, kind)
                    else:
                        for scorer in (fast, ref):
                            scorer.release_storage(sid, nbytes)
                query = dict(
                    need_bytes=int(rng.integers(50, 400)), g=g,
                    budget="replication",
                    headroom_fraction=float(rng.choice((0.0, 0.1))),
                )
                for pid in (chain, ("sibling", chain)):
                    got = fast.best(
                        servers, cache_key=(pid, tuple(servers)), **query
                    )
                    want = ref.scan(servers, **query)
                    assert got == want, (chain, step, pid)
                if got is None:
                    break
                answered += 1
                servers.append(got.server_id)
                for scorer in (fast, ref):
                    scorer.consume_budget(
                        got.server_id, query["need_bytes"], "replication"
                    )
        assert answered
        assert 0 < fast.ceil_proofs < fast.ceil_asks
        assert fast.class_gain_reuses and not ref._gain_cache

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_migration_hunts_with_exclusions_and_rent_caps(self, seed):
        """Hunts aim ``exclude`` and ``max_rent`` at the unconstrained
        winner, so a certified answer is ruled out and ``best`` must
        fall through to the scan exactly as the scan itself would."""
        rng = np.random.default_rng(100 + seed)
        cloud, board = large_cloud(rng)
        n = len(cloud)
        fast = PlacementScorer(cloud, board)
        ref = PlacementScorer(cloud, board)
        hunts = 0
        for hunt in range(60):
            servers = rng.choice(n, size=int(rng.integers(1, 4)),
                                 replace=False).tolist()
            query = dict(need_bytes=int(rng.integers(50, 400)),
                         budget="migration", headroom_fraction=0.1)
            key = (hunt, tuple(servers))
            top = ref.scan(servers, **query)
            if top is None:
                continue
            for extra in (
                dict(exclude=(top.server_id,)),
                dict(max_rent=top.rent),
                dict(max_rent=float(np.nextafter(top.rent, np.inf))),
            ):
                got = fast.best(servers, cache_key=key, **query, **extra)
                assert got == ref.scan(servers, **query, **extra), extra
                hunts += 1
            fast.consume_budget(top.server_id, query["need_bytes"],
                                "migration")
            ref.consume_budget(top.server_id, query["need_bytes"],
                               "migration")
        assert hunts and fast.ceil_proofs < fast.ceil_asks


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_release_rule_through_random_interleavings(self, seed):
        """Random ``consume_budget`` / ``release_storage`` / ``best``
        interleavings, with ``g``, ``exclude`` and ``max_rent``: needs
        past some servers' capacity keep slots masked until a release
        re-enables them, so releases both overtake certified winners
        and leave them standing — and every answer must equal the
        uncached scan field for field."""
        rng = np.random.default_rng(200 + seed)
        cloud, board = large_cloud(rng)
        n = len(cloud)
        fast = PlacementScorer(cloud, board)
        ref = PlacementScorer(cloud, board)
        gs = (None, rng.choice((1.0, 0.6, 0.05), size=n))
        for step in range(600):
            roll = rng.random()
            sid = int(rng.integers(n))
            if roll < 0.25:
                nbytes = int(rng.integers(1, 3_000))
                kind = ("replication", "migration")[int(rng.integers(2))]
                for scorer in (fast, ref):
                    scorer.consume_budget(sid, nbytes, kind)
                continue
            if roll < 0.45:
                nbytes = int(rng.integers(1, 4_000))
                for scorer in (fast, ref):
                    scorer.release_storage(sid, nbytes)
                continue
            servers = rng.choice(n, size=int(rng.integers(1, 3)),
                                 replace=False).tolist()
            query = dict(
                need_bytes=int(rng.choice((100, 4_000, 7_000))),
                g=gs[int(rng.integers(2))],
                budget=(None, "replication")[int(rng.integers(2))],
                headroom_fraction=float(rng.choice((0.0, 0.1))),
            )
            top = ref.scan(servers, **query)
            aim = rng.random()
            if top is not None and aim < 0.2:
                query["exclude"] = (top.server_id,)
            elif top is not None and aim < 0.4:
                query["max_rent"] = float(
                    np.nextafter(top.rent, (-np.inf, np.inf)[step % 2])
                )
            got = fast.best(servers, **query)
            assert got == ref.scan(servers, **query), (step, query)
        assert fast.ceil_builds_release and fast.ceil_proofs
        assert fast.ceil_builds_winner and fast.ceil_builds_first


class TestSourceDebit:
    @pytest.mark.xfail(strict=True, reason=(
        "the scorer's budget mirror debits destinations only "
        "(consume_budget), while TransferBatch reserves at both ends "
        "(ROADMAP: source-debit defect)"
    ))
    def test_feasible_mask_agrees_with_the_batch_after_a_source_reservation(
        self
    ):
        cloud = Cloud()
        for i in range(3):
            cloud.add_servers([make_server(
                i, Location(i, 0, 0, 0, 0, 0), storage_capacity=1_000,
                replication_budget=150,
            )])
        board = PriceBoard()
        board.post(0, {sid: 0.1 for sid in cloud.server_ids})
        scorer = PlacementScorer(cloud, board)
        catalog = ReplicaCatalog(cloud)
        partition = Partition(PartitionId(0, 0, 0), KeyRange(0, 10), 100,
                              10_000)
        catalog.place(partition, 0)
        batch = TransferEngine(cloud, catalog).open_batch()
        size = partition.size
        # The repair's ``best`` builds the mask, the intent queues, and
        # the pass mirrors the intent's destination into the scorer.
        mask = scorer.feasible_mask(size, "replication")
        assert batch.add_replication(partition, 0, 1) is None
        scorer.consume_budget(1, size, "replication")
        assert not mask[1]
        assert mask.tolist() == [
            batch.budget_available(sid) >= size for sid in cloud.server_ids
        ]


class TestFrozenBenchmarkNames:
    def test_retired_names_still_resolve_and_stay_inert(self):
        """``benchmarks/e2e`` wraps ``preload_shortlists`` as a span site
        and reads ``class_div_extends`` off every scorer; both survive as
        names only, and neither moves while the scorer works."""
        cloud, board = large_cloud(np.random.default_rng(9))
        scorer = PlacementScorer(cloud, board)
        assert scorer.preload_shortlists([((0,), np.array([0]), None)]) is (
            None
        )
        for servers in ([0], [0, 1], [1, 0], [0, 1, 2]):
            scorer.scan(servers, need_bytes=10,
                        cache_key=("p", tuple(servers)))
        assert scorer.class_div_extends == 0
        assert scorer.class_gain_reuses == 1


# -- clocked rent floors (ISSUE 16) ------------------------------------------


def floor_cloud():
    """Twelve servers, mixed capacities, rents and bandwidth budgets."""
    cloud = Cloud()
    prices = {}
    for i in range(12):
        cloud.add_servers([make_server(
            i, Location(i % 4, i % 2, 0, 0, i % 3, i),
            monthly_rent=100.0 + 25.0 * (i % 2),
            storage_capacity=(4_000, 6_500, 9_000)[i % 3],
            replication_budget=(900, 2_400)[i % 2],
            migration_budget=(600, 1_500)[(i // 2) % 2],
        )])
        prices[i] = 0.05 + 0.013 * ((i * 7) % 12)
    board = PriceBoard()
    board.post(0, prices)
    return cloud, board


#: (need_bytes, budget, headroom_fraction) feasibility keys the floor
#: tests exercise — the §II-C pass's two shapes plus a no-headroom one.
FLOOR_KEYS = (
    (500, "migration", 0.1),
    (500, "replication", 0.1),
    (1_200, "replication", 0.0),
)


def rent_of(scorer, server_id):
    """One server's entry in the scorer's rent column."""
    return float(scorer._rents[scorer._slot(server_id)])


def reference_min(scorer, key, bump_bytes):
    """min over the key's cached mask of rent (+ scalar eq. 1 bump)."""
    need, budget, headroom = key
    mask = scorer.feasible_mask(need, budget, headroom)
    values = [
        rent_of(scorer, sid) + (
            scorer.anticipated_rent_bump(sid, bump_bytes)
            if bump_bytes else 0.0
        )
        for sid, ok in zip(scorer.server_ids, mask.tolist()) if ok
    ]
    return min(values) if values else float("inf")


floor_steps = st.lists(
    st.one_of(
        st.tuples(st.just("consume"), st.integers(0, 11),
                  st.integers(1, 1_500),
                  st.sampled_from(("replication", "migration"))),
        st.tuples(st.just("release"), st.integers(0, 11),
                  st.integers(1, 1_500), st.none()),
    ),
    min_size=1, max_size=40,
)


class TestRentFloor:
    @given(floor_steps)
    @settings(max_examples=60, deadline=None)
    def test_floor_is_sound_after_every_transfer(self, steps):
        cloud, board = floor_cloud()
        scorer = PlacementScorer(cloud, board)
        for key in FLOOR_KEYS:  # mint every mask + a first stored bound
            scorer.rent_floor(*key)
            scorer.rent_floor(*key, key[0])
        for op, sid, nbytes, kind in steps:
            if op == "consume":
                scorer.consume_budget(sid, nbytes, kind)
            else:
                scorer.release_storage(sid, nbytes)
            for key in FLOOR_KEYS:
                need, budget, headroom = key
                for bump in (0, need):
                    want = reference_min(scorer, key, bump)
                    # (a) stored bound valid, fresh bound exact.
                    assert scorer.rent_floor(*key, bump) <= want
                    assert scorer.rent_floor(*key, bump, fresh=True) == want
                # (b) a cap at the floor leaves nothing to find; one ulp
                # above the exact floor there is a candidate again.
                floor = scorer.rent_floor(*key)
                assert scorer.no_cheaper_host(floor, *key)
                assert scorer.best(
                    [], need_bytes=need, max_rent=floor, budget=budget,
                    headroom_fraction=headroom,
                ) is None
                exact = scorer.rent_floor(*key, fresh=True)
                if exact < float("inf"):
                    above = float(np.nextafter(exact, np.inf))
                    assert not scorer.no_cheaper_host(above, *key)
                    found = scorer.best(
                        [], need_bytes=need, max_rent=above, budget=budget,
                        headroom_fraction=headroom,
                    )
                    assert found is not None and found.rent == exact

    def test_bumped_floor_bounds_every_predicted_rent(self):
        """The §II-C funding test reads ``candidate.rent + bump``; the
        bumped floor must sit at or below it for *every* server, through
        a pass worth of transfers (the old static-floor contract)."""
        cloud, board = floor_cloud()
        scorer = PlacementScorer(cloud, board)
        size = 700
        key = (size, "replication", 0.1)
        rng = np.random.default_rng(3)
        for __ in range(40):
            scorer.consume_budget(
                int(rng.integers(12)), int(rng.integers(1, 900)),
                "replication",
            )
            floor = scorer.rent_floor(*key, size)
            mask = scorer.feasible_mask(*key)
            for sid, ok in zip(scorer.server_ids, mask.tolist()):
                if ok:
                    predicted = rent_of(scorer, sid) + (
                        scorer.anticipated_rent_bump(sid, size)
                    )
                    assert predicted >= floor
                    assert predicted + 0.37 >= floor + 0.37

    def test_stale_bound_dies_with_a_storage_release(self):
        """Fill the cheapest server until it drops out of the mask, let
        the floor rise, then free its storage: the stored (now too
        high) bound must not survive the re-enabling event."""
        cloud, board = floor_cloud()
        # α = 0: no eq. 1 bump, so the filled server stays the cheapest.
        scorer = PlacementScorer(cloud, board, storage_alpha=0.0)
        key = (500, "replication", 0.0)
        cheapest = min(scorer.server_ids,
                       key=lambda sid: rent_of(scorer, sid))
        low = scorer.rent_floor(*key)
        assert low == rent_of(scorer, cheapest)
        room = int(scorer._storage[scorer._slot(cheapest)])
        scorer.consume_budget(cheapest, room - 100, "migration")
        high = scorer.rent_floor(*key, fresh=True)
        assert high > low
        cap = (low + high) / 2
        assert scorer.no_cheaper_host(cap, *key)
        scorer.release_storage(cheapest, room - 100)
        assert scorer.rent_floor(*key) == rent_of(scorer, cheapest)
        assert not scorer.no_cheaper_host(cap, *key)
        assert scorer.best(
            [], need_bytes=500, max_rent=cap, budget="replication",
        ).server_id == cheapest

    def test_empty_mask_floors_at_infinity(self):
        cloud, board = floor_cloud()
        scorer = PlacementScorer(cloud, board)
        key = (10_000, "replication", 0.0)  # larger than any capacity
        assert scorer.rent_floor(*key) == float("inf")
        assert scorer.no_cheaper_host(1e9, *key)
        assert scorer.no_fundable_host(1e9, 0.0, *key)

    def test_proof_counters(self):
        cloud, board = floor_cloud()
        scorer = PlacementScorer(cloud, board)
        key = (500, "replication", 0.1)
        assert scorer.no_cheaper_host(0.0, *key)
        assert not scorer.no_cheaper_host(1e9, *key)
        assert not scorer.no_fundable_host(1e9, 0.0, *key)
        assert (scorer.floor_asks, scorer.floor_proofs) == (3, 1)


class TestInternedClassKeys:
    def test_same_partition_into_classes_as_sorted_locations(self):
        """500 random replica sets: two sets share an interned-id class
        key exactly when their sorted ``Location`` tuples are equal."""
        cloud = Cloud()
        rng = np.random.default_rng(5)
        for i in range(60):
            # Few distinct locations, so many servers share one.
            cloud.add_servers([make_server(
                i, Location(int(rng.integers(3)), int(rng.integers(2)),
                            0, 0, int(rng.integers(2)), 0),
                storage_capacity=1000,
            )])
        board = PriceBoard()
        board.post(0, {i: 1.0 for i in range(60)})
        scorer = PlacementScorer(cloud, board)
        by_ids, by_locs = {}, {}
        for n in range(500):
            servers = rng.choice(
                60, size=int(rng.integers(1, 6)), replace=False
            ).tolist()
            ckey = scorer._class_key(servers, ("p", n, tuple(servers)))
            assert ckey[0] == "cls"
            lkey = tuple(sorted(
                cloud.server(sid).location for sid in servers
            ))
            by_ids.setdefault(ckey, set()).add(n)
            by_locs.setdefault(lkey, set()).add(n)
        assert sorted(map(sorted, by_ids.values())) == sorted(
            map(sorted, by_locs.values())
        )
        assert len(by_ids) < 500  # the sample did share classes

    def test_location_ids_follow_the_cloud_version(self):
        cloud, __ = build(FOUR)

        def same_id_iff_same_location():
            ids = cloud.location_ids().tolist()
            locs = cloud.locations
            assert len(ids) == len(cloud)
            for a in range(len(ids)):
                for b in range(len(ids)):
                    assert (ids[a] == ids[b]) == (locs[a] == locs[b])
            return ids

        assert len(set(same_id_iff_same_location())) == 4
        cloud.add_servers([make_server(
            9, Location(*FOUR[2]), storage_capacity=1000
        )])
        grown = same_id_iff_same_location()
        assert grown[-1] == grown[2] and len(set(grown)) == 4
        cloud.remove_server(0)
        assert len(set(same_id_iff_same_location())) == 3
