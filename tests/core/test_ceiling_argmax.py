"""The ceiling-certified eq. 3 argmax against the full scan (ISSUE 22).

``PlacementScorer.best`` answers most queries off the maximum-diversity
ceiling: the best feasible slot on a continent the replica set does not
touch, certified against every other slot's 63n − 32 cap.  The oracle
is ``PlacementScorer.scan`` — the full O(S) pass ``best`` used to be —
run on the *same* scorer, so both read one mutable state.  Drawn
clouds span 1–6 continents with non-uniform confidences, proximity
vectors (or none), rent spreads on both sides of the 32-point gap and
ids the cloud has already dropped; drawn scripts interleave queries
(with ``exclude`` / ``max_rent`` aimed at the unconstrained winner)
with ``consume_budget`` / ``release_storage``.  Every answer must equal
the scan's field for field, ``==`` on floats.

Tier-1 runs a derandomized budget; the ``slow`` twin explores a larger,
freshly drawn one (``scripts/verify_slow.sh``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.core.board import PriceBoard
from repro.core.placement import PlacementScorer

KINDS = ("replication", "migration")


def build(continents, confs, rents, removed=()):
    """One server per entry of ``continents``; ids in ``removed`` are
    dropped from the cloud again before the scorer is built."""
    cloud = Cloud()
    for i, (cont, conf) in enumerate(zip(continents, confs)):
        cloud.add_servers([make_server(
            i, Location(cont, i % 2, 0, 0, i % 3, i), confidence=conf,
            storage_capacity=(4_000, 6_500, 9_000)[i % 3],
            replication_budget=(900, 2_400)[i % 2],
            migration_budget=(600, 1_500)[(i // 2) % 2],
        )])
    for sid in removed:
        cloud.remove_server(sid)
    board = PriceBoard()
    board.post(0, {sid: rents[sid] for sid in cloud.server_ids})
    return cloud, PlacementScorer(cloud, board)


@st.composite
def clouds(draw):
    n = draw(st.integers(4, 16))
    n_cont = draw(st.integers(1, 6))
    continents = draw(st.lists(
        st.integers(0, n_cont - 1), min_size=n, max_size=n
    ))
    confs = draw(st.lists(
        st.sampled_from((1.0, 0.97, 0.5, 0.0)), min_size=n, max_size=n
    ))
    # Sub-dollar rents certify; a spread past 32·conf·g must refuse.
    spread = draw(st.sampled_from((0.4, 40.0, 400.0)))
    rents = draw(st.lists(
        st.floats(0.01, spread, allow_nan=False), min_size=n, max_size=n
    ))
    removed = draw(st.lists(
        st.integers(0, n - 1), max_size=2, unique=True
    ))
    # Index 0 is "no proximity vector"; the others keep one array each
    # alive for the whole script (entries are keyed by ``id(g)``).
    gs = [None] + [
        np.array(draw(st.lists(
            st.sampled_from((1.0, 0.6, 0.05, 1e-4)), min_size=n - len(removed),
            max_size=n - len(removed),
        )))
        for __ in range(draw(st.integers(0, 2)))
    ]
    return continents, confs, rents, removed, gs


@st.composite
def scripts(draw):
    sid = st.integers(0, 15)
    query = st.tuples(
        st.just("best"),
        st.lists(sid, max_size=5, unique=True),
        st.sampled_from((0, 500, 1_200)),
        st.sampled_from((None,) + KINDS),
        st.sampled_from((0.0, 0.1)),
        st.integers(0, 2),
        st.sampled_from(("free", "winner", "above", "drawn")),
        st.sampled_from(("free", "winner", "drawn")),
    )
    consume = st.tuples(
        st.just("consume"), sid, st.integers(1, 1_500),
        st.sampled_from(KINDS),
    )
    release = st.tuples(st.just("release"), sid, st.integers(1, 1_500))
    return draw(st.lists(
        st.one_of(query, query, consume, release), min_size=1, max_size=30
    ))


def run_script(cloud_args, script):
    continents, confs, rents, removed, gs = cloud_args
    cloud, scorer = build(continents, confs, rents, removed)
    live = cloud.server_ids
    for step in script:
        if step[0] == "consume":
            __, sid, nbytes, kind = step
            if sid in cloud:
                scorer.consume_budget(sid, nbytes, kind)
            continue
        if step[0] == "release":
            __, sid, nbytes = step
            if sid in cloud:
                scorer.release_storage(sid, nbytes)
            continue
        (__, replicas, need, budget, headroom, g_idx, cap_mode,
         excl_mode) = step
        # Replica ids past the cloud's size, and the removed ones, are
        # servers the scorer does not know.
        replicas = [sid for sid in replicas if sid < len(continents)]
        g = gs[g_idx % len(gs)]
        query = dict(need_bytes=need, g=g, budget=budget,
                     headroom_fraction=headroom)
        winner = scorer.scan(replicas, **query)
        if cap_mode == "winner" and winner is not None:
            query["max_rent"] = winner.rent  # equality: strict < drops it
        elif cap_mode == "above" and winner is not None:
            query["max_rent"] = math.nextafter(winner.rent, math.inf)
        elif cap_mode == "drawn":
            query["max_rent"] = rents[len(replicas) % len(rents)]
        if excl_mode == "winner" and winner is not None:
            query["exclude"] = (winner.server_id,)
        elif excl_mode == "drawn":
            query["exclude"] = (live[need % len(live)],)
        want = scorer.scan(replicas, **query)
        proofs = scorer.ceil_proofs
        got = scorer.best(replicas, **query)
        assert got == want, (step, got, want)
        if scorer.ceil_proofs > proofs:
            # A ceiling answer came from a certified entry, never from a
            # refused one.
            assert any(
                slot >= 0 and cand is got
                for __t, slot, cand in scorer._ceil.values()
            )


scenario = dict(cloud_args=clouds(), script=scripts())


@given(**scenario)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_best_equals_scan(cloud_args, script):
    run_script(cloud_args, script)


@pytest.mark.slow
@given(**scenario)
@settings(max_examples=4000, deadline=None)
def test_best_equals_scan_sweep(cloud_args, script):
    run_script(cloud_args, script)


# -- named cases the drawn space must not miss -------------------------------

FIVE = [0, 0, 1, 1, 2, 2, 3, 4]


def five(rents=None, **kwargs):
    rents = rents or [0.30, 0.05, 0.12, 0.11, 0.25, 0.26, 0.40, 0.41]
    return build(FIVE, [1.0] * len(FIVE), rents, **kwargs)


def test_certificate_answers_without_a_scan_and_survives_other_touches():
    cloud, scorer = five()
    first = scorer.best([0], need_bytes=100, budget="replication")
    assert first == scorer.scan([0], need_bytes=100, budget="replication")
    assert first.server_id == 3 and first.diversity_gain == 63.0
    assert (scorer.ceil_asks, scorer.ceil_proofs, scorer.ceil_builds) == (
        1, 1, 1
    )
    # Another set on the same continent, and a touch of a slot that is
    # not the winner, reuse the entry: no new build, no gain row.
    scorer.consume_budget(5, 100, "replication")
    assert scorer.best([1], need_bytes=100, budget="replication") is first
    assert scorer.ceil_builds == 1 and not scorer._gain_cache
    # Touching the winner forces a rebuild.
    scorer.consume_budget(3, 100, "replication")
    again = scorer.best([1], need_bytes=100, budget="replication")
    assert again == scorer.scan([1], need_bytes=100, budget="replication")
    assert scorer.ceil_builds == 2
    # Servers 0, 3 and 6 (4 000 bytes) are too small for 5 000; server 2
    # wins.  A release that re-enables a slot which cannot beat the
    # winner (6: rent 0.40 against 0.12) keeps the entry...
    query = dict(need_bytes=5_000)
    winner = scorer.best([1], **query)
    assert winner == scorer.scan([1], **query) and winner.server_id == 2
    scorer.release_storage(6, 1_500)
    assert scorer.best([1], **query) is winner
    assert scorer.ceil_builds == 3
    # ...and one that can (3: rent ≈ 0.11) rebuilds it.
    scorer.release_storage(3, 1_500)
    got = scorer.best([1], **query)
    assert got == scorer.scan([1], **query) and got.server_id == 3
    assert (scorer.ceil_builds_first, scorer.ceil_builds_winner,
            scorer.ceil_builds_release) == (2, 1, 1)


# -- what caused a build: one test per cause ---------------------------------


def causes(scorer):
    return (scorer.ceil_builds_first, scorer.ceil_builds_winner,
            scorer.ceil_builds_release)


def test_first_use_of_a_key_builds_once():
    cloud, scorer = five()
    for need in (100, 100, 200, 200):
        scorer.best([0], need_bytes=need)
    scorer.best([0, 2], need_bytes=100)  # two servers: another key
    assert causes(scorer) == (3, 0, 0)


def test_winner_touch_is_counted_before_a_release():
    """A touched winner rebuilds as ``winner`` even when a threatening
    release happened since: the touch alone forces the build."""
    cloud, scorer = five()
    query = dict(need_bytes=5_000)
    winner = scorer.best([1], **query)
    assert winner.server_id == 2
    scorer.release_storage(3, 1_500)   # would overtake 2
    scorer.consume_budget(2, 10, "migration")
    assert scorer.best([1], **query) == scorer.scan([1], **query)
    assert causes(scorer) == (1, 1, 0)


def test_release_threat_rebuilds_and_a_harmless_one_does_not():
    cloud, scorer = five()
    query = dict(need_bytes=5_000)
    winner = scorer.best([1], **query)
    scorer.release_storage(6, 1_500)   # feasible now, rent 0.40 > 0.12
    scorer.release_storage(0, 1_500)   # on B's continent: capped far below
    assert scorer.best([1], **query) is winner
    assert causes(scorer) == (1, 0, 0)
    scorer.release_storage(3, 1_500)   # rent 0.11 < 0.12: overtakes
    got = scorer.best([1], **query)
    assert got == scorer.scan([1], **query) and got.server_id == 3
    assert causes(scorer) == (1, 0, 1)


def test_refused_entry_rebuilds_on_any_release():
    """A refused entry may become certifiable once any slot is
    re-enabled, so every release since its stamp rebuilds it."""
    rents = [50.0, 1.0, 41.0, 41.5, 42.0, 42.5, 43.0, 43.5]
    cloud, scorer = five(rents)
    assert scorer.best([0], need_bytes=100) == scorer.scan([0],
                                                          need_bytes=100)
    scorer.release_storage(7, 1)
    assert scorer.best([0], need_bytes=100) == scorer.scan([0],
                                                          need_bytes=100)
    assert causes(scorer) == (1, 0, 1) and scorer.ceil_proofs == 0


def test_rent_spread_past_the_gap_refuses_and_never_answers():
    # Slot 1 shares server 0's continent (diversity 31 at best) but is
    # 40 cheaper than every off-continent slot: the scan picks it, the
    # certificate must refuse.
    rents = [50.0, 1.0, 41.0, 41.5, 42.0, 42.5, 43.0, 43.5]
    cloud, scorer = five(rents)
    for __ in range(3):
        got = scorer.best([0], need_bytes=100)
        assert got == scorer.scan([0], need_bytes=100)
        assert got.server_id == 1
    # One refused build serves all three queries; none was answered.
    assert (scorer.ceil_asks, scorer.ceil_proofs, scorer.ceil_builds) == (
        3, 0, 1
    )


def test_every_continent_occupied_or_unknown_server_goes_to_the_scan():
    cloud, scorer = five()
    full = [0, 2, 4, 6, 7]
    assert scorer.best(full, need_bytes=1) == scorer.scan(full, need_bytes=1)
    assert scorer.best([0, 99], need_bytes=1) == scorer.scan(
        [0, 99], need_bytes=1
    )
    assert (scorer.ceil_asks, scorer.ceil_proofs, scorer.ceil_builds) == (
        2, 0, 0
    )


def test_winner_excluded_or_capped_falls_through_but_keeps_the_entry():
    cloud, scorer = five()
    winner = scorer.best([0], need_bytes=1)
    for extra in (dict(exclude=(winner.server_id,)),
                  dict(max_rent=winner.rent)):
        got = scorer.best([0], need_bytes=1, **extra)
        assert got == scorer.scan([0], need_bytes=1, **extra)
        assert got.server_id != winner.server_id
    # A cap just above the winner's rent keeps it.
    cap = math.nextafter(winner.rent, math.inf)
    assert scorer.best([0], need_bytes=1, max_rent=cap) is winner
    assert (scorer.ceil_proofs, scorer.ceil_builds) == (2, 1)


def test_continent_ids_follow_the_cloud_version():
    cloud, __ = five()
    assert cloud.continent_ids().tolist() == FIVE
    cloud.remove_server(6)
    # Dense ids: continent 4 closes the gap continent 3 left.
    assert cloud.continent_ids().tolist() == [0, 0, 1, 1, 2, 2, 3]
