"""Unit tests for the faulty control-plane network model."""

from itertools import compress

import numpy as np
import pytest

from repro.cluster.topology import CloudLayout, build_cloud
from repro.net.model import (
    HEARTBEAT,
    MESSAGE_CODES,
    PRICE,
    LinkFlap,
    MessageStats,
    NetConfig,
    NetError,
    NetPartition,
    NetworkModel,
)


def tiny_layout():
    return CloudLayout(
        countries=2,
        countries_per_continent=1,
        datacenters_per_country=1,
        rooms_per_datacenter=1,
        racks_per_room=1,
        servers_per_rack=5,
    )


def sides(net, ids):
    """``ids`` split by the one active cut: (side A, side B)."""
    _, ((in_a, _),) = net.link_state(ids)
    flags = in_a.tolist()
    return (list(compress(ids, flags)),
            [s for s, f in zip(ids, flags) if not f])


def make_net(config, cloud=None, seed=0):
    cloud = cloud if cloud is not None else build_cloud(tiny_layout())
    return NetworkModel(config, cloud, np.random.default_rng(seed)), cloud


class TestNetConfigValidation:
    def test_defaults_are_zero_fault(self):
        assert NetConfig().is_zero_fault

    def test_loss_makes_faulty(self):
        assert not NetConfig(loss=0.1).is_zero_fault

    def test_schedules_make_faulty(self):
        cut = NetPartition(start=1, heal=3, depth=2)
        assert not NetConfig(partitions=(cut,)).is_zero_fault
        flap = LinkFlap(start=1, heal=3)
        assert not NetConfig(flaps=(flap,)).is_zero_fault

    def test_loss_bounds(self):
        with pytest.raises(NetError):
            NetConfig(loss=1.0)
        with pytest.raises(NetError):
            NetConfig(loss=-0.1)

    def test_dead_rounds_positive(self):
        with pytest.raises(NetError):
            NetConfig(dead_rounds=0)

    def test_partition_epochs(self):
        with pytest.raises(NetError):
            NetPartition(start=5, heal=5, depth=2)
        with pytest.raises(NetError):
            NetPartition(start=0, heal=2, depth=0)

    def test_flap_epochs(self):
        with pytest.raises(NetError):
            LinkFlap(start=3, heal=3)


class TestMessageStats:
    def test_record_and_snapshot(self):
        stats = MessageStats()
        stats.record(HEARTBEAT, sent=5, delivered=3, dropped_loss=2)
        snap = stats.snapshot()
        assert snap[HEARTBEAT] == (5, 3, 2, 0)
        assert sum(row[0] for row in snap.values()) == 5

    def test_unknown_code_is_refused(self):
        with pytest.raises(KeyError):
            MessageStats().record("GOSSIP", sent=1)

    def test_epoch_counts_are_deltas(self):
        stats = MessageStats()
        stats.record(PRICE, sent=4, delivered=4)
        stats.begin_epoch()
        stats.record(PRICE, sent=2, delivered=1, dropped_partition=1)
        counts = stats.epoch_counts()
        assert counts[PRICE] == (2, 1, 0, 1)
        assert set(counts) == set(MESSAGE_CODES)


class TestScheduleDraws:
    """``begin_epoch`` draws only to materialize a due cut or flap."""

    def test_no_schedule_no_draw(self):
        cloud = build_cloud(tiny_layout())
        rng = np.random.default_rng(3)
        net = NetworkModel(NetConfig(loss=0.2), cloud, rng)
        for epoch in range(5):
            net.begin_epoch(epoch)
        assert rng.bit_generator.state == (
            np.random.default_rng(3).bit_generator.state
        )
        assert not net.has_active_cut

    def test_window_already_over_is_skipped_without_a_draw(self):
        cloud = build_cloud(tiny_layout())
        rng = np.random.default_rng(3)
        config = NetConfig(
            partitions=(NetPartition(start=0, heal=2, depth=2),),
            flaps=(LinkFlap(start=1, heal=3),),
        )
        net = NetworkModel(config, cloud, rng)
        net.begin_epoch(5)  # both windows closed before the first call
        assert not net.has_active_cut
        assert rng.bit_generator.state == (
            np.random.default_rng(3).bit_generator.state
        )


class TestPartitions:
    def test_cut_blocks_cross_country_both_ways(self):
        cut = NetPartition(start=0, heal=5, depth=2)
        net, cloud = make_net(NetConfig(partitions=(cut,)))
        net.begin_epoch(0)
        assert net.has_active_cut
        ids = cloud.server_ids
        country = {
            sid: cloud.server(sid).location.prefix(2) for sid in ids
        }
        a = [s for s in ids if country[s] == country[ids[0]]]
        b = [s for s in ids if country[s] != country[ids[0]]]
        assert a and b
        assert not net.reachable(a[0], b[0])
        assert not net.reachable(b[0], a[0])
        assert net.reachable(a[0], a[-1])
        assert net.reachable(b[0], b[-1])

    def test_asymmetric_cut_blocks_only_into_side_a(self):
        cut = NetPartition(
            start=0, heal=5, depth=2, asymmetric=True
        )
        net, cloud = make_net(NetConfig(partitions=(cut,)))
        net.begin_epoch(0)
        ids = cloud.server_ids
        a, b = sides(net, ids)
        assert a and b
        # A's outbound crosses; B→A drops.
        assert net.reachable(a[0], b[0])
        assert not net.reachable(b[0], a[0])

    def test_cut_heals_at_heal_epoch(self):
        cut = NetPartition(start=1, heal=3, depth=2)
        net, cloud = make_net(NetConfig(partitions=(cut,)))
        net.begin_epoch(0)
        assert not net.has_active_cut
        net.begin_epoch(1)
        assert net.has_active_cut
        net.begin_epoch(2)
        assert net.has_active_cut
        net.begin_epoch(3)
        assert not net.has_active_cut
        ids = cloud.server_ids
        assert net.reachable(ids[0], ids[-1])

    def test_pivot_draw_is_seeded(self):
        cut = NetPartition(start=0, heal=4, depth=2)
        drawn = []
        for _ in range(2):
            net, cloud = make_net(NetConfig(partitions=(cut,)), seed=7)
            net.begin_epoch(0)
            drawn.append(sides(net, cloud.server_ids)[0])
        assert drawn[0] == drawn[1]


class TestFlaps:
    def test_flap_cuts_both_directions(self):
        flap = LinkFlap(start=0, heal=2)
        net, cloud = make_net(NetConfig(flaps=(flap,)))
        net.begin_epoch(0)
        flapped, _ = net.link_state(cloud.server_ids)
        (victim,) = compress(cloud.server_ids, flapped.tolist())
        other = next(s for s in cloud.server_ids if s != victim)
        assert not net.reachable(victim, other)
        assert not net.reachable(other, victim)
        # The victim's process is untouched — only its links are cut.
        assert cloud.server(victim).alive
        net.begin_epoch(2)
        assert net.reachable(victim, other)

    def test_a_server_always_reaches_itself(self):
        flap = LinkFlap(start=0, heal=2)
        net, cloud = make_net(NetConfig(flaps=(flap,)))
        net.begin_epoch(0)
        flapped, _ = net.link_state(cloud.server_ids)
        (victim,) = compress(cloud.server_ids, flapped.tolist())
        assert net.reachable(victim, victim)


class TestLinkState:
    """``link_state`` is ``reachable`` for a whole round, as columns."""

    def test_none_while_healthy(self):
        cut = NetPartition(start=1, heal=2, depth=2)
        net, cloud = make_net(NetConfig(partitions=(cut,)))
        net.begin_epoch(0)
        assert net.link_state(cloud.server_ids) is None
        net.begin_epoch(1)
        assert net.link_state(cloud.server_ids) is not None
        net.begin_epoch(2)
        assert net.link_state(cloud.server_ids) is None

    @pytest.mark.parametrize("removed", [0, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_columns_agree_with_reachable_pair_by_pair(self, seed, removed):
        """Also after ``removed`` servers leave the cloud once every
        side is cached: gone ids read as side B both ways."""
        config = NetConfig(
            partitions=(
                NetPartition(0, 5, depth=2, asymmetric=bool(seed % 2)),
                NetPartition(0, 5, depth=5, asymmetric=seed % 3 == 0),
            ),
            flaps=(LinkFlap(0, 5),),
        )
        net, cloud = make_net(config, seed=seed)
        net.begin_epoch(0)
        ids = cloud.server_ids[::-1]  # any order, not just slot order
        net.link_state(ids)
        rng = np.random.default_rng(seed)
        for sid in rng.choice(ids, size=removed, replace=False).tolist():
            cloud.remove_server(sid)
        flapped, cuts = net.link_state(ids)
        assert len(cuts) == 2 and flapped.sum() == 1
        for i, src in enumerate(ids):
            for j, dst in enumerate(ids):
                if i == j:
                    continue
                dropped = flapped[i] or flapped[j] or any(
                    in_a[i] != in_a[j] and (not asymmetric or in_a[j])
                    for in_a, asymmetric in cuts
                )
                assert dropped == (not net.reachable(src, dst)), (src, dst)

    def test_ids_gone_from_the_cloud_read_as_side_b(self):
        cut = NetPartition(start=0, heal=5, depth=2)
        net, cloud = make_net(NetConfig(partitions=(cut,)))
        net.begin_epoch(0)
        gone = cloud.server_ids[0]
        cloud.remove_server(gone)
        _, ((in_a, _),) = net.link_state([gone] + cloud.server_ids)
        assert not in_a[0] and in_a[1:].any()

    @pytest.mark.parametrize("asymmetric", [False, True])
    @pytest.mark.parametrize("gone_sends", [False, True])
    def test_reachable_reads_gone_ids_as_side_b(self, asymmetric,
                                                gone_sends):
        """``reachable`` shares ``link_state``'s convention: a pair with
        a gone end is judged as if that end sat on side B."""
        cut = NetPartition(0, 5, depth=2, asymmetric=asymmetric)
        net, cloud = make_net(NetConfig(partitions=(cut,)))
        net.begin_epoch(0)
        a, b = sides(net, cloud.server_ids)
        gone = b[0]
        cloud.remove_server(gone)
        pairs = {"a": a[0], "b": b[1]}
        for side, peer in pairs.items():
            src, dst = (gone, peer) if gone_sends else (peer, gone)
            crosses = side == "a"
            # A cut drops every crossing message, except A→B under an
            # asymmetric one.
            dropped = crosses and (not asymmetric or gone_sends)
            assert net.reachable(src, dst) == (not dropped), (side, src, dst)

    def test_side_cached_before_removal_reads_b_after_it(self):
        cut = NetPartition(start=0, heal=5, depth=2)
        net, cloud = make_net(NetConfig(partitions=(cut,)))
        net.begin_epoch(0)
        a, b = sides(net, cloud.server_ids)
        assert not net.reachable(a[0], b[0])  # a[0]'s side A is cached
        cloud.remove_server(a[0])
        assert net.reachable(a[0], b[0])
        assert not net.reachable(a[0], a[1])
        assert sides(net, [a[0], a[1]]) == ([a[1]], [a[0]])


class TestConflictingRepairRisk:
    def test_counts_partitions_straddling_a_cut(self):
        from repro.ring.partition import PartitionId
        from repro.store.replica import ReplicaCatalog

        class FakePartition:
            def __init__(self, pid, size=1):
                self.pid = pid
                self.size = size

        cut = NetPartition(start=0, heal=5, depth=2)
        net, cloud = make_net(NetConfig(partitions=(cut,)))
        net.begin_epoch(0)
        ids = cloud.server_ids
        a, b = sides(net, ids)
        catalog = ReplicaCatalog(cloud)
        straddle = FakePartition(PartitionId(1, 1, 0))
        onesided = FakePartition(PartitionId(1, 1, 1))
        catalog.place(straddle, a[0])
        catalog.place(straddle, b[0])
        catalog.place(onesided, a[0])
        assert net.split_replica_partitions(catalog) == 1
        net.begin_epoch(5)  # healed: no cut, no risk
        assert net.split_replica_partitions(catalog) == 0
