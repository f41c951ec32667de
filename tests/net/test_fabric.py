"""Unit tests for the gossip fabric (the per-observer age matrix)."""

import numpy as np
import pytest

from repro.cluster.topology import CloudLayout, build_cloud
from repro.net.fabric import GOSSIP_FANOUT, UNKNOWN_AGE, GossipFabric
from repro.net.model import (
    HEARTBEAT,
    LOST_LIVE_NODE,
    NEW_NODE,
    PRICE,
    LinkFlap,
    NetConfig,
    NetError,
    NetPartition,
    NetworkModel,
)


def tiny_layout(racks=1, per_rack=6):
    return CloudLayout(
        countries=2,
        countries_per_continent=1,
        datacenters_per_country=1,
        rooms_per_datacenter=1,
        racks_per_room=racks,
        servers_per_rack=per_rack,
    )


def make_fabric(config, cloud=None, seed=0):
    cloud = cloud if cloud is not None else build_cloud(tiny_layout())
    net = NetworkModel(config, cloud, np.random.default_rng(seed + 1))
    fabric = GossipFabric(config, net, cloud, np.random.default_rng(seed))
    fabric.register_initial(cloud.server_ids)
    return fabric, net, cloud


class TestBoardObserver:
    def test_lowest_live_id_wins(self):
        fabric, _, cloud = make_fabric(NetConfig())
        assert fabric.board_observer() == min(cloud.server_ids)

    def test_election_skips_dead(self):
        fabric, _, cloud = make_fabric(NetConfig())
        first = min(cloud.server_ids)
        cloud.server(first).fail()
        live = sorted(s for s in cloud.server_ids if s != first)
        assert fabric.board_observer() == live[0]

    def test_no_live_server_no_board_no_verdicts(self):
        fabric, net, cloud = make_fabric(NetConfig())
        for sid in cloud.server_ids:
            cloud.server(sid).fail()
        fabric.membership_round()
        fabric.publish_version(5)
        fabric.price_round()
        assert fabric.board_observer() is None
        assert fabric.believed_dead() == []
        assert fabric.staleness() == (0.0, 0)
        assert fabric.effective_version(cloud.server_ids) == -1
        assert net.stats.snapshot()[HEARTBEAT] == (0, 0, 0, 0)


class TestHeartbeatRounds:
    def test_zero_fault_rounds_keep_everyone_fresh(self):
        fabric, net, _ = make_fabric(NetConfig())
        for _ in range(6):
            fabric.membership_round()
        assert fabric.believed_dead() == []
        assert fabric.staleness()[1] < 4
        counts = net.stats.snapshot()[HEARTBEAT]
        assert counts[0] > 0
        assert counts[0] == counts[1]  # sent == delivered, nothing drops

    def test_message_accounting_is_exact(self):
        fabric, net, cloud = make_fabric(NetConfig(loss=0.4), seed=3)
        for _ in range(10):
            fabric.membership_round()
        sent, delivered, d_loss, d_cut = net.stats.snapshot()[HEARTBEAT]
        assert sent == delivered + d_loss + d_cut
        assert d_loss > 0
        assert d_cut == 0
        # fanout pushes per live node per round
        assert sent == 10 * len(cloud) * 3

    def test_dead_server_ages_to_detection(self):
        config = NetConfig(dead_rounds=4)
        fabric, _, cloud = make_fabric(config)
        victim = cloud.server_ids[-1]
        cloud.server(victim).fail()
        for _ in range(2):
            fabric.membership_round()
        board = fabric._row[fabric.board_observer()]
        assert fabric._age[board, fabric._row[victim]] == 2
        assert victim not in fabric.believed_dead()
        for _ in range(2):
            fabric.membership_round()
        assert victim in fabric.believed_dead()

    def test_partition_starves_cross_side_knowledge(self):
        cut = NetPartition(start=0, heal=100, depth=2)
        config = NetConfig(
            partitions=(cut,), dead_rounds=4
        )
        fabric, net, cloud = make_fabric(config, seed=5)
        net.begin_epoch(0)
        board = fabric.board_observer()
        far = [s for s in cloud.server_ids if not net.reachable(s, board)]
        assert far
        for _ in range(4):
            fabric.membership_round()
        dead = set(fabric.believed_dead())
        # Every cross-side server is a false suspect at the board — all
        # are physically alive.
        assert set(far) <= dead
        assert all(cloud.server(s).alive for s in dead)

    def test_zero_loss_never_rolls_the_net_stream(self):
        """Draw-order clause 2: no loss roll at all when loss == 0."""
        cloud = build_cloud(tiny_layout())
        net_rng = np.random.default_rng(11)
        net = NetworkModel(NetConfig(), cloud, net_rng)
        fabric = GossipFabric(NetConfig(), net, cloud,
                              np.random.default_rng(0))
        fabric.register_initial(cloud.server_ids)
        for _ in range(5):
            fabric.membership_round()
            fabric.publish_version(1)
            fabric.price_round()
        untouched = np.random.default_rng(11).bit_generator.state
        assert net_rng.bit_generator.state == untouched

    def test_flapped_server_loses_every_own_push(self):
        config = NetConfig(flaps=(LinkFlap(start=0, heal=5),))
        fabric, net, cloud = make_fabric(config, seed=6)
        net.begin_epoch(0)
        flapped, _ = net.link_state(cloud.server_ids)
        assert flapped.sum() == 1
        fabric.membership_round()
        sent, delivered, d_loss, d_cut = net.stats.snapshot()[HEARTBEAT]
        # The victim's own fanout pushes all drop as partition drops.
        assert d_cut >= GOSSIP_FANOUT
        assert d_loss == 0 and sent == delivered + d_cut

    def test_staleness_grows_under_total_silence(self):
        cut = NetPartition(start=0, heal=100, depth=2)
        config = NetConfig(partitions=(cut,), dead_rounds=50)
        fabric, net, _ = make_fabric(config, seed=5)
        net.begin_epoch(0)
        for _ in range(6):
            fabric.membership_round()
        mean, peak = fabric.staleness()
        assert peak == 6
        assert 0.0 < mean <= 6.0


class TestJoinsAndRemovals:
    def test_join_bootstraps_via_board(self):
        fabric, net, cloud = make_fabric(NetConfig())
        template = cloud.server(cloud.server_ids[0])
        joiner = cloud.spawn_servers(
            [template.location], monthly_rent=template.monthly_rent,
            storage_capacity=template.storage_capacity,
        )[0]
        fabric.register_join(joiner.server_id)
        assert net.stats.snapshot()[NEW_NODE] == (2, 2, 0, 0)
        fabric.membership_round()
        assert joiner.server_id not in fabric.believed_dead()

    def test_known_server_rejoining_sends_nothing(self):
        fabric, net, cloud = make_fabric(NetConfig())
        fabric.register_join(cloud.server_ids[0])
        assert net.stats.snapshot()[NEW_NODE] == (0, 0, 0, 0)

    def test_unregister_unknown_is_a_noop(self):
        fabric, _, cloud = make_fabric(NetConfig())
        fabric.unregister(10_000)
        assert fabric.believed_dead() == []
        assert fabric.effective_version(cloud.server_ids) == -1

    def test_initial_registration_over_the_cap_is_refused(self):
        cloud = build_cloud(tiny_layout())
        net = NetworkModel(NetConfig(), cloud, np.random.default_rng(0))
        fabric = GossipFabric(NetConfig(), net, cloud,
                              np.random.default_rng(0))
        with pytest.raises(NetError, match="capped at 4096"):
            fabric.register_initial(list(range(4097)))

    def test_tombstones_go_to_every_other_believed_live_node(self):
        fabric, net, _ = make_fabric(NetConfig())
        fabric.record_tombstones(5)
        fabric.record_tombstones(0)
        assert net.stats.snapshot()[LOST_LIVE_NODE] == (4, 4, 0, 0)

    def test_unregister_forgets_subject(self):
        fabric, _, cloud = make_fabric(
            NetConfig(dead_rounds=4)
        )
        victim = cloud.server_ids[-1]
        cloud.server(victim).fail()
        for _ in range(4):
            fabric.membership_round()
        assert victim in fabric.believed_dead()
        fabric.unregister(victim)
        assert victim not in fabric.believed_dead()

    def test_capacity_cap(self):
        fabric, _, _ = make_fabric(NetConfig())
        with pytest.raises(NetError, match="capped at 4096") as caught:
            fabric._check_capacity(5000)
        assert "counting" not in str(caught.value)


class TestPriceRounds:
    def test_version_spreads_to_everyone_without_faults(self):
        fabric, _, cloud = make_fabric(NetConfig())
        fabric.publish_version(7)
        for _ in range(8):
            fabric.price_round()
        assert fabric.effective_version(cloud.server_ids) == 7

    def test_unheard_node_reports_minus_one(self):
        fabric, _, cloud = make_fabric(NetConfig())
        assert fabric.effective_version(cloud.server_ids) == -1

    def test_board_version_only_moves_forward(self):
        fabric, _, cloud = make_fabric(NetConfig())
        fabric.publish_version(3)
        fabric.publish_version(1)
        for _ in range(8):
            fabric.price_round()
        assert fabric.effective_version(cloud.server_ids) == 3

    def test_unregistered_ids_do_not_hold_the_version_back(self):
        fabric, _, cloud = make_fabric(NetConfig())
        fabric.publish_version(7)
        for _ in range(8):
            fabric.price_round()
        assert fabric.effective_version(cloud.server_ids + [10_000]) == 7
        assert fabric.effective_version([10_000]) == -1

    def test_no_broadcast_no_price_pushes(self):
        fabric, net, _ = make_fabric(NetConfig())
        fabric.price_round()
        assert net.stats.snapshot()[PRICE] == (0, 0, 0, 0)

    def test_price_messages_counted(self):
        fabric, net, _ = make_fabric(NetConfig())
        fabric.publish_version(0)
        fabric.price_round()
        sent = net.stats.snapshot()[PRICE][0]
        assert sent >= 3  # at least the board's own fanout pushes

