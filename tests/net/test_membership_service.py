"""Unit tests for the MembershipView seam and its gossip-backed service."""

import numpy as np

from repro.cluster.topology import CloudLayout, build_cloud
from repro.core.board import PriceBoard
from repro.net.membership import (
    EffectivePriceBoard,
    MembershipService,
    OracleMembership,
)
from repro.net.model import (
    HEARTBEAT,
    LOST_LIVE_NODE,
    NEW_NODE,
    NetConfig,
    NetPartition,
)
from repro.sim.seeds import RngStreams


def tiny_layout():
    return CloudLayout(
        countries=2,
        countries_per_continent=1,
        datacenters_per_country=1,
        rooms_per_datacenter=1,
        racks_per_room=1,
        servers_per_rack=5,
    )


def make_service(config, seed=0):
    cloud = build_cloud(tiny_layout())
    return MembershipService(config, cloud, RngStreams(seed)), cloud


class TestOracleMembership:
    def test_delegates_to_cloud(self):
        cloud = build_cloud(tiny_layout())
        oracle = OracleMembership(cloud)
        sid = cloud.server_ids[0]
        assert oracle.believed(sid)
        assert oracle.predicate is None
        assert np.array_equal(
            oracle.believed_vector(), cloud.alive_vector()
        )
        cloud.server(sid).fail()
        assert not oracle.believed(sid)

    def test_version_tracks_cloud(self):
        cloud = build_cloud(tiny_layout())
        oracle = OracleMembership(cloud)
        before = oracle.version
        cloud.remove_server(cloud.server_ids[-1])
        assert oracle.version != before


class TestZeroFaultPassthrough:
    def test_believed_pinned_to_physical(self):
        service, cloud = make_service(NetConfig())
        assert service.predicate is None
        assert np.array_equal(
            service.believed_vector(), cloud.alive_vector()
        )

    def test_kills_detected_same_epoch_in_kill_order(self):
        service, cloud = make_service(NetConfig())
        victims = [cloud.server_ids[3], cloud.server_ids[1]]
        for sid in victims:
            cloud.server(sid).fail()
        service.record_kills(victims)
        service.begin_epoch(0)
        detected = service.run_membership_phase()
        assert detected == victims  # kill order, not id order

    def test_effective_board_is_real_board(self):
        service, cloud = make_service(NetConfig())
        board = PriceBoard()
        board.post(0, {sid: 1.0 for sid in cloud.server_ids})
        service.publish_prices(0, board)
        assert service.effective_board(board) is board

    def test_messages_still_counted(self):
        service, _ = make_service(NetConfig())
        service.begin_epoch(0)
        service.run_membership_phase()
        assert service.net.stats.snapshot()[HEARTBEAT][0] > 0


class TestGhostLifecycle:
    def test_ghost_believed_alive_until_detection(self):
        config = NetConfig(loss=0.01, dead_rounds=5)
        service, cloud = make_service(config)
        victim = cloud.server_ids[-1]
        cloud.server(victim).fail()
        service.record_kills([victim])
        assert service.believed(victim)
        assert service.ghost_count == 1
        removed = []
        for epoch in range(6):
            service.begin_epoch(epoch)
            for sid in service.run_membership_phase():
                cloud.remove_server(sid)
                service.on_removed(sid)
                removed.append((epoch, sid))
        assert removed and removed[0][1] == victim
        assert removed[0][0] >= 1  # at least one epoch of staleness
        assert service.ghost_count == 0
        assert not service.believed(victim)

    def test_false_suspects_never_removed(self):
        cut = NetPartition(start=0, heal=3, depth=2)
        config = NetConfig(
            partitions=(cut,), dead_rounds=4
        )
        service, cloud = make_service(config)
        for epoch in range(3):
            service.begin_epoch(epoch)
            detected = service.run_membership_phase()
            assert detected == []  # nothing actually died
        assert service.false_suspect_count > 0
        suspects = [
            s for s in cloud.server_ids if not service.believed(s)
        ]
        assert len(suspects) == service.false_suspect_count
        assert all(cloud.server(s).alive for s in suspects)
        assert all(not service.believed(s) for s in suspects)
        # Heal: heartbeats land again and suspects rehabilitate.
        for epoch in range(3, 8):
            service.begin_epoch(epoch)
            service.run_membership_phase()
        assert service.false_suspect_count == 0

    def test_believed_vector_masks_ghosts_and_suspects(self):
        config = NetConfig(loss=0.01, dead_rounds=30)
        service, cloud = make_service(config)
        victim = cloud.server_ids[2]
        cloud.server(victim).fail()
        service.record_kills([victim])
        vec = service.believed_vector()
        assert vec[cloud.slot(victim)]  # ghost still believed up
        assert not cloud.alive_vector()[cloud.slot(victim)]

    def test_detection_is_the_boards_age_verdict(self):
        """A ghost goes once the board's row ages it to ``dead_rounds``:
        never before ``ceil(dead_rounds / rounds_per_epoch)`` epochs of
        heartbeats have run since the kill."""
        config = NetConfig(loss=0.01, rounds_per_epoch=3,
                           dead_rounds=10)
        service, cloud = make_service(config, seed=3)
        victim = cloud.server_ids[0]  # the board itself dies
        cloud.server(victim).fail()
        service.record_kills([victim])
        detected_at = None
        for epoch in range(8):
            service.begin_epoch(epoch)
            if victim in service.run_membership_phase():
                detected_at = epoch
                break
        assert detected_at is not None and detected_at >= 3

    def test_predicate_is_installed_only_while_belief_differs(self):
        config = NetConfig(loss=0.01, dead_rounds=30)
        service, cloud = make_service(config)
        assert service.predicate is None  # belief == physical
        victim = cloud.server_ids[1]
        cloud.server(victim).fail()
        service.record_kills([victim])
        assert service.predicate is not None
        assert service.predicate(victim)  # the ghost is believed up
        cloud.remove_server(victim)
        service.on_removed(victim)
        assert service.predicate is None

    def test_removal_broadcasts_tombstones_and_bumps_the_version(self):
        service, cloud = make_service(NetConfig())
        victim = cloud.server_ids[-1]
        cloud.server(victim).fail()
        service.record_kills([victim])
        service.begin_epoch(0)
        assert service.run_membership_phase() == [victim]
        cloud.remove_server(victim)
        before = service.version
        service.on_removed(victim)
        sent = service.net.stats.snapshot()[LOST_LIVE_NODE][0]
        assert sent == len(cloud) - 1  # every other believed-live node
        assert service.version == before + 1
        assert service.ghost_count == 0

    def test_joiners_bootstrap_through_the_fabric(self):
        service, cloud = make_service(NetConfig(loss=0.01))
        template = cloud.server(cloud.server_ids[0])
        (joiner,) = cloud.spawn_servers(
            [template.location], monthly_rent=template.monthly_rent,
            storage_capacity=template.storage_capacity,
        )
        service.register_added([joiner.server_id])
        assert service.net.stats.snapshot()[NEW_NODE][0] >= 2
        assert service.believed(joiner.server_id)

    def test_suspicion_flips_bump_the_version(self):
        cut = NetPartition(start=0, heal=3, depth=2)
        config = NetConfig(
            partitions=(cut,), dead_rounds=4
        )
        service, _ = make_service(config)
        versions = []
        for epoch in range(8):
            service.begin_epoch(epoch)
            service.run_membership_phase()
            versions.append((service.version,
                             service.false_suspect_count))
        suspected = max(count for _, count in versions)
        assert suspected > 0 and versions[-1][1] == 0
        # Every suspicion and every rehabilitation is a version step.
        assert versions[-1][0] >= 2 * suspected
        for (v0, c0), (v1, c1) in zip(versions, versions[1:]):
            assert v1 >= v0 and (c0 == c1 or v1 > v0)

    def test_staleness_is_the_boards_view(self):
        config = NetConfig(loss=0.2)
        service, _ = make_service(config, seed=4)
        service.begin_epoch(0)
        service.run_membership_phase()
        assert service.staleness() == service.fabric.staleness()


class TestStalePrices:
    def test_no_active_fault_no_lag(self):
        """A faulty config whose only cut lies in the future prices off
        the real board once every node heard the broadcast."""
        cut = NetPartition(start=50, heal=60, depth=2)
        config = NetConfig(partitions=(cut,), rounds_per_epoch=6)
        service, cloud = make_service(config)
        board = PriceBoard()
        for epoch in range(3):
            board.post(epoch, {sid: 1.0 + epoch for sid in cloud.server_ids})
            service.begin_epoch(epoch)
            service.run_membership_phase()
            service.publish_prices(epoch, board)
            assert service.price_version_lag == 0
            assert service.effective_board(board) is board

    def test_effective_board_lags_under_silence(self):
        cut = NetPartition(start=0, heal=50, depth=2)
        config = NetConfig(partitions=(cut,), dead_rounds=200)
        service, cloud = make_service(config)
        board = PriceBoard()
        board.post(0, {sid: 2.0 for sid in cloud.server_ids})
        service.begin_epoch(0)
        service.run_membership_phase()
        service.publish_prices(0, board)
        service.begin_epoch(1)
        service.run_membership_phase()
        board.post(1, {sid: 9.0 for sid in cloud.server_ids})
        service.publish_prices(1, board)
        effective = service.effective_board(board)
        # The cut side never heard version 1, so the effective column
        # is the version-0 snapshot.
        assert service.price_version_lag == 1
        assert effective is not board
        sid = cloud.server_ids[0]
        assert effective.price(sid) == 2.0
        assert effective.min_price() == 2.0
        assert effective.price_vector([sid])[0] == 2.0

    def test_effective_board_backfills_unknown_servers(self):
        board = PriceBoard()
        board.post(0, {1: 3.0, 2: 5.0})
        stale = EffectivePriceBoard(0, {1: 4.0}, board)
        assert stale.price(1) == 4.0
        assert stale.price(2) == 5.0  # joined after the snapshot
        assert stale.min_price() == 4.0
        assert list(stale.price_vector([1, 2])) == [4.0, 5.0]

