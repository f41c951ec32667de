"""FailureDetector accuracy envelopes under swept fault schedules.

Sweeps message loss and partition windows over the gossip fabric and
checks the detector stays inside its accuracy envelope:

* **false positives** — physically-live servers believed dead.  Under
  moderate loss the epidemic redundancy (fanout × rounds) must keep
  the FP rate at zero; only total silence (partition, flap) may
  produce suspects.
* **false negatives** — killed servers must always be detected, and
  within a bounded number of epochs of the kill (loss delays but never
  prevents detection: every round re-pushes).
* **re-convergence** — after a partition long enough to produce
  dead-belief on both sides heals, the board's view of every live
  server must refresh within O(log N) gossip rounds (the epidemic
  spreading bound).  This is the regression for the SWIM-style target
  selection: probing dead-believed peers is exactly what breaks the
  permanent split-brain.
"""

import math

import pytest

from repro.cluster.topology import CloudLayout, build_cloud
from repro.net.membership import MembershipService
from repro.net.model import NetConfig, NetPartition
from repro.sim.seeds import RngStreams


def layout(racks=2, per_rack=5):
    return CloudLayout(
        countries=2,
        countries_per_continent=1,
        datacenters_per_country=1,
        rooms_per_datacenter=1,
        racks_per_room=racks,
        servers_per_rack=per_rack,
    )


def run_detector(config, kill_epoch=None, epochs=12, seed=0):
    """Drive a service through ``epochs``; return per-epoch observables."""
    cloud = build_cloud(layout())
    service = MembershipService(config, cloud, RngStreams(seed))
    victim = None
    detected_at = None
    fp_epochs = 0
    for epoch in range(epochs):
        if kill_epoch is not None and epoch == kill_epoch:
            victim = cloud.server_ids[-1]
            cloud.server(victim).fail()
            service.record_kills([victim])
        service.begin_epoch(epoch)
        for sid in service.run_membership_phase():
            cloud.remove_server(sid)
            service.on_removed(sid)
            if sid == victim and detected_at is None:
                detected_at = epoch
        if service.false_suspect_count:
            fp_epochs += 1
    return detected_at, fp_epochs, service, cloud


class TestLossEnvelope:
    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.3, 0.5])
    def test_no_false_positives_under_pure_loss(self, loss):
        config = NetConfig(
            loss=loss, rounds_per_epoch=3, dead_rounds=10,
        )
        _, fp_epochs, service, _ = run_detector(
            config, epochs=10, seed=1
        )
        assert fp_epochs == 0
        assert service.false_suspect_count == 0

    def test_zero_fault_detects_instantly(self):
        # loss=0 with no schedules is the zero-fault config: detection
        # completes the same epoch as the kill, by construction.
        detected_at, _, service, _ = run_detector(
            NetConfig(), kill_epoch=2, epochs=5, seed=2
        )
        assert detected_at == 2
        assert service.ghost_count == 0

    @pytest.mark.parametrize("loss", [0.05, 0.2, 0.5])
    def test_kills_always_detected(self, loss):
        config = NetConfig(
            loss=loss, rounds_per_epoch=3, dead_rounds=10,
        )
        detected_at, _, service, _ = run_detector(
            config, kill_epoch=2, epochs=12, seed=2
        )
        assert detected_at is not None  # no false negatives
        assert service.ghost_count == 0
        # dead_rounds/rounds_per_epoch epochs minimum; loss may stretch
        # the tail but the envelope stays tight.
        assert 2 + math.ceil(10 / 3) - 1 <= detected_at <= 9

    def test_higher_loss_never_detects_earlier_than_the_age_floor(self):
        floor = math.ceil(10 / 3)  # dead_rounds over rounds_per_epoch
        for loss in (0.05, 0.4):
            config = NetConfig(
                loss=loss, rounds_per_epoch=3, dead_rounds=10,
            )
            detected_at, _, _, _ = run_detector(
                config, kill_epoch=0, epochs=12, seed=3
            )
            assert detected_at is not None
            assert detected_at >= floor - 1


class TestPartitionEnvelope:
    @pytest.mark.parametrize("window", [2, 4, 6])
    def test_partition_produces_false_suspects_not_removals(self, window):
        cut = NetPartition(start=2, heal=2 + window, depth=2)
        config = NetConfig(
            partitions=(cut,), rounds_per_epoch=3, dead_rounds=6,
        )
        cloud = build_cloud(layout())
        service = MembershipService(config, cloud, RngStreams(4))
        n_before = len(cloud)
        saw_fp = False
        for epoch in range(2 + window + 6):
            service.begin_epoch(epoch)
            removed = service.run_membership_phase()
            assert removed == []  # nothing physically died
            saw_fp = saw_fp or service.false_suspect_count > 0
        assert len(cloud) == n_before
        assert saw_fp  # the cut was long enough to suspect across
        assert service.false_suspect_count == 0  # and it healed

    def test_asymmetric_cut_starves_only_one_direction(self):
        cut = NetPartition(
            start=0, heal=4, depth=2, asymmetric=True
        )
        config = NetConfig(
            partitions=(cut,), rounds_per_epoch=3, dead_rounds=6,
        )
        cloud = build_cloud(layout())
        service = MembershipService(config, cloud, RngStreams(5))
        for epoch in range(3):
            service.begin_epoch(epoch)
            service.run_membership_phase()
        net = service.net
        board = service.fabric.board_observer()
        # Only servers on the side the board cannot hear may be
        # suspected; every same-side server stays trusted.
        for sid in cloud.server_ids:
            if net.reachable(sid, board) and net.reachable(board, sid):
                assert service.believed(sid)  # same side as the board


class TestHealedPartitionReconvergence:
    def test_reconverges_within_o_log_n_rounds(self):
        # A cut long enough that both sides declare each other dead.
        cut = NetPartition(start=0, heal=4, depth=2)
        config = NetConfig(
            partitions=(cut,), rounds_per_epoch=3, dead_rounds=6,
        )
        cloud = build_cloud(layout())
        service = MembershipService(config, cloud, RngStreams(6))
        for epoch in range(4):
            service.begin_epoch(epoch)
            service.run_membership_phase()
        assert service.false_suspect_count > 0  # split brain built up
        # Heal, then count raw gossip rounds until the board's view of
        # every physically-live server is fresh again.
        service.net.begin_epoch(4)
        assert not service.net.has_active_cut
        n = len(cloud)
        bound = 4 * max(1, math.ceil(math.log2(n))) + 4
        fabric = service.fabric
        rounds = None
        for r in range(1, bound + 1):
            fabric.membership_round()
            if not set(fabric.believed_dead()) & set(cloud.server_ids):
                rounds = r
                break
        assert rounds is not None, (
            f"board still believes live servers dead after {bound} "
            f"rounds (N={n})"
        )
        # And the service-level belief rehabilitates on the next phase.
        service.run_membership_phase()
        assert service.false_suspect_count == 0
