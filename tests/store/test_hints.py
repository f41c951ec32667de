"""Tests for hinted handoff: TTL, backoff pacing, dedup, rekeying.

The TTL and the backoff are module constants of
:mod:`repro.store.hints`; a test that needs other values sets them with
``monkeypatch``.
"""

import pytest

from repro.ring.partition import PartitionId
from repro.store import hints
from repro.store.hints import Hint, HintStore
from repro.store.transfer import capped_backoff

PID = PartitionId(0, 0, 0)
PID2 = PartitionId(0, 0, 1)


def outstanding(store):
    """Outstanding hints in insertion order (the store publishes only
    counts, so checks of a hint's fields read its table)."""
    return list(store._hints.values())


def hint_store(monkeypatch, **constants):
    """A fresh store after setting ``HINT_*`` constants (``ttl=4`` sets
    ``HINT_TTL``) for the test's duration."""
    for name, value in constants.items():
        monkeypatch.setattr(hints, f"HINT_{name.upper()}", value)
    return HintStore()


def park(store, *, target=1, holder=9, pid=PID, key=b"k",
         version=1, epoch=0, value=b"v"):
    return store.park(
        target=target, holder=holder, pid=pid, key=key,
        value=value, version=version, epoch=epoch,
    )


class TestCappedBackoff:
    def test_doubles_then_caps(self):
        delays = [capped_backoff(n, 1, 8) for n in range(1, 7)]
        assert delays == [1, 2, 4, 8, 8, 8]

    def test_base_delay_scales(self):
        assert capped_backoff(1, 3, 12) == 3
        assert capped_backoff(2, 3, 12) == 6
        assert capped_backoff(3, 3, 12) == 12
        assert capped_backoff(9, 3, 12) == 12


class TestParkAndDedup:
    def test_park_counts_and_depth(self):
        store = HintStore()
        assert park(store, target=1)
        assert park(store, target=2)
        assert store.depth == 2
        assert len(store) == 2
        assert store.parked == 2

    def test_fresher_version_refreshes_in_place(self, monkeypatch):
        store = hint_store(monkeypatch, base_delay=2)
        park(store, version=1, epoch=0, holder=9)
        assert park(store, version=5, epoch=4, holder=7, value=b"new")
        assert store.depth == 1
        assert store.refreshed == 1
        (hint,) = outstanding(store)
        assert hint.version == 5
        assert hint.holder == 7
        assert hint.value == b"new"
        assert hint.born_epoch == 4          # TTL clock reset
        assert hint.attempts == 0            # backoff reset
        assert hint.next_epoch == 4 + 2

    def test_stale_park_is_refused(self):
        store = HintStore()
        park(store, version=3)
        assert not park(store, version=3)
        assert not park(store, version=2)
        assert store.depth == 1
        assert outstanding(store)[0].version == 3

    def test_dedup_is_per_target(self):
        store = HintStore()
        assert park(store, target=4, key=b"a")
        assert park(store, target=4, key=b"b")
        assert park(store, target=6, key=b"a")
        assert store.depth == 3
        assert store.drop_target(4) == 2
        assert store.depth == 1


class TestDrain:
    def test_delivers_ready_hints(self):
        store = HintStore()
        park(store, epoch=0)
        delivered, expired = store.drain(
            1, ready=lambda h: True, deliver=lambda h: True
        )
        assert (delivered, expired) == (1, 0)
        assert store.depth == 0
        assert store.drained == 1

    def test_ttl_expires_old_hints(self, monkeypatch):
        store = hint_store(monkeypatch, ttl=4)
        park(store, epoch=0)
        delivered, expired = store.drain(
            5, ready=lambda h: True, deliver=lambda h: True
        )
        assert (delivered, expired) == (0, 1)
        assert store.expired == 1
        assert store.depth == 0

    def test_backoff_paces_probes(self, monkeypatch):
        store = hint_store(monkeypatch, ttl=100)  # backoff 1, cap 8
        park(store, epoch=0)  # next_epoch = 1
        probes = []

        def ready(hint):
            probes.append(True)
            return False

        for epoch in range(1, 17):
            store.drain(epoch, ready=ready, deliver=lambda h: True)
        # Probed at epochs 1, 2, 4, 8, 16 — doubling gaps, capped at 8.
        assert len(probes) == 5
        (hint,) = outstanding(store)
        assert hint.attempts == 5
        assert hint.next_epoch == 16 + 8

    def test_not_due_hints_are_skipped_silently(self, monkeypatch):
        store = hint_store(monkeypatch, base_delay=4)
        park(store, epoch=0)  # next_epoch = 4
        delivered, expired = store.drain(
            2, ready=lambda h: pytest.fail("probed early"),
            deliver=lambda h: True,
        )
        assert (delivered, expired) == (0, 0)
        assert store.depth == 1

    def test_ttl_one_expires_on_epoch_one(self, monkeypatch):
        # ISSUE 10 pin: parked at e with ttl=k the hint expires at
        # exactly e+k — for ttl=1, epoch 1, not epoch 2.
        store = hint_store(monkeypatch, ttl=1)
        park(store, epoch=0)
        delivered, expired = store.drain(
            1, ready=lambda h: False, deliver=lambda h: True
        )
        assert (delivered, expired) == (0, 1)
        assert store.depth == 0
        assert store.expired == 1

    def test_hint_survives_until_expiry_epoch(self, monkeypatch):
        # One epoch before e+ttl the hint must still be parked.
        store = hint_store(monkeypatch, ttl=2)
        park(store, epoch=0)
        delivered, expired = store.drain(
            1, ready=lambda h: False, deliver=lambda h: True
        )
        assert (delivered, expired) == (0, 0)
        assert store.depth == 1
        delivered, expired = store.drain(
            2, ready=lambda h: False, deliver=lambda h: True
        )
        assert (delivered, expired) == (0, 1)
        assert store.depth == 0

    def test_delivery_on_expiry_epoch_counts_as_drained(self, monkeypatch):
        # ISSUE 10 pin: a hint whose target comes back exactly on the
        # expiry epoch is drained, never expired.
        store = hint_store(monkeypatch, ttl=1)
        park(store, epoch=0)
        delivered, expired = store.drain(
            1, ready=lambda h: True, deliver=lambda h: True
        )
        assert (delivered, expired) == (1, 0)
        assert store.drained == 1
        assert store.expired == 0

    def test_expiry_epoch_overrides_backoff_pacing(self, monkeypatch):
        # next_epoch says "not due yet" but the TTL window closes this
        # epoch: the last-gasp attempt runs anyway.
        store = hint_store(monkeypatch, ttl=2, base_delay=8, backoff_cap=8)
        park(store, epoch=0)  # next_epoch = 8, far past expiry
        delivered, expired = store.drain(
            2, ready=lambda h: True, deliver=lambda h: True
        )
        assert (delivered, expired) == (1, 0)

    def test_past_expiry_hint_expires_without_attempt(self, monkeypatch):
        # A drain pass skipped past the expiry epoch: the window is
        # gone, ready() must not even be probed.
        store = hint_store(monkeypatch, ttl=1)
        park(store, epoch=0)
        delivered, expired = store.drain(
            3, ready=lambda h: pytest.fail("probed past expiry"),
            deliver=lambda h: True,
        )
        assert (delivered, expired) == (0, 1)

    def test_obsolete_delivery_drops(self):
        store = HintStore()
        park(store, epoch=0)
        delivered, __ = store.drain(
            1, ready=lambda h: True, deliver=lambda h: False
        )
        assert delivered == 0
        assert store.dropped == 1
        assert store.depth == 0


class TestRekeyAndDrop:
    def test_rekey_moves_hints_to_children(self):
        store = HintStore()
        park(store, key=b"a")
        park(store, key=b"b")
        moved = store.rekey_partition(PID, lambda kb: PID2)
        assert moved == 2
        assert all(h.pid == PID2 for h in outstanding(store))

    def test_rekey_collision_keeps_fresher(self):
        store = HintStore()
        park(store, pid=PID, key=b"a", version=3)
        park(store, pid=PID2, key=b"a", version=7)
        moved = store.rekey_partition(PID, lambda kb: PID2)
        assert moved == 0
        assert store.depth == 1
        assert outstanding(store)[0].version == 7
        assert store.dropped == 1

    def test_drop_target_discards_all_its_hints(self):
        store = HintStore()
        park(store, target=1, key=b"a")
        park(store, target=1, key=b"b")
        park(store, target=2, key=b"a")
        assert store.drop_target(1) == 2
        assert store.dropped == 2
        assert store.depth == 1
        assert store.drop_target(1) == 0


class TestEpochCounts:
    def test_deltas_since_begin_epoch(self):
        store = HintStore()
        park(store, target=1)
        store.begin_epoch()
        park(store, target=2)
        store.drain(1, ready=lambda h: True, deliver=lambda h: True)
        counts = store.epoch_counts()
        assert counts["parked"] == 1
        assert counts["drained"] == 2
        assert counts["expired"] == 0
