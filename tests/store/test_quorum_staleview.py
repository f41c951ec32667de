"""Quorum routing under a believed (possibly wrong) membership view.

The satellite-3 contract from ISSUE 7: ghosts (believed live,
physically dead) yield per-replica timeouts; false suspects (believed
dead, physically fine) are skipped, never read; and with R + W > N a
strong read must return the committed value once parked hints drain.
"""

import pytest

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.store.hints import HintStore
from repro.store.quorum import (
    Level,
    QuorumError,
    QuorumKVStore,
    ReplicaOutcome,
)
from repro.store.replica import ReplicaCatalog
from tests.store.test_hints import outstanding
from tests.store.test_quorum import replica_version


class ViewMembership:
    """Scriptable believed/physical split for stale-view tests.

    ``ghosts`` are believed live but never respond; ``suspects`` are
    believed dead but physically fine; ``cut`` lists one-way
    (src, dst) pairs the network will not carry.
    """

    def __init__(self, ids, *, ghosts=(), suspects=(), cut=()):
        self._ids = list(ids)
        self.ghosts = set(ghosts)
        self.suspects = set(suspects)
        self.cut = set(cut)

    def believed(self, server_id):
        return server_id in self._ids and server_id not in self.suspects

    def believed_ids(self):
        return [sid for sid in self._ids if self.believed(sid)]

    def responds(self, server_id):
        return server_id in self._ids and server_id not in self.ghosts

    def reachable(self, src, dst):
        return (src, dst) not in self.cut


def setup(*, replicas=3, servers=5, hints=False, ghosts=(),
          suspects=(), cut=()):
    cloud = Cloud()
    for i in range(servers):
        cloud.add_servers([
            make_server(i, Location(i, 0, 0, 0, 0, 0),
                        storage_capacity=10**9)
        ])
    rings = RingSet()
    ring = rings.add_ring(0, 0, AvailabilityLevel(1.0, replicas), 4,
                          initial_size=0)
    catalog = ReplicaCatalog(cloud)
    for p in ring:
        for sid in range(replicas):
            catalog.place(p, sid)
    view = ViewMembership(
        range(servers), ghosts=ghosts, suspects=suspects, cut=cut,
    )
    store = QuorumKVStore(
        cloud, rings, catalog,
        membership=view,
        hints=HintStore() if hints else None,
    )
    return store, view, catalog


def outcome_of(result, sid):
    for attempt_sid, outcome in result.attempts:
        if attempt_sid == sid:
            return outcome
    return None


class TestGhosts:
    def test_ghost_write_times_out_per_replica(self):
        store, __, __ = setup(ghosts={1})
        result = store.put(0, 0, "k", b"v", level=Level.QUORUM)
        assert outcome_of(result, 1) == ReplicaOutcome.TIMEOUT.value
        assert 1 not in result.acked
        assert 1 in result.missed
        assert sorted(result.acked) == [0, 2]
        assert store.stats.replica_timeouts == 1

    def test_ghost_read_walks_past_it(self):
        store, __, __ = setup(ghosts={0})
        store.put(0, 0, "k", b"v", level=Level.QUORUM)
        read = store.get(0, 0, "k", level=Level.QUORUM)
        assert read.value == b"v"
        assert 0 not in read.contacted
        # The ghost was *attempted* — belief said live — and timed out.
        assert outcome_of(read, 0) == ReplicaOutcome.TIMEOUT.value

    def test_all_level_fails_on_ghost(self):
        store, __, __ = setup(ghosts={2})
        store.put(0, 0, "k", b"v", level=Level.QUORUM)
        with pytest.raises(QuorumError):
            store.get(0, 0, "k", level=Level.ALL)
        assert store.stats.read_failures == 1

    def test_two_ghosts_fail_strict_quorum_write(self):
        store, __, __ = setup(ghosts={1, 2})
        with pytest.raises(QuorumError):
            store.put(0, 0, "k", b"v", level=Level.QUORUM)
        assert store.stats.write_failures == 1
        assert store.stats.replica_timeouts == 2


class TestFalseSuspects:
    def test_suspect_skipped_not_contacted(self):
        store, view, __ = setup()
        store.put(0, 0, "k", b"v", level=Level.ALL)
        view.suspects.add(0)
        read = store.get(0, 0, "k", level=Level.QUORUM)
        assert read.value == b"v"
        assert 0 not in read.contacted
        # Never even attempted: skipped on belief, no probe sent.
        assert outcome_of(read, 0) is None
        assert store.stats.suspects_skipped >= 1

    def test_suspect_write_diverts_around_it(self):
        store, view, __ = setup(suspects={2})
        result = store.put(0, 0, "k", b"v", level=Level.QUORUM)
        assert sorted(result.acked) == [0, 1]
        assert outcome_of(result, 2) is None
        assert 2 in result.missed
        assert store.stats.suspects_skipped == 1

    def test_strict_precheck_consumes_no_version(self):
        store, view, __ = setup(suspects={1, 2})
        with pytest.raises(QuorumError):
            store.put(0, 0, "k", b"v", level=Level.QUORUM)
        view.suspects.clear()
        result = store.put(0, 0, "k", b"v", level=Level.QUORUM)
        assert result.version == 1  # the refused write left no trace

    def test_majority_suspected_fails_read(self):
        store, view, __ = setup()
        store.put(0, 0, "k", b"v", level=Level.ALL)
        view.suspects.update({0, 1})
        with pytest.raises(QuorumError):
            store.get(0, 0, "k", level=Level.QUORUM)


class TestUnreachable:
    def test_cut_link_counts_unreachable(self):
        # Coordinator 0 cannot reach 1; 2 is still fine.
        store, __, __ = setup(cut={(0, 1)})
        result = store.put(0, 0, "k", b"v", level=Level.QUORUM)
        assert sorted(result.acked) == [0, 2]
        assert outcome_of(result, 1) == ReplicaOutcome.UNREACHABLE.value
        assert store.stats.replica_unreachable == 1


class TestSloppyQuorumAndHintDrain:
    def test_hinted_acks_assemble_sloppy_quorum(self):
        store, __, __ = setup(hints=True, ghosts={1, 2})
        result = store.put(0, 0, "k", b"v", level=Level.QUORUM)
        assert result.acked == (0,)
        assert sorted(result.hinted) == [1, 2]
        assert store.stats.handoff_writes == 1
        assert store.stats.hints_parked == 2
        # Hints land on a non-replica holder (3 or 4).
        holders = {h.holder for h in outstanding(store.hints)
                   if h.target == 1}
        assert holders <= {3, 4}

    def test_never_stale_after_hints_drain(self):
        # R + W > N: write reaches one real replica + two hints; after
        # the missed replicas rehabilitate and hints drain, a QUORUM
        # read that cannot even touch the original acker still sees
        # the committed version.
        store, view, __ = setup(hints=True, ghosts={1, 2})
        committed = store.put(0, 0, "k", b"v2", level=Level.QUORUM)
        view.ghosts.clear()
        delivered, expired = store.drain_hints(2)
        assert (delivered, expired) == (2, 0)
        view.suspects.add(0)  # the only directly-acked replica
        read = store.get(0, 0, "k", level=Level.QUORUM)
        assert read.version == committed.version
        assert read.value == b"v2"
        assert store.hints.depth == 0

    def test_stale_window_before_drain(self):
        # The same scenario *before* the hints drain is exactly the
        # sloppy-quorum staleness window the audit measures.
        store, view, __ = setup(hints=True, ghosts={1, 2})
        store.put(0, 0, "k", b"v2", level=Level.QUORUM)
        view.ghosts.clear()
        view.suspects.add(0)
        read = store.get(0, 0, "k", level=Level.QUORUM)
        assert not read.found

    def test_drain_waits_for_rehabilitation(self):
        store, view, __ = setup(hints=True, ghosts={1})
        store.put(0, 0, "k", b"v", level=Level.QUORUM)
        assert store.drain_hints(2) == (0, 0)  # target still a ghost
        assert store.hints.depth == 1
        view.ghosts.clear()
        # Back off before re-probing: next attempt not due at epoch 2.
        assert store.drain_hints(4) == (1, 0)
        assert replica_version(store, 0, 0, "k", 1) == 1
        assert store.stats.hints_drained == 1

    def test_obsolete_hint_dropped_when_target_left_replica_set(self):
        store, view, catalog = setup(hints=True, ghosts={1})
        store.put(0, 0, "k", b"v", level=Level.QUORUM)
        part = store._rings.ring(0, 0).lookup("k")
        catalog.drop(part, 1)
        view.ghosts.clear()
        assert store.drain_hints(3) == (0, 0)
        assert store.hints.depth == 0
        assert store.hints.dropped == 1

    def test_surviving_version_counts_parked_hints(self):
        store, __, __ = setup(hints=True, ghosts={1, 2})
        store.put(0, 0, "k", b"v1", level=Level.QUORUM)
        v2 = store.put(0, 0, "k", b"v2", level=Level.QUORUM).version
        assert store.surviving_version(0, 0, "k") == v2


class TestAntiEntropy:
    def test_repairs_diverged_copies(self):
        store, view, __ = setup(ghosts={2})
        store.put(0, 0, "k", b"v", level=Level.QUORUM)
        # Replica 2 has no copy at all: gap = 1 - (-1).
        assert store.divergence(0, 0, "k") == 2
        view.ghosts.clear()
        scanned, patched, sent = store.anti_entropy(0)
        assert patched == 1
        assert sent > 0
        assert store.divergence(0, 0, "k") == 0
        assert store.stats.anti_entropy_keys == 1

    def test_partition_budget_and_cursor(self):
        store, view, __ = setup(ghosts={2})
        for i in range(8):
            store.put(0, 0, f"k{i}", b"v", level=Level.QUORUM)
        view.ghosts.clear()
        first = store.anti_entropy(0, max_partitions=2)
        second = store.anti_entropy(1, max_partitions=2)
        assert first[0] == 2 and second[0] == 2
        # Round-robin cursor: four partitions, two 2-partition passes
        # plus a final 4-partition pass repair every key exactly once.
        total_patched = first[1] + second[1]
        third = store.anti_entropy(2, max_partitions=4)
        assert total_patched + third[1] == 8

    def test_skips_partitions_without_two_online_replicas(self):
        store, __, __ = setup(ghosts={1, 2}, replicas=3)
        scanned, patched, sent = store.anti_entropy(0)
        assert patched == 0 and sent == 0


class TestCatalogMirror:
    def setup_tracked(self, **kwargs):
        cloud = Cloud()
        for i in range(5):
            cloud.add_servers([
                make_server(i, Location(i, 0, 0, 0, 0, 0),
                            storage_capacity=10**9)
            ])
        rings = RingSet()
        ring = rings.add_ring(0, 0, AvailabilityLevel(1.0, 3), 4,
                              initial_size=0)
        catalog = ReplicaCatalog(cloud)
        for p in ring:
            for sid in range(3):
                catalog.place(p, sid)
        view = ViewMembership(range(5), **kwargs)
        hints = HintStore()
        store = QuorumKVStore(
            cloud, rings, catalog, membership=view, hints=hints,
            track_catalog=True,
        )
        return store, view, catalog

    def test_new_replica_clones_copies(self):
        store, __, catalog = self.setup_tracked()
        store.put(0, 0, "k", b"v", level=Level.ALL)
        part = store._rings.ring(0, 0).lookup("k")
        catalog.place(part, 4)
        assert replica_version(store, 0, 0, "k", 4) == 1

    def test_dropped_server_loses_copies_and_hints(self):
        store, view, catalog = self.setup_tracked(ghosts={1})
        store.put(0, 0, "k", b"v", level=Level.QUORUM)
        assert store.hints.depth == 1
        catalog.drop_server(1)
        view.ghosts.clear()
        assert store.hints.depth == 0  # hint to a gone server dropped
        assert replica_version(store, 0, 0, "k", 1) == -1

    def test_decommission_drains_into_survivor(self):
        store, __, catalog = self.setup_tracked(ghosts={0})
        store.put(0, 0, "k", b"v", level=Level.QUORUM)  # 0 missed it
        part = store._rings.ring(0, 0).lookup("k")
        # Replica 1 holds v1; removing it must not lose the version.
        catalog.drop(part, 1)
        survivors = catalog.servers_of(part.pid)
        assert 1 not in survivors
        assert any(
            replica_version(store, 0, 0, "k", sid) == 1
            for sid in survivors
        )
