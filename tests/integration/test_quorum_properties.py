"""Property-based tests for quorum-consistency invariants.

Besides the read/version invariants this pins the sloppy-quorum
durability bound (docs/ARCHITECTURE.md, "The serving overlay"): an
acked write is lost only when every ack-time holder — each replica that
acked it, each parked hint while its target lives — crashes before a
copy reaches a survivor.  So ``ALL``, and ``QUORUM`` with a surviving
majority, lose nothing; and the two copy-mirror defects that lost
``faults-churn`` writes outside that bound stay fixed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud, CloudLayout
from repro.core.economy import RentModel
from repro.core.policy import EconomicPolicy
from repro.ring.virtualring import AvailabilityLevel, RingSet
from repro.sim.config import AppConfig, RingConfig, ServingConfig, SimConfig
from repro.sim.engine import Simulation
from repro.store.hints import HintStore
from repro.store.quorum import Level, QuorumError, QuorumKVStore
from repro.store.replica import ReplicaCatalog


def build_store(n_replicas=3):
    cloud = Cloud()
    for i in range(n_replicas):
        cloud.add_server(
            make_server(i, Location(i, 0, 0, 0, 0, 0),
                        storage_capacity=10**9)
        )
    rings = RingSet()
    ring = rings.add_ring(0, 0, AvailabilityLevel(1.0, n_replicas), 2,
                          initial_size=0)
    catalog = ReplicaCatalog(cloud)
    for p in ring:
        for sid in range(n_replicas):
            catalog.place(p, sid)
    return cloud, QuorumKVStore(cloud, rings, catalog)


# An operation: (kind, key_index, fail/restore server).
ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "delete", "fail", "restore"]),
        st.integers(0, 3),   # key index / server id
    ),
    min_size=1,
    max_size=30,
)


class TestQuorumInvariants:
    @given(ops)
    @settings(max_examples=60, deadline=None)
    def test_quorum_read_never_older_than_last_quorum_write(self, script):
        """R + W > N: after any history of quorum writes and failures,
        a quorum read returns a version >= the last acked quorum write
        of that key."""
        cloud, store = build_store()
        last_version = {}
        counter = 0
        for kind, arg in script:
            if kind == "fail":
                cloud.server(arg % 3).fail()
            elif kind == "restore":
                cloud.server(arg % 3).restore()
            else:
                key = f"key-{arg}"
                counter += 1
                try:
                    if kind == "put":
                        result = store.put(
                            0, 0, key, f"v{counter}".encode(),
                            level=Level.QUORUM,
                        )
                    else:
                        result = store.delete(
                            0, 0, key, level=Level.QUORUM
                        )
                    last_version[key] = result.version
                except QuorumError:
                    pass  # quorum unreachable: no guarantee established
        for sid in range(3):
            cloud.server(sid).restore()
        for key, version in last_version.items():
            read = store.get(0, 0, key, level=Level.QUORUM)
            assert read.version >= version

    @given(ops)
    @settings(max_examples=40, deadline=None)
    def test_versions_monotone_per_key(self, script):
        cloud, store = build_store()
        seen = {}
        counter = 0
        for kind, arg in script:
            if kind in ("fail", "restore"):
                continue
            key = f"key-{arg}"
            counter += 1
            result = store.put(0, 0, key, f"v{counter}".encode(),
                               level=Level.ONE)
            assert result.version > seen.get(key, 0)
            seen[key] = result.version

    @given(st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_quorum_size_majority(self, n):
        assert Level.QUORUM.required(n) * 2 > n

    @given(ops)
    @settings(max_examples=40, deadline=None)
    def test_divergence_bounded_by_write_count(self, script):
        """Divergence never exceeds the number of writes to the key."""
        cloud, store = build_store()
        writes = {}
        counter = 0
        for kind, arg in script:
            if kind == "fail":
                cloud.server(arg % 3).fail()
            elif kind == "restore":
                cloud.server(arg % 3).restore()
            else:
                key = f"key-{arg}"
                counter += 1
                try:
                    store.put(0, 0, key, b"x", level=Level.ONE)
                    writes[key] = writes.get(key, 0) + 1
                except QuorumError:
                    pass
        for key, count in writes.items():
            assert store.divergence(0, 0, key) <= count + 1


# -- the durability bound --------------------------------------------------

def build_overlay_store(n_replicas=3, spares=2):
    """Replicas 0..n-1 hold every partition; the spares can hold hints."""
    cloud = Cloud()
    for i in range(n_replicas + spares):
        cloud.add_server(
            make_server(i, Location(i, 0, 0, 0, 0, 0),
                        storage_capacity=10**9)
        )
    rings = RingSet()
    ring = rings.add_ring(0, 0, AvailabilityLevel(1.0, n_replicas), 2,
                          initial_size=0)
    catalog = ReplicaCatalog(cloud)
    for p in ring:
        for sid in range(n_replicas):
            catalog.place(p, sid)
    store = QuorumKVStore(
        cloud, rings, catalog, hints=HintStore(ttl=64), track_catalog=True,
    )
    return cloud, catalog, store


# An operation: (kind, key index / server id).  Failed servers are
# believed dead, so writes divert their share to hints on the spares.
overlay_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "fail", "restore", "drain"]),
        st.integers(0, 4),
    ),
    min_size=1,
    max_size=30,
)


class TestDurabilityBound:
    @given(
        level=st.sampled_from([Level.ALL, Level.QUORUM]),
        script=overlay_ops,
        crash_order=st.permutations([0, 1, 2]),
    )
    @settings(max_examples=150, deadline=None)
    def test_all_and_quorum_with_surviving_majority_lose_nothing(
            self, level, script, crash_order):
        """Crash as many replicas as the level tolerates (ALL: all but
        one; QUORUM: a minority) after any history of writes, failures,
        restores and hint drains: every acked version survives."""
        cloud, catalog, store = build_overlay_store()
        acked = {}
        epoch = 0
        for kind, arg in script:
            if kind == "fail":
                cloud.server(arg).fail()
            elif kind == "restore":
                cloud.server(arg).restore()
            elif kind == "drain":
                epoch += 1
                store.begin_epoch(epoch)
                store.drain_hints(epoch)
            else:
                key = f"key-{arg}"
                try:
                    result = store.put(0, 0, key, b"v", level=level)
                except QuorumError:
                    continue
                acked[key] = result.version
        tolerated = 2 if level is Level.ALL else 1
        for sid in crash_order[:tolerated]:
            cloud.remove_server(sid)
            catalog.drop_server(sid)
        for key, version in acked.items():
            assert store.surviving_version(0, 0, key) >= version, key

    def test_one_can_lose_an_ack_with_survivors_left(self):
        """The bound is about holders, not survivors: a ONE write acked
        by a single replica, with no hint holder answering, dies with
        that replica even though two replicas survive."""
        cloud, catalog, store = build_overlay_store(spares=0)
        cloud.server(1).fail()
        cloud.server(2).fail()
        version = store.put(0, 0, "k", b"v", level=Level.ONE).version
        cloud.server(1).restore()
        cloud.server(2).restore()
        cloud.remove_server(0)
        catalog.drop_server(0)
        assert store.surviving_version(0, 0, "k") < version


class GhostView:
    """Stale view: ``ghosts`` are believed live but never answer,
    ``cuts`` are one-way ``(src, dst)`` links that drop."""

    def __init__(self, cloud, ghosts=(), cuts=()):
        self._cloud = cloud
        self.ghosts = frozenset(ghosts)
        self.cuts = frozenset(cuts)

    def believed(self, server_id):
        return server_id in self._cloud

    def believed_ids(self):
        return [s.server_id for s in self._cloud]

    def responds(self, server_id):
        return server_id in self._cloud and server_id not in self.ghosts

    def reachable(self, src, dst):
        return (src, dst) not in self.cuts


class TestCopyMirrorKeepsAckedCopies:
    def test_decommission_drain_skips_a_ghost(self):
        """A removed replica hands its copies to the first remaining
        replica that answers: draining into a ghost loses them when the
        ghost's crash is detected."""
        cloud = Cloud()
        for i in range(3):
            cloud.add_server(make_server(
                i, Location(i, 0, 0, 0, 0, 0), storage_capacity=10**9,
            ))
        rings = RingSet()
        ring = rings.add_ring(0, 0, AvailabilityLevel(1.0, 3), 1,
                              initial_size=0)
        catalog = ReplicaCatalog(cloud)
        (partition,) = list(ring)
        for sid in range(3):
            catalog.place(partition, sid)
        # 0 is a ghost and 1 cannot reach 2: only replica 1 acks.
        view = GhostView(cloud, ghosts=(0,), cuts=((1, 2),))
        store = QuorumKVStore(cloud, rings, catalog, membership=view,
                              track_catalog=True)
        write = store.put(0, 0, "k", b"v", level=Level.ONE)
        assert write.acked == (1,)
        catalog.drop(partition, 1)  # planned removal: drain
        cloud.remove_server(0)      # the ghost's crash is detected
        catalog.drop_server(0)
        assert store.surviving_version(0, 0, "k") == write.version

    def test_moves_never_empty_the_catalog(self):
        """§II-C moves over the replication budget (partitions larger
        than the migration budget): the pass used to drop the source as
        it queued the copy, so a partition whose replicas all moved in
        one pass sat at zero replicas and the copy mirror threw its data
        away.  32 servers, 10 epochs, no crash: nothing may be lost."""
        layout = CloudLayout(
            countries=4, countries_per_continent=2,
            datacenters_per_country=1, rooms_per_datacenter=1,
            racks_per_room=2, servers_per_rack=4,
        )
        apps = (AppConfig(app_id=0, name="a", query_share=1.0, rings=(
            RingConfig(ring_id=0, threshold=0.5, target_replicas=1,
                       partitions=12, partition_capacity=10_000,
                       initial_partition_size=3000),
        )),)
        sim = Simulation(SimConfig(
            layout=layout, apps=apps, epochs=10, seed=0,
            server_storage=60_000, server_query_capacity=100,
            replication_budget=20_000, migration_budget=2_000,
            base_rate=100.0, policy=EconomicPolicy(hysteresis=1),
            rent_model=RentModel(alpha=1.0),
            serving=ServingConfig(
                requests_per_epoch=32, keyspace=24, read_fraction=0.3,
            ),
        ))
        emptied = []

        class EmptyWatch:
            def replica_added(self, pid, server_id, servers):
                pass

            def replica_removed(self, pid, server_id, servers):
                if not servers:
                    emptied.append(pid)

            def server_dropped(self, server_id, lost):
                pass

            def partition_split(self, parent, low, high, servers):
                pass

            def storage_changed(self, server_id, delta):
                pass

        sim.catalog.add_listener(EmptyWatch())
        sim.run()
        assert sim.metrics.series("migrations").sum() > 0
        assert emptied == []
        assert sim.serving.lost_writes() == []
