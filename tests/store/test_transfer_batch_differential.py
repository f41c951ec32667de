"""Differential harness: the slot-column batch against the object walk.

``reference_transfer_batch.ReferenceTransferBatch`` is the batch as it
stood before it moved onto slot columns (``Server`` row views, a
``TransferKind``-keyed dict of budget vectors, per-object grouped
reservations at commit); ``repro.store.transfer.TransferBatch`` is the
shipped one.  Both are driven over identically built small clouds —
drawn capacities, budgets, dead servers, optional reachability — by the
same drawn script of replications (sourced and sourceless), moves on
either budget, source-first refusals, immediate suicides on untouched
partitions, mirror reads and commits.  After every step the harness
demands the same outcome (or the same exception), the same deferred
count and failure records; after every commit the same results, the
same ``ServerTable`` storage and budget columns and the same catalog.

Tier-1 runs a derandomized budget; the ``slow`` twin explores a larger,
freshly drawn one (``scripts/verify_slow.sh``).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_transfer_batch import ReferenceTransferBatch
from repro.cluster.location import Location
from repro.cluster.server import make_server
from repro.cluster.topology import Cloud
from repro.ring.keyspace import KeyRange
from repro.ring.partition import Partition, PartitionId
from repro.store.replica import ReplicaCatalog, ReplicaError
from repro.store.transfer import TransferEngine, TransferKind

KINDS = (TransferKind.REPLICATION, TransferKind.MIGRATION)


class World:
    """One batch over its own cloud, catalog and transfer engine."""

    def __init__(self, batch_cls, servers, partitions, placed, dead,
                 cut) -> None:
        self.cloud = Cloud()
        for sid, (storage, rep, mig) in enumerate(servers):
            self.cloud.add_servers([make_server(
                sid, Location(sid % 3, sid % 2, 0, 0, 0, sid),
                storage_capacity=storage, replication_budget=rep,
                migration_budget=mig,
            )])
        self.catalog = ReplicaCatalog(self.cloud)
        self.partitions = [
            Partition(PartitionId(0, 0, i), KeyRange(i, i + 1), size,
                      10_000)
            for i, size in enumerate(partitions)
        ]
        for pidx, sid in placed:
            p = self.partitions[pidx % len(self.partitions)]
            sid %= len(servers)
            server = self.cloud.server(sid)
            if (not self.catalog.has_replica(p.pid, sid)
                    and p.size <= server.storage_available):
                self.catalog.place(p, sid)
        for sid in dead:
            self.cloud.server(sid % len(servers)).fail()
        self.engine = TransferEngine(self.cloud, self.catalog)
        if cut:
            self.engine.set_reachability(
                lambda src, dst: (src + dst) % cut != 0
            )
        self.batch_cls = batch_cls
        self.batch = batch_cls(self.engine)
        self.touched = set()

    def step(self, action):
        """Apply one script action; returns what the caller observes."""
        op, pidx, a, b, k = action
        p = self.partitions[pidx % len(self.partitions)]
        n = len(self.cloud)
        src, dst, kind = a % n, b % n, KINDS[k % 2]
        try:
            if op == "rep":
                if src == dst:
                    # Never an engine intent (a source holds a replica,
                    # a destination none), and not one the mirrors see
                    # as a double charge.
                    return "skipped"
                self.touched.add(p.pid)
                return self.batch.add_replication(p, src, dst)
            if op == "rep0":
                self.touched.add(p.pid)
                return self.batch.add_replication(p, None, dst)
            if op == "mig":
                self.touched.add(p.pid)
                return self.batch.add_migration(p, src, dst, kind)
            if op == "refuse":
                return self.batch.refuse_at_source(p, src, kind)
            if op == "drop":
                # An immediate suicide, on a partition no intent names.
                if p.pid not in self.touched and self.catalog.has_replica(
                    p.pid, src
                ):
                    self.engine.suicide(p, src)
                    return "dropped"
                return None
            if op == "read":
                return (self.batch.budget_available(src, kind),
                        self.batch.storage_available(src))
            if op == "commit":
                results = self.batch.commit()
                self.batch = self.batch_cls(self.engine)
                self.touched.clear()
                return [
                    (r.kind, r.outcome, r.pid, r.src, r.dst, r.nbytes)
                    for r in results
                ]
        except ReplicaError as exc:
            return ("raised", str(exc))
        raise AssertionError(op)

    def state(self):
        stats = self.engine.stats
        table = self.cloud.table
        n = len(table)
        return (
            stats.deferred, stats.replications, stats.migrations,
            stats.bytes_moved,
            [(r.kind, r.outcome, r.pid, r.src, r.dst, r.nbytes)
             for r in stats.failures],
            table.storage_used[:n].tolist(), table.rep_used[:n].tolist(),
            table.mig_used[:n].tolist(),
            [self.catalog.servers_of(p.pid) for p in self.partitions],
            len(self.batch),
        )


@st.composite
def worlds(draw):
    n = draw(st.integers(2, 7))
    servers = draw(st.lists(st.tuples(
        st.sampled_from((300, 450, 1_000)),
        st.sampled_from((0, 150, 250, 600)),
        st.sampled_from((0, 100, 250)),
    ), min_size=n, max_size=n))
    partitions = draw(st.lists(
        st.sampled_from((0, 100, 150, 240)), min_size=1, max_size=6
    ))
    placed = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 6)), max_size=10
    ))
    dead = draw(st.lists(st.integers(0, 6), max_size=2))
    cut = draw(st.sampled_from((0, 0, 3, 4)))
    return servers, partitions, placed, dead, cut


actions = st.lists(st.tuples(
    st.sampled_from((
        "rep", "rep", "rep0", "mig", "mig", "refuse", "drop", "read",
        "commit",
    )),
    st.integers(0, 5), st.integers(0, 6), st.integers(0, 6),
    st.integers(0, 1),
), min_size=1, max_size=40)


def run_script(world_args, script):
    shipped = World(TransferBatchUnderTest, *world_args)
    oracle = World(ReferenceTransferBatch, *world_args)
    assert shipped.state() == oracle.state()
    for action in script + [("commit", 0, 0, 0, 0)]:
        got, want = shipped.step(action), oracle.step(action)
        assert got == want, action
        assert shipped.state() == oracle.state(), action


def TransferBatchUnderTest(engine):
    """The shipped batch, opened the way the §II-C pass opens it."""
    return engine.open_batch()


@given(world_args=worlds(), script=actions)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_batch_equals_object_walk(world_args, script):
    run_script(world_args, script)


@pytest.mark.slow
@given(world_args=worlds(), script=actions)
@settings(max_examples=3000, deadline=None)
def test_batch_equals_object_walk_sweep(world_args, script):
    run_script(world_args, script)


def test_check_order_dead_full_drained():
    """Named case: a dead destination, then a full one, then a drained
    source — each outranks what follows it, in both batches."""
    args = ([(1_000, 100, 100), (1_000, 600, 100), (100, 600, 100),
             (1_000, 600, 100)],
            [100, 100, 100], [(0, 0), (1, 0), (2, 3)], [1], 0)
    script = [("rep", 2, 3, 1, 0), ("rep", 0, 0, 2, 0),
              ("rep", 1, 0, 2, 0), ("rep", 1, 0, 3, 0),
              ("rep0", 1, 0, 3, 0)]
    run_script(args, script)
    world = World(TransferBatchUnderTest, *args)
    outcomes = [world.step(action) for action in script]
    assert [o and o.name for o in outcomes] == [
        "DEST_DOWN", None, "NO_DEST_STORAGE", "NO_SOURCE_BANDWIDTH", None,
    ]
