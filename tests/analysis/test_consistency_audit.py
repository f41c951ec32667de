"""Tests for the linearizability-lite consistency audit."""

from typing import NamedTuple

from repro.analysis.consistency import AnomalyKind, ConsistencyFrontier


class ClientOp(NamedTuple):
    """One recorded operation, as :func:`audit_history` reads it."""

    seq: int
    epoch: int
    kind: str
    level: str
    app_id: int
    ring_id: int
    key: bytes
    ok: bool
    version: int
    ghost_served: bool = False


def audit_history(history, final_versions=None):
    """Fold ``history`` in issue order, as the serving overlays do.

    ``final_versions`` maps a key identity to the freshest surviving
    version (missing keys read as 0) and arms the lost-write check.
    """
    frontier = ConsistencyFrontier()
    for o in history:
        frontier.fold(
            o.seq, o.epoch, o.kind, o.level,
            (o.app_id, o.ring_id, o.key), o.version if o.ok else -1,
            o.ghost_served,
        )
    if final_versions is None:
        return frontier.report()
    return frontier.report(lambda *ident: final_versions.get(ident, 0))


def op(seq, kind, *, version, ok=True, level="quorum", key=b"k",
       epoch=0, ghost=False):
    return ClientOp(
        seq=seq, epoch=epoch, kind=kind, level=level,
        app_id=0, ring_id=0, key=key, ok=ok, version=version,
        ghost_served=ghost,
    )


class TestFrontier:
    def test_clean_history_is_green(self):
        report = audit_history([
            op(0, "put", version=1),
            op(1, "get", version=1),
            op(2, "put", version=2),
            op(3, "get", version=2),
        ])
        assert report.green
        assert report.operations == 4
        assert report.reads == 2 and report.writes == 2
        assert report.committed_keys == 1
        assert not report.anomalies

    def test_weak_writes_do_not_commit(self):
        report = audit_history([
            op(0, "put", version=5, level="one"),
            op(1, "get", version=0),  # behind v5 — but v5 never committed
        ])
        assert report.committed_keys == 0
        assert report.stale_reads == 0

    def test_failed_writes_do_not_commit(self):
        report = audit_history([
            op(0, "put", version=-1, ok=False),
            op(1, "get", version=0),
        ])
        assert report.failed_ops == 1
        assert report.committed_keys == 0
        assert not report.anomalies


class TestStaleReads:
    def test_strong_stale_read_flagged(self):
        report = audit_history([
            op(0, "put", version=2),
            op(1, "get", version=1),
        ])
        assert report.stale_reads == 1
        anomaly = report.anomalies[0]
        assert anomaly.kind is AnomalyKind.STALE_READ
        assert anomaly.seq == 1
        assert report.green  # stale reads alone never redden the audit

    def test_weak_stale_read_tallied_not_flagged(self):
        report = audit_history([
            op(0, "put", version=2),
            op(1, "get", version=1, level="one"),
        ])
        assert report.stale_reads == 0
        assert report.weak_stale_reads == 1

    def test_read_ahead_of_frontier_is_fine(self):
        # Read-repair can surface versions newer than the last
        # committed strong write; that is not an anomaly.
        report = audit_history([
            op(0, "put", version=1),
            op(1, "put", version=3, level="one"),
            op(2, "get", version=3),
        ])
        assert not report.anomalies

    def test_keys_are_independent(self):
        report = audit_history([
            op(0, "put", version=2, key=b"a"),
            op(1, "get", version=0, key=b"b"),
        ])
        assert report.stale_reads == 0


class TestLostWrites:
    def test_committed_version_must_survive(self):
        report = audit_history(
            [op(0, "put", version=3)],
            final_versions={(0, 0, b"k"): 2},
        )
        assert report.lost_writes == 1
        assert not report.green

    def test_missing_key_counts_as_version_zero(self):
        report = audit_history(
            [op(0, "put", version=1)],
            final_versions={},
        )
        assert report.lost_writes == 1

    def test_surviving_hint_satisfies_durability(self):
        report = audit_history(
            [op(0, "put", version=3)],
            final_versions={(0, 0, b"k"): 3},
        )
        assert report.lost_writes == 0
        assert report.green

    def test_no_final_versions_skips_durability(self):
        report = audit_history([op(0, "put", version=3)])
        assert report.lost_writes == 0


class TestGhostReads:
    def test_dirty_ghost_read_reddens(self):
        report = audit_history([
            op(0, "put", version=1),
            op(1, "get", version=1, ghost=True),
        ])
        assert report.dirty_ghost_reads == 1
        assert not report.green


class TestRender:
    def test_green_report(self):
        text = audit_history([
            op(0, "put", version=1), op(1, "get", version=1),
        ]).render()
        assert "consistency audit GREEN" in text
        assert "lost writes: 0" in text

    def test_red_report_lists_anomalies(self):
        text = audit_history(
            [op(0, "put", version=3)],
            final_versions={(0, 0, b"k"): 1},
        ).render()
        assert "consistency audit RED" in text
        assert "lost_write" in text
        assert "v3 survives only as v1" in text

    def test_long_anomaly_list_truncated(self):
        history = [op(i, "put", version=i + 1, key=b"%d" % i)
                   for i in range(12)]
        text = audit_history(
            history, final_versions={},
        ).render()
        assert "... and 2 more" in text


class TestOnlineFold:
    """The overlays fold each request as it completes; the recorded-
    history replay is the same fold, so both give one verdict."""

    HISTORY = [
        op(0, "put", version=2),
        op(1, "get", version=1),
        op(2, "put", version=4, level="one"),
        op(3, "get", version=1, level="one"),
        op(4, "get", version=-1, ok=False),
        op(5, "put", version=-1, ok=False, key=b"j"),
        op(6, "put", version=1, key=b"j"),
    ]

    def test_online_fold_equals_the_replay(self):
        """Folding each op as it completes (failures carry version -1)
        gives the verdict the recorded-history replay gives."""
        folded = ConsistencyFrontier()
        history = self.HISTORY + [
            op(7, "get", version=2), op(8, "get", version=0, key=b"x"),
        ]
        for o in history:
            folded.fold(o.seq, o.epoch, o.kind, o.level,
                        (o.app_id, o.ring_id, o.key), o.version)
        report = folded.report()
        assert report == audit_history(history)
        assert (report.operations, report.reads, report.failed_ops) == (9, 5, 2)

    def test_lost_counts_every_acked_level(self):
        """``lost`` (the overlays' ``lost_writes``) audits the freshest
        ack at any level; the report's lost writes only strong commits."""
        frontier = ConsistencyFrontier()
        for o in self.HISTORY:
            frontier.fold(o.seq, o.epoch, o.kind, o.level,
                          (o.app_id, o.ring_id, o.key), o.version)
        final = {(0, 0, b"k"): 2, (0, 0, b"j"): 1}
        assert frontier.lost(lambda *ident: final.get(ident, 0)) == [
            (0, 0, b"k", 4, 2),
        ]
        assert frontier.report(lambda *ident: final.get(ident, 0)) \
            .lost_writes == 0
