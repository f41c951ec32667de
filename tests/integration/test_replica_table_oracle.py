"""The one replica table against the hand-paired registry it replaced.

The catalog owns every replica's agent ledger row: a placement acquires
one, a drop releases it, a move keeps it, a split hands each server two
child rows at half the parent's wealth.  Before, each catalog mutation
was mirrored by hand through an ``AgentRegistry`` with its own rows
(frozen as :mod:`tests.core.reference_registry`).  This harness runs
that reference beside a real simulation — every catalog mutation is
paired into it exactly as the engine used to pair it (place ⇔ spawn,
drop ⇔ retire, move ⇔ rehome, split, server drop), and every ledger
write the epoch makes (settlement, the replicating agent's window
reset) is mirrored onto the reference agent that owns the row — and
after every epoch checks, per (partition, server) agent, that wealth,
balance window, streak runs, moves and epochs alive agree, and that
each partition's agent order is the catalog's order.

Agents are compared by (partition, server), never by row number: the
vectorized pass used to spawn or re-home an agent when its intent was
queued, while the catalog changes at the batch commit, so rows can be
numbered differently around a suicide (which happens at once).

Specs: the churn-augmented sampled specs (every epoch mutates the
cloud, the catalog or both) under both kernels — whose streams must
still agree — and the benchmark's ``faults-churn`` workload (splits,
kills, ghosts, join/leave waves).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.agent import AgentLedger
from repro.sim.engine import Simulation
from repro.sim.framedump import frame_diff, frames_to_jsonable
from repro.sim.scenario import (
    FailureSpec,
    JoinWave,
    LeaveWave,
    compile_spec,
    load_spec,
)
from repro.store.replica import ReplicaCatalog
from tests.core.reference_registry import ReferenceRegistry, row_state
from tests.spec_samplers import sample_spec

SEEDS = tuple(range(3))
SLOW_SEEDS = tuple(range(3, 10))
FAULTS_CHURN = (
    Path(__file__).resolve().parents[2]
    / "benchmarks/e2e/workloads/faults-churn.json"
)


def churnify(spec):
    """Replace the spec's failure plan with per-epoch join/leave waves.

    Alternating small waves across the whole horizon: every epoch
    starts with a cloud mutation, and the economy's own transfers keep
    the catalog moving.
    """
    epochs = spec.operations.epochs
    waves = []
    for epoch in range(1, max(2, epochs - 1)):
        if epoch % 2:
            waves.append(JoinWave(epoch=epoch, count=2))
        else:
            waves.append(LeaveWave(epoch=epoch, count=1))
    return dataclasses.replace(
        spec,
        name=spec.name + "-churn",
        failure=FailureSpec(events=tuple(waves)),
    )


class Pairing:
    """Pairs every catalog built while installed with a reference
    registry, the way the engine once paired them by hand."""

    def __init__(self, monkeypatch) -> None:
        self.refs: Dict[ReplicaCatalog, ReferenceRegistry] = {}
        self._owners: Dict[ReplicaCatalog, Tuple[int, dict]] = {}
        refs = self.refs
        cat = {
            name: getattr(ReplicaCatalog, name)
            for name in ("__init__", "place", "drop", "move",
                         "split_partition", "drop_server")
        }

        def init(catalog, cloud, window=1):
            cat["__init__"](catalog, cloud, window)
            refs[catalog] = ReferenceRegistry(window)

        def place(catalog, partition, server_id):
            key = cat["place"](catalog, partition, server_id)
            refs[catalog].spawn(partition.pid, server_id)
            return key

        def drop(catalog, partition, server_id):
            cat["drop"](catalog, partition, server_id)
            refs[catalog].retire(partition.pid, server_id)

        def move(catalog, partition, src, dst):
            key = cat["move"](catalog, partition, src, dst)
            refs[catalog].rehome(partition.pid, src, dst)
            return key

        def split_partition(catalog, parent, low, high):
            cat["split_partition"](catalog, parent, low, high)
            refs[catalog].split_partition(parent.pid, low.pid, high.pid)

        def drop_server(catalog, server_id):
            lost = cat["drop_server"](catalog, server_id)
            refs[catalog].drop_server(server_id)
            return lost

        for name, fn in (("__init__", init), ("place", place), ("drop", drop),
                         ("move", move), ("split_partition", split_partition),
                         ("drop_server", drop_server)):
            monkeypatch.setattr(ReplicaCatalog, name, fn)

        record_batch = AgentLedger.record_batch
        record = AgentLedger.record
        reset_window = AgentLedger.reset_window

        def mirrored_batch(ledger, rows, utilities, rents):
            record_batch(ledger, rows, utilities, rents)
            for ref, owned in self._mirrors(ledger, rows.tolist()):
                record_batch(ref.ledger, np.array(owned, dtype=np.intp),
                             utilities, rents)

        def mirrored_record(ledger, row, utility, rent):
            balance = record(ledger, row, utility, rent)
            for ref, owned in self._mirrors(ledger, [row]):
                record(ref.ledger, owned[0], utility, rent)
            return balance

        def mirrored_reset(ledger, row):
            reset_window(ledger, row)
            # The catalog's own move resets its row too; the reference
            # pairs that through ``rehome``, after the move returns —
            # when the destination agent does not exist there yet.
            for ref, owned in self._mirrors(ledger, [row], missing_ok=True):
                reset_window(ref.ledger, owned[0])

        monkeypatch.setattr(AgentLedger, "record_batch", mirrored_batch)
        monkeypatch.setattr(AgentLedger, "record", mirrored_record)
        monkeypatch.setattr(AgentLedger, "reset_window", mirrored_reset)

    def _owner(self, catalog: ReplicaCatalog) -> dict:
        """Row → (pid, server) over the catalog, cached per version."""
        cached = self._owners.get(catalog)
        if cached is None or cached[0] != catalog.version:
            owner = {
                row: (pid, sid)
                for pid in catalog.partitions()
                for sid, row in zip(catalog.replica_servers(pid),
                                    catalog.rows_of(pid))
            }
            cached = self._owners[catalog] = (catalog.version, owner)
        return cached[1]

    def _mirrors(self, ledger, rows, missing_ok=False):
        """(reference, its rows for ``rows``) for the catalog owning
        ``ledger`` (none for a detached or reference ledger)."""
        for catalog, ref in self.refs.items():
            if catalog.ledger is not ledger:
                continue
            owner = self._owner(catalog)
            keys = [owner[row] for row in rows]
            if missing_ok and not all(ref.has(*key) for key in keys):
                return
            yield ref, [ref.get(*key).row for key in keys]


def check_agents(catalog: ReplicaCatalog, ref: ReferenceRegistry,
                 where: str) -> None:
    """Every (partition, server) agent agrees with the reference."""
    ref.check_mirror(catalog.servers_of)
    assert len(ref) == catalog.total_replicas, where
    assert set(ref.partitions()) == set(catalog.partitions()), where
    ledger = catalog.ledger
    for pid in catalog.partitions():
        servers = list(catalog.replica_servers(pid))
        agents = ref.of_partition(pid)
        assert [ref.server_id(a) for a in agents] == servers, (
            f"{where}: {pid}'s agent order is not the catalog's"
        )
        for sid, row in zip(servers, catalog.rows_of(pid)):
            assert row_state(ledger, row) == ref.state(ref.get(pid, sid)), (
                f"{where}: agent {pid}@{sid} diverged"
            )


def run_paired(spec, monkeypatch, kernel="vectorized"):
    """Step ``spec`` with the reference paired in; check every epoch."""
    pairing = Pairing(monkeypatch)
    compiled = compile_spec(spec.with_operations(kernel=kernel))
    sim = Simulation(compiled.config, events=compiled.events())
    ref = pairing.refs[sim.catalog]
    check_agents(sim.catalog, ref, "seeding")
    for epoch in range(spec.operations.epochs):
        sim.step()
        ref.maybe_compact()
        sim.catalog.check_consistency(
            {p.pid: p for p in sim.rings.layout().partitions}
        )
        check_agents(sim.catalog, ref, f"{kernel} epoch {epoch}")
    monkeypatch.undo()
    return sim


def assert_churn_agrees(seed: int, monkeypatch) -> None:
    spec = churnify(sample_spec(seed))
    vectorized = frames_to_jsonable(
        run_paired(spec, monkeypatch, "vectorized").metrics
    )
    scalar = frames_to_jsonable(
        run_paired(spec, monkeypatch, "scalar").metrics
    )
    rtol = spec.operations.rtol
    assert len(vectorized) == len(scalar)
    if rtol <= 0.0:
        assert vectorized == scalar, (
            f"seed {seed}: kernels diverge bit-exactly under churn"
        )
        return
    for i, (a, b) in enumerate(zip(vectorized, scalar)):
        problems = frame_diff(a, b, rtol=rtol)
        assert not problems, (
            f"seed {seed} epoch {i}: " + "; ".join(problems[:5])
        )


class TestReplicaTableOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_churned_specs_fast(self, seed, monkeypatch):
        assert_churn_agrees(seed, monkeypatch)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", SLOW_SEEDS)
    def test_churned_specs_sweep(self, seed, monkeypatch):
        assert_churn_agrees(seed, monkeypatch)

    def test_faults_churn(self, monkeypatch):
        """Splits, kills, undetected ghosts, join/leave waves and the
        retry queue's replications, under a lossy net — and the harness
        pairs what it claims to: the reference saw spawns, retirements,
        moves, splits and server drops (a silent no-op pairing would
        pass every comparison)."""
        calls = dict.fromkeys(
            ("spawn", "retire", "rehome", "split_partition", "drop_server"),
            0,
        )
        for name in calls:
            original = getattr(ReferenceRegistry, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(ReferenceRegistry, name, counted)
        run_paired(load_spec(FAULTS_CHURN), monkeypatch)
        assert all(calls.values()), calls
