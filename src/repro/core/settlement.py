"""Eq. 5 settlement: every agent's per-epoch balance.

Under the uniform geography of §III-A a partition's epoch queries are
split equally among its live replicas.  With a discrete client
geography, replicas attract queries in proportion to their eq. 4
proximity weight g — clients route to nearby copies — so close
replicas both serve more traffic and earn more per query.  Each
agent's utility is floored at the epoch's minimum rent (§II-C
anti-thrashing) and its server's posted price is charged as rent.

Two kernels, side by side: :func:`settle_scalar` is the reference (one
Python pass per replica), :func:`settle_batched` the production pass
over the flat incidence, bit-identical to it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.cluster.topology import Cloud
from repro.core.agent import AgentLedger, AgentRegistry
from repro.core.availability import AvailabilityIndex
from repro.core.board import PriceBoard
from repro.core.incidence import Incidence
from repro.core.policy import REVENUE_PER_QUERY, KernelError
from repro.ring.partition import PartitionId
from repro.store.replica import ReplicaCatalog
from repro.workload.mix import EpochLoad


def settle_scalar(cloud: Cloud, catalog: ReplicaCatalog,
                  registry: AgentRegistry,
                  live_replicas: Callable[[PartitionId], List[int]],
                  load: EpochLoad, board: PriceBoard,
                  g_of_app: Optional[Dict[int, np.ndarray]] = None
                  ) -> None:
    """Reference eq. 5 settlement: one Python pass per replica."""
    floor = board.scan_min_price()
    for pid in catalog.partitions():
        servers = live_replicas(pid)
        if not servers:
            continue
        queries = load.queries_for(pid)
        g_vec = None
        if g_of_app is not None:
            g_vec = g_of_app.get(pid.app_id)
        if g_vec is None:
            shares = [queries / len(servers)] * len(servers)
            gs = [1.0] * len(servers)
        else:
            gs = [
                float(g_vec[cloud.slot(sid)]) for sid in servers
            ]
            g_total = sum(gs)
            if g_total <= 0:
                shares = [queries / len(servers)] * len(servers)
            else:
                shares = [queries * g / g_total for g in gs]
        for sid, share, g in zip(servers, shares, gs):
            server = cloud.server(sid)
            if share:
                server.record_queries(share)
            utility = REVENUE_PER_QUERY * share * g
            utility = max(utility, floor)
            rent = board.price(sid)
            agent = registry.get(pid, sid)
            agent.record(utility, rent)


def settle_batched(cloud: Cloud, ledger: AgentLedger,
                   incidence: Incidence, index: AvailabilityIndex,
                   load: EpochLoad, board: PriceBoard,
                   g_of_app: Optional[Dict[int, np.ndarray]] = None
                   ) -> None:
    """Slot-ordered numpy eq. 5 settlement over the flat incidence.

    Bit-identical to :func:`settle_scalar`: every elementwise
    operation maps one-to-one onto the scalar arithmetic, and the
    two order-sensitive accumulations — the per-partition proximity
    normaliser ``Σ g`` and the per-server query counters — keep the
    scalar visit order (``np.bincount`` accumulates its weights
    sequentially in data order, i.e. the same left fold; per-server
    counters start each epoch at exactly 0.0, so adding the folded
    total once is the same float computation).  Agent balances land
    through one vectorized ledger column write
    (:meth:`AgentLedger.record_batch`) instead of a per-replica
    Python pass.
    """
    floor = board.min_price()
    flat = incidence.flat_state()
    n_rep = len(flat.rep_slots)
    if not n_rep:
        return

    if load.index is not index.partition_index:
        raise KernelError(
            "batched settlement needs the epoch load drawn in the "
            "availability index's partition slot space"
        )
    # The load's counts live in the flat state's slot space: one gather.
    q_part = load.counts_at(flat.pid_slots).astype(np.float64)
    counts = flat.counts
    q_rep = np.repeat(q_part, counts)
    count_rep = np.repeat(counts.astype(np.float64), counts)
    g_rep = np.ones(n_rep, dtype=np.float64)
    uniform_rep = np.ones(n_rep, dtype=bool)
    if g_of_app is not None and any(
        vec is not None for vec in g_of_app.values()
    ):
        gtot_rep = np.empty(n_rep, dtype=np.float64)
        get_g = g_of_app.get
        offsets = flat.offsets.tolist()
        for p, pid in enumerate(flat.pids):
            g_vec = get_g(pid.app_id)
            if g_vec is None:
                continue
            lo, hi = offsets[p], offsets[p + 1]
            gs = g_vec[flat.rep_slots[lo:hi]]
            # Strict left fold, matching the scalar ``sum(gs)``.
            total = 0.0
            for value in gs.tolist():
                total += value
            # g enters the utility term even when the share
            # computation falls back to the uniform split
            # (degenerate Σg <= 0).
            g_rep[lo:hi] = gs
            if total > 0:
                gtot_rep[lo:hi] = total
                uniform_rep[lo:hi] = False
    shares = np.empty(n_rep, dtype=np.float64)
    shares[uniform_rep] = q_rep[uniform_rep] / count_rep[uniform_rep]
    prox = ~uniform_rep
    if prox.any():
        shares[prox] = q_rep[prox] * g_rep[prox] / gtot_rep[prox]
    utilities = np.maximum(
        REVENUE_PER_QUERY * shares * g_rep, floor
    )
    rents = board.price_vector(cloud.server_ids)[flat.rep_slots]

    # Per-server query counters: one sequential (left-fold) bincount
    # in replica visit order, then one vectorized column add onto
    # the server table (counters start each epoch at exactly 0.0,
    # so the elementwise ``+=`` is the same float computation as
    # the per-server ``record_queries`` fold).
    totals = np.bincount(
        flat.rep_slots, weights=shares, minlength=flat.n_slots
    )
    touched = np.flatnonzero(totals)
    if touched.size:
        cloud.record_queries_at(touched, totals[touched])

    # Agent ledger: one vectorized column write.
    ledger.record_batch(flat.rep_rows, utilities, rents)
