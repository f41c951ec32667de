"""Random-placement ablation: the economy minus eq. 3.

Runs the full §II-C decision process (availability repair, hysteresis,
suicide, migration, economic replication) but replaces the eq. 3
candidate scoring with a uniformly random feasible server.  Comparing
it against the full policy isolates what diversity-aware, cost-aware
placement itself contributes to availability and cost.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.board import PriceBoard
from repro.core.decision import DecisionEngine
from repro.core.placement import Candidate, PlacementScorer


class RandomScorer(PlacementScorer):
    """Drop-in scorer that ignores scores and picks a random candidate.

    Feasibility masking (alive, storage, not-already-hosting, max rent)
    is identical to the real scorer; only the argmax is replaced by a
    uniform draw, so differences in outcomes are attributable to the
    *choice*, not to feasibility.
    """

    #: ``best`` consumes exactly one rng draw per call that has at
    #: least one feasible candidate (a call with none returns ``None``
    #: *before* drawing).  Which calls those are depends on the replica
    #: set, exclusions and rent cap of each — so the decision engine
    #: must not skip, memoize or pre-empt any call (rent-floor proofs
    #: included), or the stream would depend on the skip logic.
    best_is_pure = False

    def __init__(self, cloud, board, rng: np.random.Generator,
                 **terms) -> None:
        super().__init__(cloud, board, **terms)
        self._rng = rng

    def best(self, replica_servers: Sequence[int], *,
             need_bytes: int = 0,
             g: Optional[np.ndarray] = None,
             max_rent: Optional[float] = None,
             exclude: Sequence[int] = (),
             budget: Optional[str] = None,
             headroom_fraction: float = 0.0,
             cache_key: Optional[object] = None) -> Optional[Candidate]:
        # ``cache_key`` identifies the replica set for eq. 3 gain
        # caching; the random ablation never scores, so it is unused.
        ids = self.server_ids
        blocked = set(replica_servers) | set(exclude)
        headroom = (
            self._budget_headroom(budget) if budget is not None else None
        )
        feasible: List[int] = []
        for i, sid in enumerate(ids):
            if sid in blocked:
                continue
            if not self._alive[i]:
                continue
            need = need_bytes + int(self._capacity[i] * headroom_fraction)
            if self._storage[i] < need:
                continue
            if max_rent is not None and self._rents[i] >= max_rent:
                continue
            if headroom is not None and headroom[i] < need_bytes:
                continue
            feasible.append(i)
        if not feasible:
            return None
        idx = feasible[int(self._rng.integers(len(feasible)))]
        div_sum = 0.0
        for sid in replica_servers:
            if sid in self._cloud:
                div_sum += float(self._cloud.diversity_row(sid)[idx])
        return Candidate(
            server_id=ids[idx],
            score=float("nan"),
            diversity_gain=div_sum * float(self._conf[idx]),
            rent=float(self._rents[idx]),
        )


class RandomPlacementDecider(DecisionEngine):
    """The economic policy with random (feasible) candidate selection."""

    def __init__(self, *args, rng: Optional[np.random.Generator] = None,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def _make_scorer(self, board: PriceBoard) -> RandomScorer:
        return RandomScorer(
            self._cloud, board, self._rng, **self._scorer_terms()
        )


#: Factory for :class:`~repro.sim.engine.Simulation`.
random_placement_decider = RandomPlacementDecider.from_context
