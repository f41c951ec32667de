"""Membership substrate — why instant board/failure handling is benign.

The simulator treats failure detection, board re-election and price
dissemination as instantaneous within an epoch.  This bench runs the
control plane's gossip fabric (:class:`repro.net.fabric.GossipFabric`)
at the paper's cluster size (N=200) and measures the
actual latencies, in gossip rounds, of:

* full dissemination of a freshly posted price table,
* cluster-wide detection of a crashed server,
* re-agreement on a new board after the board itself crashes,

including a lossy-network variant.  With rounds of ~1 s and epochs of
~1 h, all three complete in well under 1 % of an epoch.
"""

import numpy as np

from repro.analysis.tables import ClaimTable
from repro.cluster.topology import build_cloud
from repro.net.fabric import GossipFabric
from repro.net.model import NetConfig, NetworkModel
from repro.sim.reporting import format_table

N = 200
MAX_ROUNDS = 120


def converged_fabric(config, seed):
    """The §III-A cloud behind a fabric that ran 25 heartbeat rounds."""
    cloud = build_cloud()
    assert len(cloud) == N
    net = NetworkModel(config, cloud, np.random.default_rng(seed + 1))
    fabric = GossipFabric(config, net, cloud, np.random.default_rng(seed))
    fabric.register_initial(cloud.server_ids)
    for _ in range(25):
        fabric.membership_round()
    return fabric, cloud


def rounds_until(step, done):
    for rounds in range(1, MAX_ROUNDS + 1):
        step()
        if done():
            return rounds
    return MAX_ROUNDS


def measure(loss: float, seed: int):
    # Suspect/dead timeouts must exceed the epidemic freshness age
    # (~log_fanout N ≈ 5-6 rounds at N=200), as in any production
    # gossip failure detector; otherwise live peers flap to SUSPECT.
    config = NetConfig(loss=loss, dead_rounds=20)

    fabric, cloud = converged_fabric(config, seed)
    fabric.publish_version(1)
    dissemination = rounds_until(
        fabric.price_round,
        lambda: fabric.effective_version(cloud.server_ids) >= 1,
    )

    fabric, cloud = converged_fabric(config, seed)
    victim = cloud.server_ids[N // 2]
    cloud.server(victim).fail()
    detection = rounds_until(
        fabric.membership_round,
        lambda: victim in fabric.believed_dead(),
    )

    # The board is the lowest live id, which every node derives from
    # its own view: the successor takes over once *its* view has aged
    # the crashed board out.
    fabric, cloud = converged_fabric(config, seed)
    board = fabric.board_observer()
    cloud.server(board).fail()
    assert fabric.board_observer() != board
    reelection = rounds_until(
        fabric.membership_round,
        lambda: board in fabric.believed_dead(),
    )

    return {
        "dissemination": dissemination,
        "detection": detection,
        "reelection": reelection,
    }


def test_membership_latencies(benchmark):
    results = {}

    def make_and_run():
        results["clean"] = measure(loss=0.0, seed=0)
        results["10% loss"] = measure(loss=0.1, seed=1)
        results["30% loss"] = measure(loss=0.3, seed=2)
        return None

    benchmark.pedantic(make_and_run, rounds=1, iterations=1)

    print("\n" + "=" * 72)
    print(f"Membership substrate at N={N} (gossip rounds, fanout 3)")
    print("=" * 72)
    print(format_table(
        ["network", "price dissemination", "failure detection",
         "board re-election"],
        [
            [name, r["dissemination"], r["detection"], r["reelection"]]
            for name, r in results.items()
        ],
    ))

    claims = ClaimTable()
    worst = max(
        max(r.values()) for r in results.values()
    )
    claims.add(
        "membership",
        "decentralised coordination is fast enough to treat as instant "
        "per epoch",
        f"worst latency {worst} gossip rounds (~{worst}s) vs ~3600s epochs",
        worst < MAX_ROUNDS,
    )
    claims.add(
        "membership",
        "price table reaches all 200 servers in O(log N) rounds",
        f"{results['clean']['dissemination']} rounds clean, "
        f"{results['30% loss']['dissemination']} at 30% loss",
        results["clean"]["dissemination"] <= 12,
    )
    print(claims.render())
    assert claims.all_hold
