"""The shared Zipf sampler continues ``Generator.choice(n, p=p)`` streams.

Before ISSUE 14 both client generators drew each key with
``rng.choice(keyspace, p=weights)``.  The inverse-CDF sampler must give
the same index from the same single double, so every seeded arrival
stream is where it was; the serving-stream golden is the forward
contract, this documents the continuity.
"""

import numpy as np
import pytest

from repro.ring.hashing import hash_key
from repro.workload.keys import ZipfKeys


def legacy_weights(keyspace):
    weights = 1.0 / (np.arange(keyspace, dtype=np.float64) + 1.0)
    return weights / weights.sum()


@pytest.mark.parametrize("keyspace", [1, 2, 64, 4096])
def test_draw_matches_generator_choice_index_for_index(keyspace):
    universe = ZipfKeys("sv", keyspace)
    p = legacy_weights(keyspace)
    legacy, ours = np.random.default_rng(14), np.random.default_rng(14)
    for _ in range(50_000 if keyspace == 4096 else 5_000):
        assert universe.draw(ours) == int(legacy.choice(keyspace, p=p))
    assert ours.bit_generator.state == legacy.bit_generator.state


def test_universe_names_and_positions():
    universe = ZipfKeys("dp", 16)
    assert universe.keys[0] == b"dp-000000"
    assert universe.keys[-1] == b"dp-000015"
    assert universe.positions == tuple(hash_key(k) for k in universe.keys)


def test_draw_is_zipf_skewed():
    universe = ZipfKeys("sv", 32)
    rng = np.random.default_rng(0)
    counts = np.bincount(
        [universe.draw(rng) for _ in range(20_000)], minlength=32
    )
    assert counts[0] > 3 * counts[7] > 0
    assert counts.sum() == 20_000 and counts[31] > 0
