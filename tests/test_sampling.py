"""Quasi-uniform sampling of balls."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebstab.sampling import (
    _kronecker_alphas,
    _phases,
    ball_points,
    low_discrepancy,
    unit_directions,
)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_ball_radius_independent_of_direction(m):
    # the radius must not share a Kronecker step with a direction
    # coordinate: then one half-ball sees radii that are far from uniform
    pts = ball_points(np.zeros(m), 1.0, 4096, seed=0)
    r = np.linalg.norm(pts, axis=1)
    half = pts[:, 0] > 0.0
    shell = int(np.sum(half & (r >= 0.24) & (r < 0.38)))
    uniform = np.sum(half) * (0.38 ** m - 0.24 ** m)
    assert abs(shell - uniform) <= 0.1 * uniform


@settings(max_examples=40)
@given(m=st.integers(1, 6), n=st.integers(1, 300), data=st.data())
def test_seed_sequences_stack_the_one_seed_draws_bit_for_bit(m, n, data):
    k = data.draw(st.integers(1, 8))
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=k,
                               max_size=k))
    radii = data.draw(st.lists(st.floats(1e-12, 1e3), min_size=k, max_size=k))
    center = np.linspace(-1.0, 2.0, m)
    pairs = 2 * ((m + 1) // 2)
    for batch, one in [
        (ball_points(center, radii, n, seeds),
         [ball_points(center, r, n, s) for r, s in zip(radii, seeds)]),
        (unit_directions(m, n, seeds),
         [unit_directions(m, n, s) for s in seeds]),
        (low_discrepancy(pairs + 1, n, seeds),
         [low_discrepancy(pairs + 1, n, s) for s in seeds]),
    ]:
        assert batch.tobytes() == np.vstack(one).tobytes()


def test_ball_points_rejects_unequal_sequences():
    with pytest.raises(ValueError):
        ball_points(np.zeros(2), [1.0, 0.5], 4, [0, 1, 2])


@pytest.mark.parametrize("seed", [0, 3, [0], [1, 2, 3], list(range(8)),
                                  [2**32 - 1, 12345]])
def test_low_discrepancy_matches_the_remainder_form_bit_for_bit(seed):
    # every phase and step is >= 0, where x - floor(x) and x % 1.0 agree
    # to the last bit
    for d in (1, 2, 5, 9):
        for n in (1, 7, 256, 1000):
            steps = np.arange(1, n + 1, dtype=float)[:, None] * _kronecker_alphas(d)
            x = steps[None] + _phases(d, seed)[:, None]
            assert low_discrepancy(d, n, seed).tobytes() == \
                (x % 1.0).reshape(-1, d).tobytes()
