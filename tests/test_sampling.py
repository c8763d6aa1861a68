"""Quasi-uniform sampling of balls."""

import numpy as np
import pytest

from ebstab.sampling import ball_points


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
