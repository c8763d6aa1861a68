"""Interior beta: the inradius of conv(G) from the double description of its
polar cone, exact and unbounded in the number of facets."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ebstab.geometry import (SubdiffSet, _inradius_at_origin, _polar_rays,
                             min_support_direction)
from ebstab.sampling import unit_directions

from conftest import polar_rays_reference, refine_sphere_min_multi, support


def _symmetric(k, m, seed):
    """2k points: k uniform in [-1, 1]^m and their negatives, so the origin
    is interior."""
    gens = np.random.default_rng(seed).uniform(-1, 1, size=(k, m))
    return np.vstack([gens, -gens])


@pytest.mark.parametrize("gens", [
    *(np.array(list(itertools.product([-1.0, 1.0], repeat=m)))
      for m in range(1, 7)),
    _symmetric(16, 5, seed=8), _symmetric(20, 6, seed=8),
    _symmetric(5, 3, seed=1), _symmetric(9, 4, seed=2)])
def test_polar_rays_match_the_split_blocks_bit_for_bit(gens):
    # the positive rays walked in slices give the blocks, and so the rays,
    # that np.split gave, on the l1 cubes (the vertices of the sets
    # d||x||_1 at the origin) and on symmetric random sets
    got, want = _polar_rays(gens), polar_rays_reference(gens)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_interior_inradius_above_old_enumeration_cap():
    # 32 points in R^5 have C(32, 5) = 201,376 facet subsets
    gens = _symmetric(16, 5, seed=8)
    assert math.comb(32, 5) > 200_000
    s = SubdiffSet(gens)
    value, h = min_support_direction(s)
    assert value > 0.0
    assert support(s, h)[0] == value
    # h is a facet normal: at least m tight generators spanning an
    # (m - 1)-flat
    tight = gens[gens @ h >= value - 1e-9]
    assert tight.shape[0] >= 5
    assert np.linalg.matrix_rank(tight[1:] - tight[0], tol=1e-9) == 4
    # no direction does better than the facet
    hs = unit_directions(5, 2000, seed=1)
    vals = support(s, hs)
    _, sampled = refine_sphere_min_multi(lambda c: support(s, c), hs,
                                         vals, starts=2)
    assert value <= sampled + 1e-9


@pytest.mark.parametrize("m", range(1, 7))
def test_cube_inradius_is_exactly_one(m):
    cube = np.array(list(itertools.product([-1.0, 1.0], repeat=m)))
    s = SubdiffSet(cube)
    value, h = min_support_direction(s)
    assert value == 1.0
    assert support(s, h)[0] == 1.0


@pytest.mark.parametrize("c", [1e-8, 1e4, 2.0 ** 400])
def test_inradius_scales_with_the_set(c):
    # the facet test reads G / max |g|, so a small hull is no blurrier
    # than a unit one
    rng = np.random.default_rng(3)
    for _ in range(40):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(m + 1, 9))
        g = rng.normal(size=(k, m))
        g -= rng.dirichlet(np.ones(k)) @ g
        want, _ = _inradius_at_origin(g)
        got, h = _inradius_at_origin(c * g)
        assert got == pytest.approx(c * want, rel=1e-9)
        assert got == np.max(c * g @ h)
    # REM8's subdifferential: one point, 1.03e-10 from the origin
    assert _inradius_at_origin(np.array([[1.03e-10]]))[0] == -1.03e-10


def test_inradius_memory_is_bounded():
    # a pairwise adjacency tensor over positive rays, negative rays and
    # constraints would take about 16 MB here
    gens = _symmetric(20, 6, seed=8)
    want, _ = _inradius_at_origin(gens)
    tracemalloc.start()
    try:
        value, _ = _inradius_at_origin(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == want > 0.0
    assert peak < 4 * 2 ** 20
