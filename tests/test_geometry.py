"""Polytope-plus-ball geometry: support, min-norm point, signed distance."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebstab import geometry
from ebstab.geometry import (
    _DEDUPE_TOL,
    SubdiffSet,
    dedupe_rows,
    min_norm_point,
    min_support_direction,
    scale_set,
)
from ebstab.sampling import unit_directions

from conftest import (
    dedupe_rows_reference,
    random_subdiff_set,
    refine_sphere_min_multi,
    support,
)

CROSS = SubdiffSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))


def test_support_cross_polytope_diagonal():
    s = 1.0 / math.sqrt(2.0)
    assert support(CROSS, [s, s])[0] == pytest.approx(s, abs=1e-15)


def test_support_unit_ball():
    ball = SubdiffSet(np.zeros((1, 2)), 1.0)
    for h in ([1.0, 0.0], [0.6, 0.8]):
        assert support(ball, h)[0] == pytest.approx(1.0, abs=1e-12)


def test_support_singleton_orthogonal():
    s = SubdiffSet(np.array([[2.0, 0.0]]))
    assert support(s, [0.0, 1.0])[0] == 0.0


def test_min_norm_segment():
    s = SubdiffSet(np.array([[2.0, 0.0], [0.0, 2.0]]))
    res = min_norm_point(s)
    assert np.allclose(res.point, [1.0, 1.0], atol=1e-12)
    assert res.dist == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_min_norm_single_generator_1d():
    res = min_norm_point(SubdiffSet(np.array([[1.0]])))
    assert res.dist == 1.0


def test_min_norm_origin_inside():
    assert min_norm_point(CROSS).dist == pytest.approx(0.0, abs=1e-10)


def test_classify_origin_cases():
    # interior: on the set and off its boundary; outside: off the set;
    # on the boundary: on the set, at zero signed distance
    assert min_norm_point(CROSS).dist <= 1e-9
    assert min_support_direction(CROSS)[0] > 1e-9
    assert min_norm_point(SubdiffSet(np.array([[1.0, 0.0]]))).dist > 1e-9
    seg = SubdiffSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert min_norm_point(seg).dist <= 1e-9
    assert min_support_direction(seg)[0] <= 1e-9


def test_signed_distance_cross_polytope():
    want = 1.0 / math.sqrt(2.0)
    assert min_support_direction(CROSS)[0] == pytest.approx(want, abs=1e-12)


def test_signed_distance_point_1d():
    assert min_support_direction(SubdiffSet(np.array([[1.0]])))[0] == -1.0


def test_signed_distance_unit_ball():
    assert min_support_direction(SubdiffSet(np.zeros((1, 2)), 1.0))[0] == 1.0


def test_signed_distance_offset_ball():
    # 0 outside the hull but inside hull + ball: sigma = r - d_hull
    s = SubdiffSet(np.array([[0.5, 0.0]]), 1.0)
    assert min_support_direction(s)[0] == pytest.approx(0.5, abs=1e-12)


def test_min_support_direction_achieves_support():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        s = random_subdiff_set(rng, m)
        sigma, h = min_support_direction(s)
        assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-9)
        assert support(s, h)[0] == pytest.approx(sigma, abs=1e-8)


def test_min_norm_certificate_random():
    rng = np.random.default_rng(4)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        s = random_subdiff_set(rng, m)
        res = min_norm_point(s)
        p = res.point
        for g in s.generators:
            assert float(p @ (g - p)) >= -1e-9


def test_sphere_identity_random():
    # signed distance equals the sampled-and-refined minimum of the support
    rng = np.random.default_rng(5)
    for _ in range(500):
        m = int(rng.integers(1, 5))
        s = random_subdiff_set(rng, m)
        sigma = min_support_direction(s)[0]
        hs = unit_directions(m, 10_000, seed=int(rng.integers(1 << 16)))
        vals = support(s, hs)
        j = int(np.argmin(vals))
        tol = 1e-6 * (1.0 + abs(sigma))
        if abs(sigma - float(vals[j])) <= tol:
            continue
        _, refined = refine_sphere_min_multi(
            lambda c: support(s, c), hs, vals,
            verify_at=sigma + 0.5 * tol,
        )
        assert abs(sigma - refined) <= tol


def test_sign_consistency_random():
    rng = np.random.default_rng(6)
    tol = 1e-9
    for _ in range(200):
        m = int(rng.integers(1, 5))
        s = random_subdiff_set(rng, m)
        sigma = min_support_direction(s)[0]
        dist = min_norm_point(s).dist
        if sigma > tol:
            assert dist <= tol
        elif sigma < -tol:
            assert dist > tol
        else:
            assert dist <= tol


def test_translation_lipschitz():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        s = random_subdiff_set(rng, m)
        t = rng.uniform(-0.5, 0.5)
        u = rng.normal(size=m)
        u /= np.linalg.norm(u)
        shifted = SubdiffSet(s.generators + t * u, s.ball_radius)
        d1 = min_support_direction(s)[0]
        d2 = min_support_direction(shifted)[0]
        assert abs(d1 - d2) <= abs(t) + 1e-9


def test_duplicate_and_dependent_generators():
    s = SubdiffSet(np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    res = min_norm_point(s)
    assert res.dist == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert min_support_direction(s)[0] == pytest.approx(-math.sqrt(2.0), abs=1e-10)


@pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
def test_non_finite_ball_radius_rejected(radius):
    with pytest.raises(ValueError, match="ball_radius"):
        SubdiffSet(np.array([[1.0, 0.0]]), radius)


def test_set_keeps_first_occurrences_in_order():
    g = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0 + 1e-13],
                  [2.0, 2.0], [1.0, 0.0]])
    s = SubdiffSet(g)
    assert np.array_equal(s.generators, g[[0, 1, 4]])


def test_large_set_keeps_only_extreme_points():
    # 8 octagon vertices among 32 points of [-0.35, 0.35]^2, which lie
    # inside the octagon (inradius cos(pi/8) ~ 0.92)
    rng = np.random.default_rng(5)
    t = np.arange(8) * np.pi / 4
    octagon = np.column_stack([np.cos(t), np.sin(t)])
    inner = rng.uniform(-0.35, 0.35, size=(32, 2))
    g = np.vstack([inner, octagon])[rng.permutation(40)]
    s = SubdiffSet(g)
    is_vertex = np.isin(np.arange(40), np.flatnonzero(
        np.abs(np.linalg.norm(g, axis=1) - 1.0) < 1e-12))
    assert is_vertex.sum() == 8
    assert np.array_equal(s.generators, g[is_vertex])


def _dedupe_case(rng, k, m, kind):
    """k rows in R^m with planted coincidences: near-duplicates of earlier
    rows, rows exactly _DEDUPE_TOL from one, or chains a, b, c with
    d(a, b) and d(b, c) within the tolerance but d(a, c) beyond it."""
    rows = [rng.integers(-2, 3, size=m).astype(float)]
    while len(rows) < k:
        a = rows[int(rng.integers(len(rows)))]
        step = np.zeros(m)
        step[int(rng.integers(m))] = 1.0
        if kind == "near":
            rows.append(a + rng.uniform(-2.0, 2.0, size=m) * _DEDUPE_TOL)
        elif kind == "exact":
            # from a zero coordinate the offset is exactly _DEDUPE_TOL,
            # elsewhere within rounding of it
            rows.append(a + rng.choice([-1.0, 1.0]) * _DEDUPE_TOL * step)
        elif kind == "chain":
            rows += [a + 0.75 * _DEDUPE_TOL * step, a + 1.5 * _DEDUPE_TOL * step]
        else:
            rows.append(rng.integers(-2, 3, size=m).astype(float))
    return np.array(rows[:k])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 40),
       m=st.integers(1, 4), kind=st.sampled_from(["near", "exact", "chain",
                                                  "grid"]))
def test_dedupe_rows_equals_the_loop_bit_for_bit(seed, k, m, kind):
    g = _dedupe_case(np.random.default_rng(seed), k, m, kind)
    got, want = dedupe_rows(g), dedupe_rows_reference(g)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("block", [geometry._DEDUPE_BLOCK, 600, 1])
@pytest.mark.parametrize("kind", ["near", "exact", "chain", "grid"])
def test_dedupe_rows_blocks_match_the_loop_bit_for_bit(block, kind,
                                                       monkeypatch):
    # a few hundred rows split into blocks of the default size, of a few
    # rows, and of one row each, so that near pairs and chains straddle
    # the seams between blocks
    monkeypatch.setattr(geometry, "_DEDUPE_BLOCK", block)
    rng = np.random.default_rng(["near", "exact", "chain", "grid"].index(kind))
    for k, m in [(2, 1), (33, 2), (150, 1), (300, 2), (257, 3)]:
        g = _dedupe_case(rng, k, m, kind)
        got, want = dedupe_rows(g), dedupe_rows_reference(g)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_dedupe_rows_chain_across_a_block_seam():
    # rows a, b, c with b within the tolerance of a and c of b only: b is
    # the last row of one block and c the first of the next, so c is kept,
    # as b was dropped
    k, m = 300, 2
    step = geometry._DEDUPE_BLOCK // (k * m)
    g = np.arange(k * m, dtype=float).reshape(k, m)
    e = np.array([0.0, 1.0])
    g[step] = g[step - 1] + 0.75 * _DEDUPE_TOL * e
    g[step + 1] = g[step - 1] + 1.5 * _DEDUPE_TOL * e
    keep = np.delete(np.arange(k), step)
    assert np.array_equal(dedupe_rows(g), g[keep])
    assert dedupe_rows_reference(g).tobytes() == g[keep].tobytes()


def test_dedupe_rows_memory_is_bounded():
    # 4096 rows in R^8, half of them near copies of earlier ones: the
    # blocks hold O(k m) numbers, where all pairs at once would take
    # 4096^2 * 8 doubles (1 GiB)
    rng = np.random.default_rng(5)
    g = rng.integers(-3, 4, size=(2048, 8)).astype(float)
    near = g[rng.integers(0, 2048, size=2048)]
    g = np.vstack([g, near + rng.uniform(-1, 1, size=near.shape) * _DEDUPE_TOL])
    tracemalloc.start()
    try:
        kept = dedupe_rows(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept.shape[0] <= 2048
    assert peak < 4 * 2 ** 20


def test_scale_by_one_is_the_set_itself():
    s = SubdiffSet(np.array([[1.0, -2.0], [0.5, 3.0]]), 0.25)
    assert scale_set(s, 1.0) is s
    t = scale_set(s, 2.0)
    assert np.array_equal(t.generators, 2.0 * s.generators)
    assert t.ball_radius == 0.5


def test_dedupe_rows_tolerance_is_strict_and_not_transitive():
    a = np.zeros(3)
    e = np.eye(3)[1]
    # exactly the tolerance apart: a duplicate; a chain keeps its far end
    g = np.vstack([a, a + _DEDUPE_TOL * e, a + 0.75 * _DEDUPE_TOL * e,
                   a + 1.5 * _DEDUPE_TOL * e])
    assert np.array_equal(dedupe_rows(g), g[[0, 3]])


def test_one_row_set_copies_its_generator():
    # a single row runs none of dedupe_rows' comparisons but still comes
    # back as a copy: the set freezes what it gets back, never the caller's
    # array
    g = np.array([[1.0, -2.0]])
    s = SubdiffSet(g)
    assert g.flags.writeable and not s.generators.flags.writeable
    g[0, 0] = 5.0
    assert s.generators[0, 0] == 1.0


def test_high_dim_outside_still_exact():
    rng = np.random.default_rng(9)
    gens = rng.uniform(1.0, 2.0, size=(50, 6))
    s = SubdiffSet(gens)
    res = min_norm_point(s)
    assert res.dist > 0
    sigma = min_support_direction(s)[0]
    assert sigma == pytest.approx(-res.dist, abs=1e-9)


# -- scale and the exact oracle ---------------------------------------------

@pytest.mark.parametrize("s", [2.0 ** -20, 1.0, 1e4, 1e8, 2.0 ** 400, 2.0 ** 600])
def test_min_norm_segment_any_scale(s):
    # the KKT row of ones must not vanish next to ||g||^2: the nearest
    # point of the segment [(s, 0), (0, s)] is (s/2, s/2) at every scale
    res = min_norm_point(SubdiffSet(np.array([[s, 0.0], [0.0, s]])))
    assert res.point == pytest.approx([s / 2, s / 2], rel=1e-15)
    assert res.dist == pytest.approx(s / math.sqrt(2.0), rel=1e-15)


def test_min_norm_origin_at_a_large_scale():
    # the origin is interior to [-1e154, 1e154]; NNLS rounding leaves the
    # point about 4.5e-16 of the scale 2^512 away, which reads as the origin
    res = min_norm_point(SubdiffSet(np.array([[-1e154], [1e154]])))
    assert res.hull_dist == 0.0 and res.dist == 0.0
    assert np.array_equal(res.point, [0.0])


def _random_set(rng, interior):
    """k <= 7 generators in R^m, m <= 4; with interior, shifted so that a
    random convex combination of them is the origin."""
    k, m = int(rng.integers(2, 8)), int(rng.integers(1, 5))
    g = rng.normal(size=(k, m)) + rng.normal(size=m)
    if interior:
        g -= rng.dirichlet(np.ones(k)) @ g
    return g


@pytest.mark.parametrize("c", [2.0 ** -20, 1e4, 1e6])
def test_min_norm_scales_with_the_set(c):
    rng = np.random.default_rng(12)
    for trial in range(200):
        g = _random_set(rng, interior=trial % 3 == 0)
        want = c * min_norm_point(SubdiffSet(g)).dist
        got = min_norm_point(SubdiffSet(c * g)).dist
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12 * c), (g, c)


def _min_norm_by_faces(g):
    """||nearest point of conv(g)|| by enumeration: the affine minimum-norm
    point of every subset of at most m + 1 generators (a KKT solve), kept
    when its weights are nonnegative.  The nearest point lies in the
    relative interior of a face spanned by such a subset, and every kept
    point lies in the hull, so the shortest kept point is the nearest."""
    k, m = g.shape
    best = math.inf
    for size in range(1, min(k, m + 1) + 1):
        for sub in itertools.combinations(range(k), size):
            p = g[list(sub)]
            kkt = np.block([[p @ p.T, np.ones((size, 1))],
                            [np.ones((1, size)), np.zeros((1, 1))]])
            rhs = np.zeros(size + 1)
            rhs[-1] = 1.0
            lam = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            if lam.min() >= -1e-12 and abs(lam.sum() - 1.0) <= 1e-12:
                best = min(best, float(np.linalg.norm(lam @ p)))
    return best


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), interior=st.booleans())
def test_min_norm_matches_face_enumeration(seed, interior):
    g = _random_set(np.random.default_rng(seed), interior)
    got = min_norm_point(SubdiffSet(g)).hull_dist
    want = _min_norm_by_faces(g)
    if interior:
        assert got == 0.0 and want <= 1e-12
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
