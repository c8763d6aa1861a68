"""Expression-tree oracles: values, directional derivatives, subdifferentials."""

import math

import numpy as np
import pytest

from ebstab.errors import (
    ConvexityViolation,
    DimensionMismatch,
    NumericalOverflow,
    UnsupportedSubdifferential,
)
from ebstab.expressions import (
    AbsCoord,
    Affine,
    ComposeAffine,
    Const,
    EuclidNorm,
    Exp1D,
    Max,
    Sum,
    dd_quotient_scan,
    directional_derivative,
    directional_derivatives,
    evaluate,
    subdifferential,
)
from ebstab.geometry import support

from conftest import random_expr, random_point, random_unit


def test_eval_exp_shift_at_zero():
    f = Exp1D(0, -1.0, 1)
    assert evaluate(f, [0.0]) == 0.0


def test_eval_const_everywhere(rng):
    f = Const(0.0, 3)
    for _ in range(5):
        assert evaluate(f, random_point(rng, 3)) == 0.0


def test_eval_max_abs():
    f = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    assert evaluate(f, [3.0, -4.0]) == 4.0


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        evaluate(AbsCoord(0, 2), [1.0, 2.0, 3.0])


def test_dd_max_abs_diagonal():
    f = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    s = 1.0 / math.sqrt(2.0)
    assert directional_derivative(f, [0.0, 0.0], [s, s]) == pytest.approx(s, abs=1e-15)


def test_dd_affine_is_inner_product(rng):
    a = rng.uniform(-2, 2, size=3)
    f = Affine(a, 0.7)
    for _ in range(5):
        x, h = random_point(rng, 3), random_point(rng, 3)
        assert directional_derivative(f, x, h) == pytest.approx(float(a @ h), abs=1e-12)


def test_dd_exp_far_negative():
    f = Exp1D(0, -1.0, 1)
    for k in (1, 5, 10, 20):
        got = directional_derivative(f, [-float(k)], [-1.0])
        assert got == pytest.approx(-math.exp(-k), abs=1e-15)


def test_exp_overflow_is_typed():
    f = Exp1D(0, -1.0, 1)
    with pytest.raises(NumericalOverflow):
        evaluate(f, [1000.0])
    with pytest.raises(NumericalOverflow):
        directional_derivative(f, [1000.0], [1.0])
    with pytest.raises(NumericalOverflow):
        directional_derivatives(f, [1000.0], np.ones((2, 1)))
    with pytest.raises(NumericalOverflow):
        subdifferential(f, [1000.0])


def test_exp_batch_overflow_is_typed():
    # the batched oracles raise where the scalar ones do, never return inf
    f = Exp1D(0, -1.0, 1)
    X = np.array([[1.0], [1000.0]])
    with pytest.raises(NumericalOverflow):
        f._value_batch(X)
    with pytest.raises(NumericalOverflow):
        f._grad_batch(X)
    assert f._value_batch(X[:1])[0] == pytest.approx(math.e - 1.0)


def test_quotient_scan_exp():
    f = Exp1D(0, -1.0, 1)
    q = dd_quotient_scan(f, [0.0], [1.0], [1.0, 0.1, 0.01])
    assert q[0] == pytest.approx(math.e - 1.0, abs=1e-12)
    assert q[1] == pytest.approx(1.0517091808564762, abs=1e-9)
    assert q[2] == pytest.approx(1.0050167084168058, abs=1e-9)
    assert q[0] >= q[1] >= q[2] >= 1.0


def test_quotient_scan_affine_constant(rng):
    a = rng.uniform(-2, 2, size=2)
    f = Affine(a, 0.3)
    x, h = random_point(rng, 2), random_point(rng, 2)
    q = dd_quotient_scan(f, x, h, [1.0, 0.5, 0.1])
    for v in q:
        assert v == pytest.approx(float(a @ h), abs=1e-10)


def test_quotient_scan_positively_homogeneous_at_kink():
    f = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    q = dd_quotient_scan(f, [0.0, 0.0], [1.0, 0.0], [2.0, 1.0, 0.25])
    assert q == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)


def test_quotient_scan_rejects_bad_grid():
    f = Const(0.0, 1)
    with pytest.raises(ValueError):
        dd_quotient_scan(f, [0.0], [1.0], [0.1, 0.5])
    with pytest.raises(ValueError):
        dd_quotient_scan(f, [0.0], [1.0], [1.0, -0.1])


def test_subdiff_cross_polytope():
    f = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    s = subdifferential(f, [0.0, 0.0])
    assert s.ball_radius == 0.0
    got = {tuple(g) for g in np.asarray(s.generators).round(12).tolist()}
    assert got == {(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)}


def test_subdiff_norm_at_origin_is_ball():
    s = subdifferential(EuclidNorm(3), [0.0, 0.0, 0.0])
    assert s.ball_radius == 1.0
    assert np.allclose(s.generators, 0.0)


def test_subdiff_exp_at_zero():
    s = subdifferential(Exp1D(0, -1.0, 1), [0.0])
    assert s.ball_radius == 0.0
    assert np.allclose(s.generators, [[1.0]])


def test_sum_negative_weight_rejected():
    with pytest.raises(ConvexityViolation):
        Sum([(-1.0, AbsCoord(0, 1))])


def test_max_two_ball_children_unsupported():
    f = Max([EuclidNorm(2), ComposeAffine(EuclidNorm(2), 0.5 * np.eye(2), np.zeros(2))])
    with pytest.raises(UnsupportedSubdifferential):
        subdifferential(f, [0.0, 0.0])


def test_max_ball_swallows_contained_children():
    # |x_1| <= ||x||, so the segment sits inside the unit ball
    f = Max([EuclidNorm(2), AbsCoord(0, 2)])
    s = subdifferential(f, [0.0, 0.0])
    assert s.ball_radius == 1.0


def test_compose_nonconformal_with_ball_unsupported():
    mat = np.array([[1.0, 0.5], [0.0, 1.0]])
    f = ComposeAffine(EuclidNorm(2), mat, np.zeros(2))
    with pytest.raises(UnsupportedSubdifferential):
        subdifferential(f, [0.0, 0.0])


def test_compose_conformal_scales_ball():
    mat = 2.0 * np.array([[0.0, -1.0], [1.0, 0.0]])  # rotation times 2
    f = ComposeAffine(EuclidNorm(2), mat, np.zeros(2))
    s = subdifferential(f, [0.0, 0.0])
    assert s.ball_radius == pytest.approx(2.0, abs=1e-12)


# --- randomized invariants ---------------------------------------------------


def test_quotient_monotonicity_random_suite():
    rng = np.random.default_rng(11)
    grid = [1.0, 0.5, 0.25, 0.1, 0.05]
    for _ in range(200):
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m)
        x, h = random_point(rng, m), random_point(rng, m)
        q = dd_quotient_scan(f, x, h, grid)
        dd = directional_derivative(f, x, h)
        for a, b in zip(q, q[1:]):
            assert a >= b - 1e-12
        assert q[-1] >= dd - 1e-12


def test_support_identity_random_suite():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m)
        x = random_point(rng, m)
        h = random_unit(rng, m)
        dd = directional_derivative(f, x, h)
        sup = support(subdifferential(f, x), h)
        assert abs(dd - sup) <= 1e-9 * (1.0 + abs(dd))


def test_max_rule_matches_manual_active_max():
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        children = [
            random_expr(rng, m, depth=1, allow_ball=False)
            for _ in range(int(rng.integers(2, 4)))
        ]
        f = Max(children)
        x, h = random_point(rng, m), random_point(rng, m)
        fx = evaluate(f, x)
        eps = 1e-10 * (1.0 + abs(fx))
        active = [c for c in children if evaluate(c, x) >= fx - eps]
        want = max(directional_derivative(c, x, h) for c in active)
        assert directional_derivative(f, x, h) == pytest.approx(want, abs=1e-12)


def test_positive_homogeneity(rng):
    for _ in range(50):
        m = int(rng.integers(1, 4))
        f = random_expr(rng, m)
        x, h = random_point(rng, m), random_point(rng, m)
        lam = float(rng.uniform(0.1, 5.0))
        d1 = directional_derivative(f, x, lam * h)
        d2 = lam * directional_derivative(f, x, h)
        assert abs(d1 - d2) <= 1e-12 * (1.0 + abs(d2))


def test_convexity_spot_check(rng):
    for _ in range(100):
        m = int(rng.integers(1, 4))
        f = random_expr(rng, m)
        x, y = random_point(rng, m), random_point(rng, m)
        th = float(rng.random())
        lhs = evaluate(f, th * x + (1 - th) * y)
        rhs = th * evaluate(f, x) + (1 - th) * evaluate(f, y)
        assert lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


def test_batch_dd_matches_scalar(rng):
    for _ in range(20):
        m = int(rng.integers(1, 4))
        f = random_expr(rng, m)
        x = random_point(rng, m)
        hs = rng.normal(size=(16, m))
        batch = directional_derivatives(f, x, hs)
        for row, want in zip(hs, batch):
            assert directional_derivative(f, x, row) == pytest.approx(want, abs=1e-12)


def test_batch_value_matches_scalar():
    # the scalar oracle's BLAS dot products fuse multiply-adds and exp
    # scales a last-bit difference in its argument by |argument|, so the
    # two oracles agree to rounding at the scale of f, not bitwise
    rng = np.random.default_rng(15)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m, depth=3)
        xs = rng.normal(size=(32, m)) * 1.5
        batch = f._value_batch(xs)
        want = np.array([f._value(x) for x in xs])
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.all(np.abs(batch - want) <= 1e-14 * scale)
        # a row's value does not depend on the other rows of the batch
        for i in rng.permutation(32)[:4]:
            assert f._value_batch(xs[i:i + 1])[0] == batch[i]
        assert np.array_equal(f._value_batch(xs[::3]), batch[::3])


def test_immutability_and_equality():
    f1 = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    f2 = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    f3 = Max([AbsCoord(0, 2), AbsCoord(0, 2)])
    assert f1 == f2
    assert f1 != f3
    a = Affine([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        a.a[0] = 5.0
