"""Expression-tree oracles: values, directional derivatives, subdifferentials."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    ConvexExpr,
    EuclidNorm,
    Exp1D,
    Max,
    PosPartSquare,
    Sum,
    directional_derivative,
    evaluate,
    subdifferential,
)
from ebstab.scenarios import _rem12b_families
from ebstab.systems import FiniteFamily, active_set, materialize_sup

from conftest import (MaxReference, dd_quotient_scan, random_expr,
                      random_point, random_unit, reference_value, same_bits,
                      support)


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
        f._dd_batch(np.array([1000.0]), np.ones((2, 1)))
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
        sup = support(subdifferential(f, x), h)[0]
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
        batch = f._dd_batch(x, hs)
        for row, want in zip(hs, batch):
            assert directional_derivative(f, x, row) == pytest.approx(want, abs=1e-12)


def test_batch_value_matches_scalar():
    # the batched oracle against the conftest reference, which sums exactly
    # (math.fsum) and shares no arithmetic with it; exp scales a last-bit
    # difference in its argument by |argument|, so the two agree to
    # rounding at the scale of f, not bitwise
    rng = np.random.default_rng(15)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m, depth=3)
        xs = rng.normal(size=(32, m)) * 1.5
        batch = f._value_batch(xs)
        want = np.array([reference_value(f, x) for x in xs])
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.all(np.abs(batch - want) <= 1e-14 * scale)
        # a row's value does not depend on the other rows of the batch
        for i in rng.permutation(32)[:4]:
            assert f._value_batch(xs[i:i + 1])[0] == batch[i]
            assert f._value(xs[i]) == batch[i]
        assert np.array_equal(f._value_batch(xs[::3]), batch[::3])


def _affine_family(rng, m, p):
    """p affine members on R^m with small integer coefficients, so that
    members tie exactly at integer points, all of them linear in half the
    draws (tying at 0.0 and -0.0 at the origin), a later member repeating
    an earlier one in about a quarter of the draws, and the last member
    generic in half the draws."""
    A = rng.integers(-2, 3, size=(p, m)).astype(float)
    b = rng.integers(-2, 3, size=p) * float(rng.random() < 0.5)
    b[(b == 0.0) & (rng.random(p) < 0.5)] = -0.0
    for i in range(1, p):
        if rng.random() < 0.25:
            j = int(rng.integers(i))
            A[i], b[i] = A[j], b[j]
    A[-1] += rng.uniform(-1, 1, size=m) * (rng.random() < 0.5)
    return [Affine(a, c) for a, c in zip(A, b)]


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
       p=st.integers(1, 12))
@example(seed=0, m=1, p=9)   # top ties between 0.0 and -0.0
def test_max_active_set_reads_each_child_value(seed, m, p):
    # a max takes its children's values at one point from one batched call
    # per child; its active sets and top values must be those of each
    # child's point oracle bit for bit, at exact ties (integer points),
    # between duplicate members and at generic points (the batched value
    # may pick the other zero where 0.0 and -0.0 tie)
    rng = np.random.default_rng(seed)
    children = _affine_family(rng, m, p)
    f = Max(children)
    Z = rng.integers(-2, 3, size=(60, m)).astype(float)
    Z[:10] = 0.0
    Z[(Z == 0.0) & (rng.random(Z.shape) < 0.5)] = -0.0
    X = np.vstack([Z, rng.normal(size=(6, m)) * 2.0])
    fam = FiniteFamily(children, labels=[f"m{i}" for i in range(p)])
    for x, fx in zip(X, f._value_batch(X)):
        v = [c._value(x) for c in children]
        top = max(v)
        want = [i for i, vi in enumerate(v) if vi >= top - 1e-10 * (1.0 + abs(top))]
        idx, sup = f._active(x)
        assert idx == want and repr(sup) == repr(top) and sup == fx
        act = active_set(fam, x)
        assert act.indices == tuple(f"m{i}" for i in want)
        assert repr(act.sup_value) == repr(top)


def _max_oracles_agree(f, ref, X, hs):
    """Every oracle of the max f against the per-child reference, bit for
    bit: the batched ones at the rows of X, the point ones at each row."""
    assert same_bits(f._value_batch(X), ref._value_batch(X))
    for got, want in zip(f._grad_batch(X), ref._grad_batch(X)):
        assert same_bits(got, want)
    for got, want in zip(f._minorants_batch(X), ref._minorants_batch(X)):
        assert same_bits(got, want)
    for x in X:
        (idx, top), (want, want_top) = f._active(x), ref._active(x)
        assert idx == want and repr(top) == repr(want_top)
        assert f._polyhedral_at(x) == ref._polyhedral_at(x)
        assert same_bits(f._dd_batch(x, hs), ref._dd_batch(x, hs))
        got, want = f._subdiff(x), ref._subdiff(x)
        assert same_bits(got.generators, want.generators)
        assert got.ball_radius == want.ball_radius


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
       p=st.integers(1, 12))
@example(seed=0, m=1, p=9)   # top ties between 0.0 and -0.0
def test_affine_max_matrix_matches_the_per_child_oracles(seed, m, p):
    # a max of affine members reads one (p, m) matrix and one offset
    # vector; every oracle must give what asking each member gives, bit for
    # bit, at exact ties (integer points), between duplicate members and
    # at generic points
    rng = np.random.default_rng(seed)
    children = _affine_family(rng, m, p)
    f = Max(children)
    assert f._A.shape == (p, m) and not f._A.flags.writeable
    Z = rng.integers(-2, 3, size=(40, m)).astype(float)
    Z[:8] = 0.0
    Z[(Z == 0.0) & (rng.random(Z.shape) < 0.5)] = -0.0
    X = np.vstack([Z, rng.normal(size=(6, m)) * 2.0])
    hs = np.vstack([rng.integers(-2, 3, size=(5, m)).astype(float),
                    rng.normal(size=(3, m))])
    _max_oracles_agree(f, MaxReference(children), X, hs)


def test_mixed_max_reads_each_child():
    # REM12B's base family has an affine member and a sum member: its max
    # keeps no matrix and asks each child, as the reference does
    base, _ = _rem12b_families(0.1)
    f = materialize_sup(base)
    assert isinstance(f, Max) and f._A is None
    assert {type(c) for c in f.children} == {Affine, Sum}
    rng = np.random.default_rng(12)
    X = np.vstack([np.zeros((1, 2)), rng.integers(-2, 3, size=(20, 2)),
                   rng.normal(size=(6, 2))]).astype(float)
    _max_oracles_agree(f, MaxReference(f.children), X, rng.normal(size=(4, 2)))


def test_nodes_define_only_the_batched_oracles():
    # every node type computes a value or a derivative one way only: the
    # point oracles _value and _dd are the base class's one-row views, and
    # the atoms that never kink take _dd_batch and _subdiff from their
    # gradient, by the base class's defaults
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    nodes = {cls.__name__: cls for cls in subclasses(ConvexExpr)}
    smooth = {"Const", "Affine", "Exp1D", "PosPartSquare"}
    kinked = {"AbsCoord", "EuclidNorm", "Max", "Sum", "ComposeAffine"}
    assert smooth | kinked <= set(nodes)
    for name, cls in nodes.items():
        for oracle in ("_value", "_dd"):
            assert oracle not in vars(cls), f"{name} defines {oracle}"
        for oracle in ("_value_batch", "_grad_batch", "_text"):
            assert oracle in vars(cls), f"{name} lacks {oracle}"
        for oracle in ("_dd_batch", "_subdiff"):
            if name in smooth:
                assert oracle not in vars(cls), f"{name} defines {oracle}"
            elif name in kinked:
                assert oracle in vars(cls), f"{name} lacks {oracle}"
    assert not hasattr(Exp1D, "_exp")


@pytest.mark.parametrize("seed", range(20))
def test_smooth_atoms_derive_their_closed_forms(seed):
    # the atoms that never kink read f'(x, h) and the subdifferential off
    # their gradient; those equal the closed forms the atoms once wrote
    # out, exp(x_i) h_i, 2 max(x_i, 0) h_i, <a, h> and 0, up to the sign
    # of a zero (a row dot adds only zero terms to the one that counts)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    i = int(rng.integers(m))
    x = rng.normal(size=m) * rng.choice([0.1, 1.0, 5.0])
    x[rng.random(m) < 0.3] = 0.0
    hs = rng.normal(size=(int(rng.integers(1, 8)), m))
    a = rng.normal(size=m)
    e = np.eye(m)[i]
    atoms = [(Exp1D(i, rng.normal(), m), np.exp(x[None, i])[0] * e),
             (PosPartSquare(i, m), 2.0 * max(float(x[i]), 0.0) * e),
             (Affine(a, rng.normal()), a),
             (Const(rng.normal(), m), np.zeros(m))]
    for f, g in atoms:
        want = hs[:, i] * g[i] if type(f) in (Exp1D, PosPartSquare) else (
            hs @ g)
        assert f._dd_batch(x, hs).tolist() == want.tolist()
        s = f._subdiff(x)
        assert s.generators.tolist() == [g.tolist()]
        assert s.ball_radius == 0.0 and s.lo is not None


def test_immutability_and_equality():
    f1 = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    f2 = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    f3 = Max([AbsCoord(0, 2), AbsCoord(0, 2)])
    assert f1 == f2
    assert f1 != f3
    a = Affine([1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        a.a[0] = 5.0


def test_equal_nodes_hash_equal():
    # equality and hashing read the same canonical text, so a set never
    # keeps two equal nodes; 0.0 and -0.0 print differently, so their
    # constants are different nodes
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        seed = int(rng.integers(1 << 30))
        f = random_expr(np.random.default_rng(seed), m)
        g = random_expr(np.random.default_rng(seed), m)
        h = random_expr(rng, m)
        assert f == g and hash(f) == hash(g) and len({f, g}) == 1
        assert (f == h) == (hash(f) == hash(h))
    a, b = Const(0.0, 1), Const(-0.0, 1)
    assert (a == b) == (hash(a) == hash(b))
    assert len({a, b}) == (1 if a == b else 2)
