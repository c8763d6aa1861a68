"""Staged solution-set distances and the exact cone test behind them.

``_distances`` runs value screen, lock-step pull, anchor and boundary
search, a batched projection certificate and a per-row polish over all
rows at once.  Its rows must not depend on the rest of the batch.  The
one-point-at-a-time algorithm it replaced is kept below as a reference,
run with two sets of arithmetic: the stages' own per-row oracles, where
every row must agree bit for bit, and the per-point oracles of before,
where every certified answer must agree to 1e-9.  ``_nnls_residual`` is
checked against brute-force enumeration of supports.
"""

import itertools
import math

import numpy as np
import pytest

from ebstab.errors import NumericalOverflow
from ebstab.expressions import AbsCoord, Const, Max, Sum, _row_dot, subdifferential
from ebstab.geometry import dedupe_rows, min_norm_point
from ebstab.moduli import (
    FEAS_TOL,
    _bisect_to_boundary,
    _certified,
    _distances,
    _gradient_screen,
    _nnls_residual,
    _projection_certified,
    _tangent_basis,
)

from conftest import random_expr


# -- exact cone test --------------------------------------------------------

def _nnls_by_supports(gens, target):
    """min over lam >= 0 of ||gens.T lam - target||, by least squares on
    every support: the optimum is the least-squares fit on its own support,
    and every nonnegative fit is feasible, so the smallest one wins."""
    best = float(np.linalg.norm(target))
    k = gens.shape[0]
    for size in range(1, k + 1):
        for sub in itertools.combinations(range(k), size):
            a = gens[list(sub)].T
            coef = np.linalg.lstsq(a, target, rcond=None)[0]
            if np.all(coef >= 0.0):
                best = min(best, float(np.linalg.norm(a @ coef - target)))
    return best


def test_nnls_matches_support_enumeration():
    rng = np.random.default_rng(41)
    inside = 0
    for trial in range(400):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        gens = rng.normal(size=(k, m)) * rng.uniform(0.1, 10.0)
        if trial % 4 == 1 and k > 1:
            gens[-1] = gens[0] * rng.uniform(0.5, 2.0)      # parallel pair
        if trial % 4 == 2:
            # a target inside the cone
            target = rng.uniform(0.0, 1.0, size=k) @ gens
        else:
            target = rng.normal(size=m)
        if np.linalg.norm(target) < 1e-6:
            continue
        target = target / np.linalg.norm(target)
        want = _nnls_by_supports(gens, target)
        got = _nnls_residual(gens, target)
        assert abs(got - want) <= 1e-10, (gens, target, got, want)
        inside += want <= 1e-12
    assert inside >= 50


def test_nnls_near_parallel_generators():
    # the subgradients of a 9-member interval family at a corner: the cone
    # is the whole quadrant, so the residual must vanish
    t = np.linspace(0.0, 1.0, 9)
    gens = np.stack([t, 1.0 - t], axis=1)
    target = np.array([1.0, 0.01]) / np.linalg.norm([1.0, 0.01])
    assert _nnls_residual(gens, target) <= 1e-12


# -- batched certificate ----------------------------------------------------

def linf_ball_fn():
    return Sum([(1.0, Max([AbsCoord(0, 2), AbsCoord(1, 2)])), (1.0, Const(-1.0, 2))])


def test_certified_matches_scalar_on_smooth_and_kink_rows():
    rng = np.random.default_rng(42)
    f = linf_ball_fn()
    # corners and edge points of the unit sup-norm ball, reached along
    # rays inside and outside their normal cones
    corners = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
    edges = np.array([[1.0, 0.3], [-0.2, 1.0], [0.7, -1.0], [-1.0, -0.5]])
    Z = np.vstack([corners, corners, corners, edges, edges])
    rays = np.vstack([
        np.abs(rng.normal(size=(4, 2))) * np.sign(corners),     # inside
        np.sign(corners) * [1.0, 0.0],                           # cone edge
        np.sign(corners) * [1.0, -0.5],                          # outside
        np.sign(edges) * (np.abs(edges) == 1.0),                 # the normal
        np.sign(edges) * (np.abs(edges) == 1.0) + [0.1, 0.1],   # off normal
    ])
    X = Z + 0.5 * rays
    X[:4] = Z[:4]                 # zero-length rays certify trivially
    X[:2] += 0.5 * rays[:2]
    want = [_projection_certified(f, x, z) for x, z in zip(X, Z)]
    _, kink = f._grad_batch(Z)
    assert kink[:12].all() and not kink[12:].any()
    assert any(want) and not all(want)
    assert _certified(f, X, Z).tolist() == want

    for _ in range(60):
        m = int(rng.integers(2, 4))
        g = random_expr(rng, m, depth=2)
        s = rng.normal(size=m)
        f = Sum([(1.0, g), (1.0, Const(-g._value(s) - 1.0, m))])
        X = s + 3.0 * rng.normal(size=(10, m))
        X = X[f._value_batch(X) > 0.0]
        if not X.shape[0]:
            continue
        Z = _scalar_bisect(f, X, np.broadcast_to(s, X.shape))
        # half the rows move out along a subgradient at z: a projection
        for i in range(0, Z.shape[0], 2):
            X[i] = Z[i] + rng.uniform(0.1, 2.0) * subdifferential(f, Z[i]).generators[0]
        want = [_projection_certified(f, x, z) for x, z in zip(X, Z)]
        assert _certified(f, X, Z).tolist() == want


# -- per-point reference ----------------------------------------------------

def _scalar_bisect(f, pos, neg, max_iter=100):
    out = []
    for lo, hi in zip(np.array(pos), np.array(neg)):
        tol = 1e-15 * (1.0 + np.linalg.norm(hi - lo))
        for _ in range(max_iter):
            mid = 0.5 * (lo + hi)
            if f._value(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if np.linalg.norm(hi - lo) <= tol:
                break
        out.append(hi)
    return np.array(out)


def _reference_nnls(gens, target, iters=200):
    """The projected-gradient cone test the exact one replaced."""
    gram = gens @ gens.T
    lip = float(np.max(np.sum(np.abs(gram), axis=1)))
    if lip <= 0.0:
        return float(np.linalg.norm(target))
    rhs = gens @ target
    lam = np.zeros(gens.shape[0])
    for _ in range(iters):
        lam = np.maximum(0.0, lam - (gram @ lam - rhs) / lip)
    return float(np.linalg.norm(gens.T @ lam - target))


def _reference_certified(f, x, z):
    ray = x - z
    span = float(np.linalg.norm(ray))
    if span < 1e-15:
        return True
    s = subdifferential(f, z)
    if s.ball_radius != 0.0:
        return False
    gens = dedupe_rows(s.generators)
    unit = ray / span
    if gens.shape[0] == 1:
        gn = float(np.linalg.norm(gens[0]))
        return gn > 1e-15 and float(unit @ gens[0]) / gn >= 1.0 - 1e-10
    return _reference_nnls(gens, unit) <= 1e-8


class PointOracles:
    """The per-point distance algorithm's arithmetic as it stood before the
    stages: scalar values, Wolfe subgradients, a LAPACK 2x2 solve, scalar
    bisection and the projected-gradient cone test."""

    def value(self, f, p):
        return f._value(p)

    def subgradient(self, f, y):
        return min_norm_point(subdifferential(f, y)).point

    def newton_step(self, g0, g, r0, r1):
        a_mat = np.vstack([g0, g])
        gram = a_mat @ a_mat.T
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] ** 2
        if det > 1e-12 * max(1e-30, gram[0, 0] * gram[1, 1]):
            return a_mat.T @ np.linalg.solve(gram, np.array([r0, r1]))
        return None

    def dot(self, a, b):
        return float(a @ b)

    def bisect(self, f, pos, neg, max_iter):
        return _scalar_bisect(f, [pos], [neg], max_iter)[0]

    def certified(self, f, x, z, first):
        return _reference_certified(f, x, z)


class RowOracles(PointOracles):
    """The same algorithm with the stages' per-row arithmetic, applied to
    one point at a time: one-row batched values and gradients, the
    closed-form 2x2 solve, one-row lock-step boundary search, the exact
    cone test."""

    def value(self, f, p):
        return f._value_batch(p[None])[0]

    def subgradient(self, f, y):
        g, scalar = _gradient_screen(f, y[None])
        return min_norm_point(f._subdiff(y)).point if scalar.size else g[0]

    def newton_step(self, g0, g, r0, r1):
        a00, a11, a01 = self.dot(g0, g0), self.dot(g, g), self.dot(g0, g)
        det = a00 * a11 - a01 * a01
        if det > 1e-12 * max(1e-30, a00 * a11):
            return ((a11 * r0 - a01 * r1) / det * g0
                    + (a00 * r1 - a01 * r0) / det * g)
        return None

    def dot(self, a, b):
        return _row_dot(a[None], b[None])[0]

    def bisect(self, f, pos, neg, max_iter):
        return _bisect_to_boundary(f, pos[None], neg[None], max_iter)[0][0]

    def certified(self, f, x, z, first):
        if first:
            return _certified(f, x[None], z[None])[0]
        return _projection_certified(f, x, z)


def _reference_pull(f, x, ops):
    y = x.copy()
    prev = None
    for _ in range(400):
        fy = ops.value(f, y)
        if fy <= FEAS_TOL:
            break
        g = ops.subgradient(f, y)
        gg = ops.dot(g, g)
        if gg < 1e-28:
            break
        stepped = False
        if prev is not None:
            g0, y0, f0 = prev
            delta = ops.newton_step(g0, g, f0 + ops.dot(g0, y - y0), fy)
            if delta is not None and ops.value(f, y - delta) < 0.5 * fy:
                prev = (g, y.copy(), fy)
                y = y - delta
                stepped = True
        if not stepped:
            prev = (g, y.copy(), fy)
            y = y - (fy / gg) * g
    return y


def _reference_distance(f, x, s, ops):
    """One point at a time: pull, anchor, bisection, certificate, polish.
    Returns the distance and whether its boundary point was certified."""
    if ops.value(f, x) <= 0.0:
        return 0.0, True
    y = _reference_pull(f, x, ops)
    if ops.value(f, y) <= FEAS_TOL:
        anchor = y if ops.value(f, y) <= 0.0 else ops.bisect(f, y, s, 100)
    else:
        anchor = s
    best_pt = ops.bisect(f, x, anchor, 100)
    best = math.sqrt(ops.dot(x - best_pt, x - best_pt))
    if f.dim == 1 or ops.certified(f, x, best_pt, True):
        return best, True
    prev = math.inf
    done = False
    for _ in range(12):
        if prev - best < 1e-8:
            break
        prev = best
        ray = best_pt - x
        span = np.linalg.norm(ray)
        if span < 1e-15:
            break
        inner = best_pt + 1e-2 * (s - best_pt)
        if f._value(inner) >= 0.0:
            inner = s
        step = 0.25 * span
        budget = 40
        while step > 1e-6 * (1.0 + span) and budget > 0:
            improved = False
            for t_dir in _tangent_basis(ray / span):
                for sign in (1.0, -1.0):
                    budget -= 1
                    cand = best_pt + sign * step * t_dir
                    if f._value(cand) > 0.0:
                        cand = ops.bisect(f, cand, inner, 40)
                    d = float(np.linalg.norm(x - cand))
                    if d < best - 1e-12:
                        best, best_pt = d, cand
                        improved = True
            if not improved:
                step *= 0.5
        done = ops.certified(f, x, best_pt, False)
        if done:
            break
    return best, done


def _slater_problem(rng, m, n):
    g = random_expr(rng, m)
    s = rng.normal(size=m)
    f = Sum([(1.0, g), (1.0, Const(-g._value(s) - 1.0, m))])
    return f, s, s + 3.0 * rng.normal(size=(n, m))


def test_distances_match_per_point_reference():
    # the stages reorder the work, not the arithmetic: with the same
    # per-row oracles the per-point algorithm gives every row bit for bit
    rng = np.random.default_rng(43)
    ops = RowOracles()
    for _ in range(12):
        m = int(rng.integers(1, 4))
        f, s, xs = _slater_problem(rng, m, 10)
        want = [_reference_distance(f, x, s, ops)[0] for x in xs]
        assert _distances(f, xs, s).tolist() == want


def test_distances_match_pre_stage_algorithm_where_certified():
    # with the per-point arithmetic of before, last-bit differences can
    # send the pull and the polish elsewhere, so an uncertified answer may
    # move; a certified one is the projection, which is unique
    rng = np.random.default_rng(45)
    ops = PointOracles()
    certified = 0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        f, s, xs = _slater_problem(rng, m, 10)
        got = _distances(f, xs, s)
        for x, d in zip(xs, got):
            want, done = _reference_distance(f, x, s, ops)
            if done:
                certified += 1
                assert abs(d - want) <= 1e-9 * want
    assert certified >= 150


def test_distances_rows_independent_of_batch():
    rng = np.random.default_rng(44)
    for _ in range(15):
        m = int(rng.integers(1, 4))
        f, s, xs = _slater_problem(rng, m, 12)
        got = _distances(f, xs, s)
        assert np.array_equal(_distances(f, xs[::2], s), got[::2])
        perm = rng.permutation(xs.shape[0])
        assert np.array_equal(_distances(f, xs[perm], s), got[perm])
        for i in rng.permutation(xs.shape[0])[:3]:
            assert _distances(f, xs[i:i + 1], s)[0] == got[i]


def test_distances_lockstep_kink_problem():
    # corner rays of the sup-norm ball: every boundary point is a kink and
    # d(x, S) / f(x) = sqrt(2) along the diagonal
    f = linf_ball_fn()
    xs = np.array([[2.0, 2.0], [-3.0, 3.0], [2.0, 0.5], [0.0, 0.0]])
    got = _distances(f, xs, np.zeros(2))
    assert got == pytest.approx([math.sqrt(2.0), 2.0 * math.sqrt(2.0), 1.0, 0.0],
                                abs=1e-9)


def test_distances_exp_overflow_is_typed():
    # problem 57 of a seed-7 sweep, 2-D: the pull carries x = (0.51, 3.79)
    # to about (-15421, 331), and exp then overflows at a polish probe
    rng = np.random.default_rng(7)
    for _ in range(57):
        m = int(rng.integers(1, 4))
        f, s, xs = _slater_problem(rng, m, 10)
    assert m == 2 and xs[4] == pytest.approx([0.514, 3.790], abs=1e-3)
    with pytest.raises(NumericalOverflow):
        _distances(f, xs[4:5], s)
