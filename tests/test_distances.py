"""Solution-set distance brackets and the exact NNLS behind them.

``_brackets`` starts every infeasible row from a lock-step pull toward
the solution set and one boundary search from the pulled point toward
the slater point, over all rows at once; those starts must not depend on
the rest of the batch.  It then brackets every distance by Kelley's
cutting planes in one pruned loop, each round projecting every open row
onto its cuts with one NNLS, and ``distance_to_solution_set`` is its
one-row call.
Every lower bound of a pruned batch must sit below the distance of every
feasible point a brute-force search finds, and every closed bracket
must agree to 1e-9 with the boundary points that the one-point-at-a-time
algorithm of before certified as projections; that algorithm is kept
below as a reference.  ``_nnls_residual`` is checked against brute-force
enumeration of supports.
"""

import contextlib
import io
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebstab import expressions, moduli
from ebstab.cli import main
from ebstab.errors import NumericalOverflow
from ebstab.expressions import (AbsCoord, Const, ConvexExpr, Max, Sum,
                                subdifferential)
from ebstab.geometry import dedupe_rows, min_norm_point
from ebstab.moduli import (
    BRACKET_RTOL,
    FEAS_TOL,
    _bisect_to_boundary,
    _brackets,
    _nnls_residual,
    _pull_to_solution_set,
    box_sample,
    distance_to_solution_set,
)
from ebstab.problems import parse_problem

from conftest import random_expr, reference_value

BENCH_PROBLEMS = Path(__file__).resolve().parents[1] / "bench" / "problems"


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
        got = float(np.linalg.norm(_nnls_residual(gens, target)[0]))
        assert abs(got - want) <= 1e-10, (gens, target, got, want)
        inside += want <= 1e-12
    assert inside >= 50


def test_nnls_near_parallel_generators():
    # the subgradients of a 9-member interval family at a corner: the cone
    # is the whole quadrant, so the residual must vanish
    t = np.linspace(0.0, 1.0, 9)
    gens = np.stack([t, 1.0 - t], axis=1)
    target = np.array([1.0, 0.01]) / np.linalg.norm([1.0, 0.01])
    assert np.linalg.norm(_nnls_residual(gens, target)[0]) <= 1e-12


def linf_ball_fn():
    return Sum([(1.0, Max([AbsCoord(0, 2), AbsCoord(1, 2)])), (1.0, Const(-1.0, 2))])


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
    stages: point values (from the conftest reference evaluator, which
    shares no arithmetic with the batched oracle), Wolfe subgradients, a
    LAPACK 2x2 solve, scalar bisection and the projected-gradient cone
    test."""

    def value(self, f, p):
        return reference_value(f, p)

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

    def certified(self, f, x, z):
        return _reference_certified(f, x, z)


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


def _tangent_basis(unit_ray):
    """Orthonormal basis of the hyperplane orthogonal to unit_ray."""
    m = unit_ray.shape[0]
    if m == 1:
        return []
    mat = np.eye(m) - np.outer(unit_ray, unit_ray)
    q, r = np.linalg.qr(mat)
    cols = [q[:, i] for i in range(m) if abs(r[i, i]) > 1e-10]
    return cols[: m - 1]


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
    if f.dim == 1 or ops.certified(f, x, best_pt):
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
        done = ops.certified(f, x, best_pt)
        if done:
            break
    return best, done


def _slater_problem(rng, m, n):
    g = random_expr(rng, m)
    s = rng.normal(size=m)
    f = Sum([(1.0, g), (1.0, Const(-g._value(s) - 1.0, m))])
    return f, s, s + 3.0 * rng.normal(size=(n, m))


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
        for x in xs:
            d = distance_to_solution_set(f, x, s)
            want, done = _reference_distance(f, x, s, ops)
            if done:
                certified += 1
                assert abs(d - want) <= 1e-9 * want
    assert certified >= 150


def _starts(f, X, s):
    """The pulled points and boundary points that start the brackets of
    the infeasible rows of X, as ``_brackets`` computes them."""
    y, fy = _pull_to_solution_set(f, X, f._value_batch(X))
    z, _, _ = _bisect_to_boundary(f, y, fy, np.broadcast_to(s, X.shape),
                                  f._value(s), 100)
    return y, z


def test_distances_rows_independent_of_batch():
    # the pulled points and boundary points that start every bracket, for
    # the infeasible rows of a subset, a permutation or a single row
    rng = np.random.default_rng(44)
    for _ in range(15):
        m = int(rng.integers(1, 4))
        f, s, xs = _slater_problem(rng, m, 12)
        infeasible = f._value_batch(xs) > 0.0
        y, z = np.zeros_like(xs), np.zeros_like(xs)
        y[infeasible], z[infeasible] = _starts(f, xs[infeasible], s)
        subsets = [np.arange(0, xs.shape[0], 2), rng.permutation(xs.shape[0])]
        subsets += [np.array([i]) for i in rng.permutation(xs.shape[0])[:3]]
        for rows in subsets:
            rows = rows[infeasible[rows]]
            if rows.size:
                got_y, got_z = _starts(f, xs[rows], s)
                assert np.array_equal(got_y, y[rows])
                assert np.array_equal(got_z, z[rows])


@pytest.mark.parametrize("stem", ["exp1_box", "poly3_box"])
def test_brackets_start_from_one_boundary_search(stem, monkeypatch):
    # every row's bracket starts from one lock-step boundary search from
    # its pulled point, before the first cutting-plane round
    events = []
    for name in ("_brackets", "_bisect_to_boundary", "_cut_round"):
        def spy(*args, _real=getattr(moduli, name), _name=name):
            events.append(_name)
            return _real(*args)
        monkeypatch.setattr(moduli, name, spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze-global", str(BENCH_PROBLEMS / f"{stem}.eb"),
                     "--samples", "512", "--seed", "0"]) == 0
    assert events.count("_brackets") == 1
    start = events.index("_brackets")
    first_round = events.index("_cut_round", start)
    assert events[start + 1:first_round] == ["_bisect_to_boundary"]


def _record_rows(monkeypatch) -> list:
    """The row count of every batched value, minorant and gradient call,
    at every node, from now on."""
    rows = []
    for cls in vars(expressions).values():
        if not (isinstance(cls, type) and issubclass(cls, ConvexExpr)):
            continue
        for name in ("_value_batch", "_minorants_batch", "_grad_batch"):
            if name in vars(cls):
                def spy(self, X, _real=vars(cls)[name]):
                    rows.append(X.shape[0])
                    return _real(self, X)
                monkeypatch.setattr(cls, name, spy)
    return rows


@pytest.mark.parametrize("argv", [["exp1_box"], ["poly3_box", "--samples", "128"]])
def test_global_analysis_evaluates_no_segment_end_again(argv, monkeypatch):
    # every boundary search gets its end values from its caller, which
    # evaluated them before, evaluates only its three probes per row and
    # round, and no later call outside a search evaluates an end or a
    # returned point (the witness search reads the boundary sample's values)
    evaluated = []        # (node, row, inside a search) of every value call
    inside = [False]
    for cls in vars(expressions).values():
        if isinstance(cls, type) and issubclass(cls, ConvexExpr) and (
                "_value_batch" in vars(cls)):
            def spy(self, X, _real=vars(cls)["_value_batch"]):
                evaluated.extend((id(self), x.tobytes(), inside[0]) for x in X)
                return _real(self, X)
            monkeypatch.setattr(cls, "_value_batch", spy)
    searches = []

    def search(f, a, fa, b, fb, max_iter, _real=moduli._bisect_to_boundary):
        start = len(evaluated)
        inside[0] = True
        out = _real(f, a, fa, b, fb, max_iter)
        inside[0] = False
        a = np.asarray(a, dtype=float)
        rows = np.concatenate([a, np.broadcast_to(b, a.shape)])
        searches.append((id(f), rows, out, start, len(evaluated)))
        return out

    monkeypatch.setattr(moduli, "_bisect_to_boundary", search)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze-global", str(BENCH_PROBLEMS / f"{argv[0]}.eb"),
                     *argv[1:], "--seed", "0"]) == 0
    assert len(searches) >= 2
    for node, ends, (points, steps, _), start, stop in searches:
        ends = {(node, x.tobytes()) for x in ends}
        before = {(n, x) for n, x, _ in evaluated[:start] if n == node}
        assert ends <= before
        probes = [n for n, _, _ in evaluated[start:stop] if n == node]
        assert steps % 3 == 0 and len(probes) == steps
        later = {(n, x) for n, x, probe in evaluated[stop:] if not probe}
        assert not later & (ends | {(node, x.tobytes()) for x in points})


@pytest.mark.parametrize("stem", ["linf2_box", "exp1_box"])
def test_global_analysis_calls_no_oracle_on_zero_rows(stem, monkeypatch):
    # an empty cutting-plane round or witness set returns before any call
    rows = _record_rows(monkeypatch)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze-global", str(BENCH_PROBLEMS / f"{stem}.eb"),
                     "--seed", "0"]) == 0
    assert rows and min(rows) > 0


def test_distance_calls_no_oracle_on_zero_rows(monkeypatch):
    # one row: _brackets' second group of rows is empty
    f = Sum([(1.0, Max([AbsCoord(0, 2), AbsCoord(1, 2)])), (1.0, Const(-1.0, 2))])
    rows = _record_rows(monkeypatch)
    assert moduli.distance_to_solution_set(f, [3.0, 0.5], [0.0, 0.0]) == (
        pytest.approx(2.0, rel=BRACKET_RTOL))
    assert rows and min(rows) > 0


@pytest.mark.parametrize("samples", ["128", "512"])
def test_poly3_box_pull_stops_where_the_search_takes_over(samples, monkeypatch):
    # the slow rows of poly3_box sit on one smooth curved piece, where each
    # two-plane step cuts f only about fourfold; the pull stops once its
    # next Polyak step is short, within a few rounds
    calls = []

    class Counting:
        def __init__(self, f):
            self._f = f

        def __getattr__(self, name):
            return getattr(self._f, name)

        def _value_batch(self, X):
            calls[-1] += 1
            return self._f._value_batch(X)

    def spy(f, X, vals, _real=moduli._pull_to_solution_set):
        return _real(Counting(f), X, vals)

    monkeypatch.setattr(moduli, "_pull_to_solution_set", spy)
    for seed in range(5):
        calls.append(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze-global", str(BENCH_PROBLEMS / "poly3_box.eb"),
                         "--samples", samples, "--seed", str(seed)]) == 0
    assert 0 < max(calls) <= 12, calls


def test_pull_evaluates_no_point_twice(monkeypatch):
    # an accepted two-plane Newton step keeps the value its candidate was
    # accepted on, so the next round evaluates only the rows that took a
    # Polyak step, and no value call inside the pull reads a point again,
    # nor a starting row, whose value the caller passes in (on poly3_box,
    # whose curved piece keeps two rows from meeting; on a polyhedral f
    # two rows may be pulled onto one point)
    pulls = []

    class Recording:
        def __init__(self, f):
            self._f = f

        def __getattr__(self, name):
            return getattr(self._f, name)

        def _value_batch(self, X):
            pulls[-1][1].extend(x.tobytes() for x in X)
            return self._f._value_batch(X)

    def spy(f, X, vals, _real=moduli._pull_to_solution_set):
        pulls.append(({x.tobytes() for x in X}, []))
        return _real(Recording(f), X, vals)

    monkeypatch.setattr(moduli, "_pull_to_solution_set", spy)
    for seed in range(5):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["analyze-global", str(BENCH_PROBLEMS / "poly3_box.eb"),
                         "--samples", "128", "--seed", str(seed)]) == 0
    assert len(pulls) == 5 and all(rows for _, rows in pulls)
    for starts, rows in pulls:
        assert len(set(rows)) == len(rows)
        assert starts.isdisjoint(rows)


@pytest.mark.parametrize("c", [2.0 ** -10, 2.0 ** 10])
def test_pull_is_scale_free(c):
    # scaling f by a power of two scales f and every subgradient exactly,
    # so a scale-free stop pulls every infeasible sample row of each boxed
    # fixture problem to the same point, bit for bit
    for path in sorted(BENCH_PROBLEMS.glob("*_box.eb")):
        problem = parse_problem(path.read_text())
        f = problem.function_expr()
        for seed in range(3):
            sample = box_sample(f, problem.box, 512, seed)
            X = sample.points[sample.values > 0.0]
            g = Sum([(c, f)])
            assert np.array_equal(
                _pull_to_solution_set(g, X, g._value_batch(X))[0],
                _pull_to_solution_set(f, X, f._value_batch(X))[0]), (path.name, seed)


def test_distances_lockstep_kink_problem():
    # corner rays of the sup-norm ball: every boundary point is a kink and
    # d(x, S) / f(x) = sqrt(2) along the diagonal
    f = linf_ball_fn()
    xs = np.array([[2.0, 2.0], [-3.0, 3.0], [2.0, 0.5], [0.0, 0.0]])
    got = [distance_to_solution_set(f, x, np.zeros(2)) for x in xs]
    assert got == pytest.approx([math.sqrt(2.0), 2.0 * math.sqrt(2.0), 1.0, 0.0],
                                abs=1e-9)


def test_distances_exp_overflow_is_typed():
    # problem 46 of a seed-7 sweep, 2-D, with row 4 moved ten times farther
    # from s: f is finite there, but a two-plane Newton candidate of the
    # pull lands where exp overflows; that candidate is rejected, the pull
    # stops once its next Polyak step is short, and the one boundary search
    # from there toward s starts a bracket that still closes, finite
    rng = np.random.default_rng(7)
    for _ in range(46):
        m = int(rng.integers(1, 4))
        f, s, xs = _slater_problem(rng, m, 10)
    x = s + 10.0 * (xs[4] - s)
    assert m == 2 and x == pytest.approx([-3.430, 16.203], abs=1e-3)
    lb, ub, _ = _brackets(f, x[None], f._value_batch(x[None]), s, f._value(s))
    assert np.all(np.isfinite(ub))
    assert ub[0] - lb[0] <= BRACKET_RTOL * ub[0]
    assert ub[0] == pytest.approx(14.69883911, abs=1e-8)
    assert distance_to_solution_set(f, x, s) == ub[0]
    # where f itself overflows, the error stays typed
    with pytest.raises(NumericalOverflow):
        distance_to_solution_set(f, [-3.43, 800.0], s)


def _brute_force_distance(f, x, radius, rng, n=20000):
    """The distance from x to the nearest feasible one of n uniform
    samples of the ball of the given radius around x."""
    m = x.shape[0]
    dirs = rng.normal(size=(n, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = x + radius * rng.random((n, 1)) ** (1.0 / m) * dirs
    d = np.linalg.norm(pts - x, axis=1)[f._value_batch(pts) <= 0.0]
    return float(np.min(d)) if d.size else math.inf


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), skip=st.integers(0, 2))
@example(seed=11, skip=73)   # the tangential polish reported 73.30 here
def test_brackets_hold_brute_force_distances(seed, skip):
    # the skip-th problem of a sweep drawn from seed, in 2-D or 3-D, its
    # infeasible rows in one pruned batch: every lower bound sits below the
    # distance of every feasible point found by brute force, and every
    # closed bracket's upper end as well, the pruned rows' included
    rng = np.random.default_rng(seed)
    for _ in range(skip + 1):
        m = int(rng.integers(2, 4))
        f, s, xs = _slater_problem(rng, m, 4)
    vals = f._value_batch(xs)
    x, vals = xs[vals > 0.0], vals[vals > 0.0]
    if not vals.size:
        return
    lb, ub, _ = _brackets(f, x, vals, s, f._value(s))
    assert np.all(lb <= ub)
    closed = ub - lb <= BRACKET_RTOL * ub
    for i in range(vals.size):
        nearest = _brute_force_distance(f, x[i], 1.01 * ub[i], rng)
        assert lb[i] <= nearest * (1.0 + 1e-12)
        if closed[i]:
            assert ub[i] <= nearest * (1.0 + 1e-9)
