"""Modulus estimation, boundary sampling and stability verdicts."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebstab import geometry, moduli, sphere
from ebstab.cli import main
from ebstab.errors import (
    NoSignChangeInBox,
    NoSlaterPoint,
    NumericalOverflow,
    PreconditionError,
)
from ebstab.expressions import (
    AbsCoord,
    Affine,
    Const,
    EuclidNorm,
    Exp1D,
    Max,
    PosPartSquare,
    Sum,
    evaluate,
    subdifferential,
)
from ebstab.geometry import min_support_direction
from ebstab.moduli import (
    QC_BLOCK,
    BoundarySample,
    QCWitness,
    _bisect_to_boundary,
    boundary_sample,
    box_sample,
    classify_global_stability,
    classify_local_stability,
    distance_to_solution_set,
    eta_global,
    eta_local,
    find_slater_point,
    qc_witness_search,
)
from ebstab.problems import parse_problem
from ebstab.reports import emit_report
from ebstab.sampling import box_points
from ebstab.sphere import ZERO_TOL, _betas, beta, linear_perturbation
from ebstab.sweep import run_perturbation_sweep

from conftest import (bisect_reference, eta_local_levels_reference,
                      random_expr, same_bits)

EXP = Exp1D(0, -1.0, 1)
EXP_TAIL = (np.array([-50.0]), np.array([2.0]))
BOX2 = (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))
BENCH_PROBLEMS = Path(__file__).resolve().parents[1] / "bench" / "problems"


def linf_ball_fn():
    # max(|x1|, |x2|) - 1, the unit sup-norm ball
    return Sum([(1.0, Max([AbsCoord(0, 2), AbsCoord(1, 2)])), (1.0, Const(-1.0, 2))])


def test_distance_exp_from_two():
    assert distance_to_solution_set(EXP, [2.0], slater=[-1.0]) == pytest.approx(2.0, abs=1e-9)


def test_distance_halfspace_formula(rng):
    for _ in range(20):
        a = rng.uniform(-2, 2, size=2)
        if np.linalg.norm(a) < 0.3:
            continue
        b = rng.uniform(-1, 1)
        f = Affine(a, -b)
        x = rng.uniform(-3, 3, size=2)
        fx = evaluate(f, x)
        if fx <= 0:
            continue
        want = fx / np.linalg.norm(a)
        s = x - (fx + 1.0) * a / float(a @ a)
        got = distance_to_solution_set(f, x, slater=s)
        assert got == pytest.approx(want, abs=1e-9)


def test_distance_linf_ball():
    got = distance_to_solution_set(linf_ball_fn(), [2.0, 0.0], slater=[0.0, 0.0])
    assert got == pytest.approx(1.0, abs=1e-9)


def test_distance_feasible_point_is_zero():
    assert distance_to_solution_set(EXP, [-1.0], slater=[-1.0]) == 0.0


def test_distance_requires_slater():
    # (x+)^2 + 1 > 0 everywhere: no slater point exists in any box
    f = Sum([(1.0, PosPartSquare(0, 1)), (1.0, Const(1.0, 1))])
    with pytest.raises(NoSlaterPoint):
        find_slater_point(box_sample(f, (np.array([-5.0]), np.array([5.0])), 1024))
    with pytest.raises(NoSlaterPoint):
        distance_to_solution_set(f, [2.0], slater=[0.0])


@pytest.mark.parametrize("box, n", [
    ((np.array([-1.0]), np.array([1.0])), 0),
    ((np.array([-1.0]), np.array([1.0])), -5),
    ((np.array([1.0]), np.array([1.0])), 8),
    ((np.array([-1.0, -1.0]), np.array([1.0, 1.0])), 8),
])
def test_box_sample_rejects_bad_input(box, n):
    with pytest.raises(ValueError):
        box_sample(EXP, box, n)


def _scalar_bisect(value, pos_pt, neg_pt, max_iter, rel_width=1e-15):
    """One segment at a time: the bisection that the lock-step version
    replaced, with the value oracle as a parameter."""
    lo, hi = np.asarray(pos_pt, float), np.asarray(neg_pt, float)
    span = float(np.linalg.norm(hi - lo))
    it = 0
    for it in range(1, max_iter + 1):
        mid = 0.5 * (lo + hi)
        if value(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if np.linalg.norm(hi - lo) <= rel_width * (1.0 + span):
            break
    return hi, it


def _slater_problem(rng, m, n):
    """A random convex f with f(s) = -1, s, and the infeasible rows among
    n points scattered around s."""
    g = random_expr(rng, m)
    s = rng.normal(size=m)
    f = Sum([(1.0, g), (1.0, Const(-g._value(s) - 1.0, m))])
    xs = s + 3.0 * rng.normal(size=(n, m))
    return f, s, xs[f._value_batch(xs) > 0.0]


class _Counted:
    """f with a tally of the points its batched value oracle evaluates."""

    def __init__(self, f):
        self.f, self.evaluated = f, 0

    def _value_batch(self, X):
        self.evaluated += X.shape[0]
        return self.f._value_batch(X)


def _search_against_bisection(f, pos, neg, max_iter):
    """Run the lock-step search on the segments pos -> neg and check each
    row against the scalar bisection: the point is feasible, and both
    points lie on the feasible side of one root, each within its bracket,
    so they differ by at most bisection's final width, and the values
    returned are f there.  Returns steps and bisection's step count summed
    over the rows."""
    counted = _Counted(f)
    points, steps, values = _bisect_to_boundary(
        counted, pos, f._value_batch(pos), neg, f._value_batch(neg), max_iter)
    assert type(steps) is int and steps == counted.evaluated
    assert np.array_equal(values, f._value_batch(points))
    assert np.all(values <= 0.0)
    value = lambda p: f._value_batch(p[None])[0]
    bisected = 0
    for row, a, b in zip(points, pos, neg):
        want, it = _scalar_bisect(value, a, b, max_iter)
        bisected += it
        span = np.linalg.norm(b - a)
        assert (np.linalg.norm(row - want)
                <= span * 2.0 ** -max_iter + 1e-12 * (1.0 + span))
        # the scalar oracle differs from the batched one in the last bits
        want, _ = _scalar_bisect(f._value, a, b, max_iter)
        assert (np.linalg.norm(row - want)
                <= span * 2.0 ** -max_iter + 1e-9 * (1.0 + span))
    return steps, bisected


def _segments(rng, f, s, pos):
    """Feasible ends for the infeasible rows pos: near s where feasible,
    else s itself."""
    near = s + 0.3 * rng.normal(size=pos.shape)
    return np.where((f._value_batch(near) <= 0.0)[:, None], near, s)


def test_lockstep_bisection_matches_scalar_reference():
    rng = np.random.default_rng(31)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        f, s, pos = _slater_problem(rng, m, 24)
        neg = _segments(rng, f, s, pos)
        for max_iter in (0, 1, 7, 40, 100):
            _search_against_bisection(f, pos, neg, max_iter)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
       max_iter=st.sampled_from([1, 3, 7, 40, 100]))
def test_convex_search_property(seed, m, max_iter):
    # one row at a time, so that steps = 3 per round, the ends unevaluated
    rng = np.random.default_rng(seed)
    f, s, pos = _slater_problem(rng, m, 6)
    neg = _segments(rng, f, s, pos)
    for a, b in zip(pos, neg):
        steps, bisected = _search_against_bisection(f, a[None], b[None],
                                                    max_iter)
        rounds, rest = divmod(steps, 3)
        assert rest == 0 and rounds <= min(max_iter, bisected)


def test_search_from_rounding_noise_closes():
    # the tilted family2_box sup reads 1.7e-18, rounding noise, at this row
    # pulled from near (1, 1): the chord root (t ~ 5e-19) rounds back onto
    # the start, so the raised closing probe must close the bracket, not
    # 32 rounds of midpoints
    problem = parse_problem((BENCH_PROBLEMS / "family2_box.eb").read_text())
    g = linear_perturbation(problem.function_expr(), [-0.7071067811865476] * 2,
                            0.01, [1.0, 1.0])
    a = np.array([1.0, float.fromhex("0x1.ffffffffffffep-1")])
    s = np.array([float.fromhex("-0x1.6621aadaf1d20p+1"),
                  float.fromhex("-0x1.680c084903300p+1")])
    assert 0.0 < g._value(a) < 1e-17 and g._value(s) < 0.0
    points, steps, _ = _bisect_to_boundary(g, a[None], g._value(a), s[None],
                                           g._value(s), 100)
    assert steps <= 3 * 2
    assert g._value(points[0]) <= 0.0
    goal = moduli.SEARCH_RTOL * (1.0 + np.linalg.norm(s - a))
    assert np.linalg.norm(points[0] - a) <= goal


def _search_matches_reference(f, pos, pos_vals, neg, neg_vals, max_iter):
    got = _bisect_to_boundary(f, pos, pos_vals, neg, neg_vals, max_iter)
    want = bisect_reference(f, pos, pos_vals, neg, neg_vals, max_iter)
    assert got[1] == want[1] and type(got[1]) is int
    assert same_bits(got[0], want[0]) and same_bits(got[2], want[2])


@pytest.mark.parametrize("max_iter", [0, 1, 7, 40, 100])
def test_search_matches_the_reference_round_bit_for_bit(max_iter):
    # the round fills one probe array in place and reads each chosen
    # candidate by flat index; its points, steps and values must be those
    # of the np.stack / np.clip round, bit for bit, with one feasible end
    # per row or one for all, and with feasible starts and infeasible ends
    # mixed in
    rng = np.random.default_rng(32)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        f, s, pos = _slater_problem(rng, m, 24)
        neg = _segments(rng, f, s, pos)
        _search_matches_reference(f, pos, f._value_batch(pos), neg,
                                  f._value_batch(neg), max_iter)
        _search_matches_reference(f, pos, f._value_batch(pos), s,
                                  f._value(s), max_iter)
        mixed = np.vstack([pos, neg[:3]])
        ends = np.vstack([neg, pos[:3]])
        _search_matches_reference(f, mixed, f._value_batch(mixed), ends,
                                  f._value_batch(ends), max_iter)


def test_search_from_rounding_noise_matches_the_reference_round():
    # the row of test_search_from_rounding_noise_closes, whose chord root
    # is raised, at every round budget
    problem = parse_problem((BENCH_PROBLEMS / "family2_box.eb").read_text())
    g = linear_perturbation(problem.function_expr(), [-0.7071067811865476] * 2,
                            0.01, [1.0, 1.0])
    a = np.array([[1.0, float.fromhex("0x1.ffffffffffffep-1")]])
    s = np.array([[float.fromhex("-0x1.6621aadaf1d20p+1"),
                   float.fromhex("-0x1.680c084903300p+1")]])
    for max_iter in (0, 1, 7, 40, 100):
        _search_matches_reference(g, a, g._value_batch(a), s,
                                  g._value_batch(s), max_iter)


def test_search_affine_segment_closes_in_one_round():
    # f(x) = x - 1/2 from 1 to 0: the chord root 1/2 is exact and reads
    # feasible, and its closing partner half the goal width below reads
    # infeasible, so one round of three probes closes the bracket
    f = Affine([1.0], -0.5)
    points, steps, _ = _bisect_to_boundary(f, [[1.0]], 0.5, [[0.0]], -0.5, 100)
    assert steps == 3
    assert points[0, 0] == 0.5


def test_search_flat_root():
    # (x+)^2 has a root of zero slope: the chord from a zero end makes no
    # progress, so the midpoint carries the search
    f = PosPartSquare(0, 1)
    pos = np.array([[1.0], [3.0], [0.5], [2.0]])
    neg = np.array([[-1.0], [-0.2], [0.0], [-7.0]])
    for max_iter in (1, 3, 7, 40, 100):
        _search_against_bisection(f, pos, neg, max_iter)


def test_search_overflowing_end_is_typed():
    # exp(1000) overflows: the end values, which the caller evaluates,
    # raise instead of feeding inf to the chord, where inf / inf would
    # give a NaN point
    f = Exp1D(0, -1.0, 1)
    with pytest.raises(NumericalOverflow):
        _bisect_to_boundary(f, [[1000.0]], f._value_batch(np.array([[1000.0]])),
                            [[-1.0]], f._value(np.array([-1.0])), 100)


def test_find_slater_point_exp():
    s = find_slater_point(box_sample(EXP, (np.array([-5.0]), np.array([5.0])), 1024))
    assert evaluate(EXP, s) < 0


def test_boundary_sample_exp():
    bs = boundary_sample(EXP, box_sample(EXP, (np.array([-2.0]), np.array([2.0])), 256), 32)
    assert bs.points.shape == (32, 1)
    for p in bs.points:
        assert abs(evaluate(EXP, p)) <= 1e-9
        assert abs(p[0]) <= 1e-9  # the zero set boundary is exactly {0}


def test_boundary_sample_halfspace(rng):
    a = np.array([1.0, 2.0])
    f = Affine(a, -1.0)
    bs = boundary_sample(f, box_sample(f, BOX2, 256, 1), 24)
    for p in bs.points:
        assert abs(float(a @ p) - 1.0) <= 1e-9


def test_boundary_sample_linf_ball():
    f = linf_ball_fn()
    bs = boundary_sample(f, box_sample(f, (np.full(2, -2.0), np.full(2, 2.0)), 256, 2), 24)
    for p in bs.points:
        assert max(abs(p[0]), abs(p[1])) == pytest.approx(1.0, abs=1e-9)


def test_boundary_sample_no_sign_change():
    with pytest.raises(NoSignChangeInBox):
        boundary_sample(EXP, box_sample(EXP, (np.array([1.0]), np.array([2.0])), 256), 8)


def _l1_ball(m):
    return Sum([(1.0, AbsCoord(j, m)) for j in range(m)]
               + [(1.0, Const(-1.0, m))])


def test_boundary_sample_ends_at_the_anchor_without_a_feasible_sample():
    # ||x||_1 - 1 over [-2, 2]^6: the box sample holds no point with f < 0,
    # so every segment ends at the given anchor, the origin
    f, box = _l1_ball(6), (np.full(6, -2.0), np.full(6, 2.0))
    sample = box_sample(f, box, 256)
    assert not np.any(sample.values < 0.0)
    with pytest.raises(NoSignChangeInBox):
        boundary_sample(f, sample, 24)
    bs = boundary_sample(f, sample, 24, (np.zeros(6), -1.0))
    assert bs.points.shape == (24, 6)
    assert np.all(np.abs(np.abs(bs.points).sum(axis=1) - 1.0) <= 1e-9)
    assert np.array_equal(bs.values, f._value_batch(bs.points))


@pytest.mark.parametrize("m", [6, 8])
def test_analyze_global_searches_toward_a_declared_slater_point(m, tmp_path,
                                                                capsys):
    # the box sample of [-2, 2]^m misses the l1 ball, so the boundary
    # search anchors at the declared slater point, as eta_global does; tau
    # reads low (the exact tau and beta_inf are 1), so only the bound
    # tau * beta_inf <= 1 is checked
    terms = " ".join(f"1 (abs {j})" for j in range(m))
    path = tmp_path / "l1ball.eb"
    path.write_text(f"dim {m}\nexpr (sum {terms} 1 (const -1.0))\n"
                    f"slater {[0.0] * m}\nbox {' '.join(['-2.0..2.0'] * m)}\n"
                    "tau 0.5\n", encoding="utf-8")
    assert main(["analyze-global", str(path), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    tau, beta_inf = results["modulus"]["tau"], results["stability"]["beta_inf"]
    assert 0.0 < tau and tau * beta_inf <= 1.0 + 1e-12


def test_eta_local_exp():
    rep = eta_local(EXP, [0.0], seed=0)
    assert rep.kind == "local"
    assert rep.eta_estimate == pytest.approx(1.0, abs=0.02)
    assert rep.tau_estimate == pytest.approx(1.0, abs=0.02)
    assert len(rep.shrink_levels) == 8


def test_eta_local_affine_exact(rng):
    a = rng.uniform(-2, 2, size=2)
    f = Affine(a, 0.0)
    want = float(np.linalg.norm(a))
    for seed in (3, 77):  # exact regardless of the sampling seed
        rep = eta_local(f, [0.0, 0.0], seed=seed)
        assert rep.eta_estimate == pytest.approx(want, abs=1e-12)
        for _, d in rep.shrink_levels:
            assert d == pytest.approx(want, abs=1e-12)


def test_eta_local_pospartsquare_diverges():
    rep = eta_local(PosPartSquare(0, 1), [0.0], seed=0)
    assert rep.eta_estimate <= 1e-2
    assert rep.tau_estimate >= 100.0


def test_eta_local_reads_a_gradient_below_zero_tol_as_plus_zero():
    # the finest balls see gradients 2x below ZERO_TOL, where beta reads 0:
    # the distance is +0.0 there, not the -0.0 that negating beta gives
    rep = eta_local(PosPartSquare(0, 1), [0.0], levels=40, seed=0)
    assert rep.shrink_levels[-1][1] == 0.0 and rep.eta_estimate == 0.0
    assert math.copysign(1.0, rep.eta_estimate) == 1.0
    assert rep.tau_estimate == math.inf


def test_eta_local_requires_boundary_point():
    with pytest.raises(PreconditionError):
        eta_local(EXP, [1.0])


@pytest.mark.parametrize("kw", [{"levels": 0}, {"samples_per_level": 0},
                                {"levels": -1, "samples_per_level": -3}])
def test_eta_local_rejects_counts_below_one(kw):
    with pytest.raises(ValueError, match="at least one"):
        eta_local(EXP, [0.0], **kw)


@pytest.mark.parametrize("check", [
    lambda x: eta_local(EXP, x),
    lambda x: classify_local_stability(EXP, x),
    lambda x: run_perturbation_sweep(
        parse_problem("dim 1\nexpr (exp1d 0 -1)\n"), x, [[-1.0]], [0.1]),
])
def test_boundary_precondition_names_the_value(check):
    # every analysis at a reference point refuses one off the boundary
    # with the same message, which names the value of f it saw
    with pytest.raises(PreconditionError,
                       match=r"f = 0 within 1e-09, got 1\.72$"):
        check([1.0])


def _hex_levels(levels):
    return [(r.hex(), None if d is None else d.hex()) for r, d in levels]


def _matches_level_loop(f, xbar, rep, levels, seed):
    per_level = rep.sample_count // levels
    seed_base = seed + 1000 if "resampled" in rep.notes else seed
    want = eta_local_levels_reference(f, xbar, levels, per_level, seed_base)
    assert _hex_levels(rep.shrink_levels) == _hex_levels(want)


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
       n=st.sampled_from([16, 64, 700]))
def test_eta_local_levels_match_level_loop_bit_for_bit(seed, m, n):
    # one batch over all levels gives each level the minimum its own draw,
    # screen and distance pass give
    rng = np.random.default_rng(seed)
    g = random_expr(rng, m)
    xbar = rng.uniform(-1.0, 1.0, size=m)
    f = Sum([(1.0, g), (1.0, Const(-g._value(xbar), m))])
    if abs(f._value(xbar)) > moduli.BOUNDARY_VALUE_TOL:
        return
    try:
        rep = eta_local(f, xbar, levels=6, samples_per_level=n, seed=seed % 1000)
    except NumericalOverflow:
        return
    _matches_level_loop(f, xbar, rep, 6, seed % 1000)


@pytest.mark.parametrize("seed", [2, 1001])
def test_eta_local_levels_match_level_loop_with_resample(seed):
    rep = eta_local(EXP, [0.0], levels=8, samples_per_level=256, seed=seed)
    assert ("resampled" in rep.notes) == (seed == 1001)
    _matches_level_loop(EXP, np.array([0.0]), rep, 8, seed)


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("seed, runs", [(2, 1), (1001, 2)])
def test_eta_local_draws_and_screens_each_run_once(seed, runs, monkeypatch):
    # a run draws every level in one call and takes all of its distances
    # from one beta call; a resample is a second run
    draws = _counting(monkeypatch, moduli, "ball_points")
    screens = _counting(monkeypatch, moduli, "_betas")
    eta_local(EXP, [0.0], levels=8, samples_per_level=256, seed=seed)
    assert len(draws) == runs and len(screens) == runs


def test_analyze_local_never_builds_the_cube(monkeypatch, capsys):
    # ||x||_1 at the origin of R^5: the 32 cube vertices are never built,
    # as beta reads the box's ends, and no set is put in normal form, as
    # the atoms' sets are boxes too
    rows = _counting(monkeypatch, geometry, "dedupe_rows")
    assert main(["analyze-local", str(BENCH_PROBLEMS / "l1norm5.eb"),
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert rows == []


@pytest.mark.parametrize("stem, sets", [("l1norm5", 4), ("l1norm4", 3),
                                        ("l1ball5", 5)])
def test_analyze_local_builds_no_set_for_a_unit_weight(stem, sets,
                                                       monkeypatch, capsys):
    # a sum of unit-weight atoms builds one box per partial sum, none to
    # scale an atom's set by 1, and no set from rows: the atoms' sets are
    # boxes made with no normal-form pass
    built = []
    init, box_sum = geometry.SubdiffSet.__init__, geometry.SubdiffSet._box_sum

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(geometry.SubdiffSet, "__init__", counted)
    monkeypatch.setattr(geometry.SubdiffSet, "_box_sum", classmethod(
        lambda cls, a, b: built.append(b) or box_sum(a, b)))
    assert main(["analyze-local", str(BENCH_PROBLEMS / f"{stem}.eb"),
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert len(built) == sets


def test_eta_local_batches_stay_within_the_block(monkeypatch):
    rows = []
    value_batch = Exp1D._value_batch

    def counted(self, X):
        rows.append(X.shape[0])
        return value_batch(self, X)

    monkeypatch.setattr(Exp1D, "_value_batch", counted)
    per_level = moduli.LOCAL_BLOCK // 2 - 1
    rep = eta_local(EXP, [0.0], levels=8, samples_per_level=per_level, seed=2)
    batches = [r for r in rows if r > 1]
    assert max(batches) <= moduli.LOCAL_BLOCK
    assert sum(batches) == rep.sample_count and len(batches) == 4


def test_eta_local_draws_no_ball_below_float_resolution():
    # x + r*u rounds to x once r is below the float spacing at x; such
    # levels are not drawn, so they cannot make the estimate vacuous
    f = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    g = Sum([(1.0, f), (1.0, Const(-1.0, 2))])
    rep = eta_local(g, [1.0, 0.0], levels=60, samples_per_level=64, seed=0)
    drawn = len(rep.shrink_levels)
    assert drawn == 39 and rep.shrink_levels[-1][0] == 2.0 ** -38
    assert rep.sample_count == drawn * 64
    assert "not drawn" in rep.notes
    assert not rep.vacuous and rep.tau_estimate == 1.0
    # the levels past the resolution are not even enumerated
    many = eta_local(g, [1.0, 0.0], levels=10**12, samples_per_level=64, seed=0)
    assert many.shrink_levels == rep.shrink_levels
    rep = eta_local(g, [1.0, 0.0], levels=8, seed=0)
    assert "not drawn" not in rep.notes and len(rep.shrink_levels) == 8


def test_eta_global_exp():
    rep = eta_global(EXP, box_sample(EXP, (np.array([-10.0]), np.array([10.0])), 256))
    assert rep.eta_estimate == pytest.approx(1.0, abs=0.05)
    assert rep.tau_estimate == pytest.approx(1.0, abs=0.05)
    assert rep.empirical_ratio is not None
    assert rep.empirical_ratio <= rep.tau_estimate


def test_eta_global_perturbed_exp_tail():
    eps = 0.1
    g = linear_perturbation(EXP, [-1.0], eps, [0.0])
    box = (np.array([-1e4]), np.array([2.0]))
    rep = eta_global(g, box_sample(g, box, 256))
    assert rep.eta_estimate == pytest.approx(eps, abs=1e-3)
    assert rep.empirical_ratio == pytest.approx(1.0 / eps, rel=0.01)
    assert rep.empirical_ratio <= rep.tau_estimate


def test_eta_global_affine_exact(rng):
    a = rng.uniform(-2, 2, size=2)
    f = Affine(a, -0.3)
    rep = eta_global(f, box_sample(f, (np.full(2, -2.0), np.full(2, 2.0)), 128, 5))
    assert rep.eta_estimate == pytest.approx(float(np.linalg.norm(a)), abs=1e-12)


def test_eta_global_vacuous_when_all_feasible():
    rep = eta_global(EXP, box_sample(EXP, (np.array([-5.0]), np.array([-1.0])), 64))
    assert rep.vacuous
    assert rep.eta_estimate == math.inf
    assert rep.tau_estimate == 0.0


def test_eta_global_without_slater_point_raises():
    # an all-infeasible sample has no point to anchor the ratio at, and no
    # sampled eta stands in for it
    sample = box_sample(EXP, (np.array([1.0]), np.array([5.0])), 64)
    assert np.all(sample.values > 0.0)
    with pytest.raises(NoSlaterPoint):
        eta_global(EXP, sample)


def test_reciprocity_invariant():
    for rep in (
        eta_local(EXP, [0.0], seed=0),
        eta_global(EXP, box_sample(EXP, (np.array([-10.0]), np.array([10.0])), 128)),
        eta_local(PosPartSquare(0, 1), [0.0], seed=1),
    ):
        if 0.0 < rep.eta_estimate < math.inf:
            assert rep.tau_estimate == 1.0 / rep.eta_estimate


def test_condition_3_9_exp():
    # the boundary of e^x - 1 is {0}, where |beta| = 1, and 1/ratio >= 1
    sample = box_sample(EXP, (np.array([-2.0]), np.array([2.0])), 256)
    v = classify_global_stability(EXP, 0.5, sample, eta_global(EXP, sample))
    assert v.verdict == "stable"
    assert v.beta_inf == pytest.approx(1.0, abs=1e-9)
    assert "set by the boundary sample" in v.notes


def test_condition_3_9_pospartsquare_fails():
    # the feasible region of (x+)^2 has empty interior, so the boundary
    # sample {0} is supplied directly
    bs = BoundarySample(points=np.array([[0.0]]), values=np.zeros(1))
    assert np.abs(_betas(PosPartSquare(0, 1), bs.points))[0] <= 1e-9


def test_condition_3_9_affine(rng):
    a = rng.uniform(-2, 2, size=2)
    f = Affine(a, -0.5)
    sample = box_sample(f, BOX2, 256)
    v = classify_global_stability(f, float(np.linalg.norm(a)) / 2, sample,
                                  eta_global(f, sample))
    assert v.verdict == "stable"
    assert v.beta_inf == pytest.approx(float(np.linalg.norm(a)), abs=1e-9)


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3))
@settings(max_examples=30)
def test_condition_3_9_matches_scalar_beta(seed, m):
    # with a Slater point the origin lies outside df at every zero of f,
    # so the batched distances give |beta| at every boundary point; the
    # verdict reads them off the boundary sample of a 256-point box
    # sample, 32 points, and its first least is the worst point
    rng = np.random.default_rng(seed)
    f, s, _ = _slater_problem(rng, m, 0)
    sample = box_sample(f, (s - 4.0, s + 4.0), 256, 1)
    try:
        bs = boundary_sample(f, sample, 32)
    except NoSignChangeInBox:
        return
    modulus = eta_global(f, sample)
    v = classify_global_stability(f, 0.5, sample, modulus)
    want = np.array([abs(beta(f, p).beta) for p in bs.points])
    got = np.abs(_betas(f, bs.points))
    assert got.min() == pytest.approx(want.min(), rel=1e-12, abs=0.0)
    assert want[np.argmin(got)] == pytest.approx(want.min(), rel=1e-12, abs=0.0)
    assert v.beta_inf == min(float(got.min()), 1.0 / modulus.empirical_ratio)


def test_condition_3_9_direction_is_beta_witness_at_the_worst_point():
    # max(0.2 x, 3 x) on [-2, 2]: the boundary is the kink {0}, where
    # |beta| = 0.2 (df is [0.2, 3]), while 1/ratio = 3 and the feasible
    # slope 0.2 flags no witness, so the boundary sample sets an unstable
    # verdict, which carries beta's witness at its first least |beta|
    f = Max([Affine([0.2], 0.0), Affine([3.0], 0.0)])
    sample = box_sample(f, (np.array([-2.0]), np.array([2.0])), 256)
    v = classify_global_stability(f, 0.5, sample, eta_global(f, sample))
    bs = boundary_sample(f, sample, 32)
    worst = bs.points[np.argmin(np.abs(_betas(f, bs.points)))]
    assert v.verdict == "unstable" and not v.qc_witnesses
    assert v.beta_inf == pytest.approx(0.2, rel=1e-12)
    assert np.array_equal(v.perturbation_direction, beta(f, worst).witness)


def test_condition_3_9_interior_point_takes_scalar_beta():
    # ||x|| at the origin: df is the unit ball, whose distance to the
    # origin is 0 while beta is its inradius, +1
    bs = BoundarySample(points=np.zeros((1, 2)), values=np.zeros(1))
    assert np.abs(_betas(EuclidNorm(2), bs.points))[0] == 1.0


def test_qc_witness_exp_tail():
    boundary = boundary_sample(EXP, box_sample(EXP, EXP_TAIL, 256, 1), 50)
    witnesses = qc_witness_search(EXP, 0.5, boundary, box_sample(EXP, EXP_TAIL, 400))
    assert len(witnesses) >= 1
    w = witnesses[0]
    assert abs(w.ratio) < 0.05
    assert abs(w.beta_z) <= 0.5
    assert evaluate(EXP, w.z) < 0


def test_qc_witness_affine_none(rng):
    a = rng.uniform(-2, 2, size=2)
    f = Affine(a, -0.5)
    tau = float(np.linalg.norm(a)) / 2
    boundary = boundary_sample(f, box_sample(f, BOX2, 256, 1), 37)
    assert qc_witness_search(f, tau, boundary, box_sample(f, BOX2, 300)) == []


def test_qc_witness_linf_ball_none():
    f = linf_ball_fn()
    boundary = boundary_sample(f, box_sample(f, BOX2, 256, 1), 37)
    assert qc_witness_search(f, 0.5, boundary, box_sample(f, BOX2, 300)) == []


def _qc_reference(f, tau, boundary, box, n, seed, flag_threshold=0.1):
    """The witness search one feasible sample at a time: each finds its
    nearest boundary point by a full scan and, if its slope passes the
    filter, computes beta."""
    boundary_vals = f._value_batch(boundary.points)
    pts = box_points(box[0], box[1], n, seed)
    vals = f._value_batch(pts)
    feasible = vals < 0.0
    witnesses = []
    for z, fz in zip(pts[feasible], vals[feasible]):
        dists = np.linalg.norm(boundary.points - z, axis=1)
        j = int(np.argmin(dists))
        if dists[j] < 1e-12:
            continue
        ratio = (fz - boundary_vals[j]) / float(dists[j])
        if abs(ratio) >= flag_threshold * tau:
            continue
        bz = beta(f, z).beta
        if abs(bz) <= tau:
            witnesses.append(QCWitness(z=z, x=boundary.points[j],
                                       ratio=float(ratio), beta_z=float(bz)))
    witnesses.sort(key=lambda w: abs(w.ratio))
    return witnesses


def _same_witnesses(f, tau, boundary, box, n, seed, flag_threshold=0.1):
    got = qc_witness_search(f, tau, boundary, box_sample(f, box, n, seed),
                            flag_threshold)
    want = _qc_reference(f, tau, boundary, box, n, seed, flag_threshold)
    assert emit_report(got, "json") == emit_report(want, "json")
    return got


def test_qc_search_matches_reference_on_exp_tail():
    # over 300 feasible samples, so the nearest-point scan takes many blocks
    assert (box_sample(EXP, EXP_TAIL, 400).values < 0.0).sum() > QC_BLOCK
    boundary = boundary_sample(EXP, box_sample(EXP, EXP_TAIL, 256, 1), 50)
    witnesses = _same_witnesses(EXP, 0.5, boundary, EXP_TAIL, 400, 0)
    assert len(witnesses) >= 1


def test_qc_search_on_exp_tail_builds_no_subdifferential(monkeypatch):
    # REM8's box: every flagged point is smooth, so beta is -|f'| (0 in the
    # tail) from one gradient batch, with no geometric certificate
    boundary = boundary_sample(EXP, box_sample(EXP, EXP_TAIL, 256, 1), 50)
    sample = box_sample(EXP, EXP_TAIL, 400)
    geometric = []

    def counted(f, x, zero_tol):
        geometric.append(x)
        return real(f, x, zero_tol)

    real = sphere._geometric_beta
    monkeypatch.setattr(sphere, "_geometric_beta", counted)
    got = qc_witness_search(EXP, 0.5, boundary, sample)
    assert geometric == []
    monkeypatch.undo()
    want = _qc_reference(EXP, 0.5, boundary, EXP_TAIL, 400, 0)
    assert len(got) >= 1
    assert emit_report(got, "json") == emit_report(want, "json")
    for w in got:
        sigma = min_support_direction(subdifferential(EXP, w.z))[0]
        if abs(sigma) <= ZERO_TOL:
            assert w.beta_z == 0.0
        else:
            assert abs(w.beta_z - sigma) <= 1e-12 * (1.0 + abs(sigma))


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
       n=st.sampled_from([40, 700]), tau=st.floats(0.05, 3.0))
@settings(max_examples=25)
def test_qc_search_matches_reference_on_random_boxes(seed, m, n, tau):
    rng = np.random.default_rng(seed)
    f, s, _ = _slater_problem(rng, m, 0)
    box = (s - rng.uniform(0.5, 4.0, size=m), s + rng.uniform(0.5, 4.0, size=m))
    try:
        boundary = boundary_sample(f, box_sample(f, box, 256, 1),
                                   int(rng.integers(1, 60)))
    except NoSignChangeInBox:
        return
    _same_witnesses(f, tau, boundary, box, n, seed % 1000, flag_threshold=0.5)


def test_global_verdict_draws_one_boundary_sample(monkeypatch):
    import ebstab.moduli as moduli

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return boundary_sample(*args, **kwargs)

    monkeypatch.setattr(moduli, "boundary_sample", counted)
    sample = box_sample(EXP, EXP_TAIL, 400)
    classify_global_stability(EXP, 0.5, sample, eta_global(EXP, sample))
    assert len(calls) == 1


def test_local_stability_exp_stable():
    v = classify_local_stability(EXP, [0.0])
    assert v.verdict == "stable"
    assert v.beta_inf == pytest.approx(1.0, abs=1e-12)


def test_local_stability_pospartsquare_unstable():
    v = classify_local_stability(PosPartSquare(0, 1), [0.0])
    assert v.verdict == "unstable"
    assert v.perturbation_direction is not None
    assert abs(np.linalg.norm(v.perturbation_direction) - 1.0) <= 1e-9


def test_local_stability_const_unstable():
    v = classify_local_stability(Const(0.0, 1), [0.0])
    assert v.verdict == "unstable"


def test_local_stability_precondition():
    with pytest.raises(PreconditionError):
        classify_local_stability(EXP, [1.0])


def test_global_stability_exp_unstable_with_witnesses():
    sample = box_sample(EXP, EXP_TAIL, 400)
    v = classify_global_stability(EXP, 0.5, sample, eta_global(EXP, sample))
    assert v.verdict == "unstable"
    assert len(v.qc_witnesses) >= 1


def test_global_stability_affine_stable(rng):
    a = rng.uniform(-2, 2, size=2)
    while np.linalg.norm(a) < 0.5:
        a = rng.uniform(-2, 2, size=2)
    f = Affine(a, -0.5)
    sample = box_sample(f, BOX2, 300)
    v = classify_global_stability(f, float(np.linalg.norm(a)) / 2, sample,
                                  eta_global(f, sample))
    assert v.verdict == "stable"


def test_global_stability_linf_ball_stable():
    f = linf_ball_fn()
    sample = box_sample(f, BOX2, 300)
    v = classify_global_stability(f, 0.5, sample, eta_global(f, sample))
    assert v.verdict == "stable"
    assert v.beta_inf > 0.5 * 1.05


@pytest.mark.parametrize("box", [BOX2, (np.full(2, -10.0), np.full(2, 10.0))])
def test_global_beta_inf_set_by_the_ratio_names_its_witness(box):
    # on the sup-norm ball every sampled boundary point has |beta| = 1 off
    # the corners, but the corner rays give 1/ratio ~ 1/sqrt(2): beta_inf
    # is that bound over bd S, certified by the ratio's witness x and its
    # lower distance bound lb(x), and no boundary direction is attached
    f = linf_ball_fn()
    sample = box_sample(f, box, 300)
    modulus = eta_global(f, sample)
    v = classify_global_stability(f, 0.9, sample, modulus)
    x, lb, ub = modulus.ratio_witness
    assert v.beta_inf == 1.0 / modulus.empirical_ratio < 0.9 * 0.95
    assert v.verdict == "unstable" and v.perturbation_direction is None
    assert modulus.tau_estimate * v.beta_inf <= 1.0 + 1e-12
    assert lb <= ub
    assert modulus.empirical_ratio == pytest.approx(lb / f._value(x), rel=1e-12)
    assert f"x = {np.array2string(x)}, lb(x) = {lb:.6g}" in v.notes
    inside = np.all(x - ub >= box[0]) and np.all(x + ub <= box[1])
    assert ("lies in the box" in v.notes) == inside
    assert ("the boundary point may lie outside it" in v.notes) == (not inside)
    assert "ratio_witness" not in modulus.payload()


def test_local_global_consistency_suite():
    # global tau over the box dominates the sampled local tau values
    cases = [
        (EXP, (np.array([-10.0]), np.array([10.0]))),
        (linf_ball_fn(), (np.array([-3.0, -3.0]), np.array([3.0, 3.0]))),
    ]
    for f, box in cases:
        glob = eta_global(f, box_sample(f, box, 256))
        bs = boundary_sample(f, box_sample(f, box, 256, 1), 8)
        local_taus = []
        for p in bs.points:
            try:
                local_taus.append(eta_local(f, p, levels=5,
                                            samples_per_level=64, seed=2).tau_estimate)
            except PreconditionError:
                continue
        assert local_taus
        assert glob.tau_estimate >= max(local_taus) * 0.95


def test_monotone_shrink_recorded():
    # per-level samples are fresh draws, so minima can wiggle at noise
    # level; a violation must be flagged as a resample in the notes
    rep = eta_local(EXP, [0.0], seed=0)
    finite = [d for _, d in rep.shrink_levels if d is not None]
    assert finite
    if finite[-1] > min(finite) + 1e-9:
        assert "resampled" in rep.notes
    assert rep.eta_estimate == pytest.approx(1.0, abs=0.02)


def test_eta_local_sample_count_after_resample():
    # at seed 1001 the first run is non-monotone; the reported levels come
    # from the second run, with twice the samples per level
    rep = eta_local(EXP, [0.0], levels=8, samples_per_level=256, seed=1001)
    assert "resampled" in rep.notes
    assert len(rep.shrink_levels) == 8
    assert rep.sample_count == 8 * 512
    rep = eta_local(EXP, [0.0], levels=8, samples_per_level=256, seed=2)
    assert "resampled" not in rep.notes and rep.sample_count == 8 * 256
