"""The empirical ratio of ``eta_global``: bound every row, refine only the
rows that can set the maximum.

The largest lower bound lb / vals of one pruned ``_brackets`` batch must
equal exactly the largest over one-row ``_brackets`` calls, where nothing
is pruned, whatever the order of the rows, and on a problem whose ratio
is set by a few corner rays it must project only a few rows onto their
cuts.  The tau reported beside it must never read below it, and no
sampled subgradient may pull eta below its reciprocal.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ebstab import moduli, scenarios
from ebstab.cli import main
from ebstab.errors import EbstabError
from ebstab.expressions import (AbsCoord, ComposeAffine, Const, EuclidNorm, Max,
                                PosPartSquare, Sum)
from ebstab.moduli import (BoxSample, _brackets, _tightened, box_sample,
                           eta_global)
from ebstab.scenarios import reproduce

from conftest import random_expr

BENCH_PROBLEMS = Path(__file__).resolve().parents[1] / "bench" / "problems"


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3))
def test_max_ratio_is_the_full_maximum(seed, m):
    rng = np.random.default_rng(seed)
    g = random_expr(rng, m)
    s = rng.normal(size=m)
    f = Sum([(1.0, g), (1.0, Const(-g._value(s) - 1.0, m))])
    X = s + 3.0 * rng.normal(size=(12, m))
    vals = f._value_batch(X)
    X, vals = X[vals > 0.0], vals[vals > 0.0]
    assume(X.shape[0] > 0)
    try:
        want = max(float(_brackets(f, X[i:i + 1], vals[i:i + 1], s)[0][0]
                         / vals[i]) for i in range(X.shape[0]))
    except EbstabError:
        # a one-row call fails on some row; the ratio may skip that row
        assume(False)
    assert float(np.max(_brackets(f, X, vals, s)[0] / vals)) == want
    perm = rng.permutation(X.shape[0])
    lb = _brackets(f, X[perm], vals[perm], s)[0]
    assert float(np.max(lb / vals[perm])) == want


def test_max_ratio_refines_few_rows_on_sup_norm_ball(monkeypatch):
    # on the unit sup-norm ball every row beyond a corner projects to that
    # corner, a kink, so about half of the infeasible rows have a ratio
    # above 1; only rays near a diagonal come close to the largest ratio,
    # sqrt(2), and the rows whose bound cannot beat it never project
    f = Sum([(1.0, Max([AbsCoord(0, 2), AbsCoord(1, 2)])), (1.0, Const(-1.0, 2))])
    box = (np.full(2, -3.0), np.full(2, 3.0))
    calls = []
    project = moduli._project

    def counted(*args):
        calls.append(args)
        return project(*args)

    monkeypatch.setattr(moduli, "_project", counted)
    sample = box_sample(f, box, 512, 0)
    report = eta_global(f, sample)
    infeasible = int(np.sum(sample.values > 0.0))
    assert infeasible > 400
    assert len(calls) < 0.05 * infeasible
    assert math.sqrt(2.0) - 0.05 < report.empirical_ratio <= math.sqrt(2.0) + 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_hoffman_ratio_matches_exact_polyhedral_distances(seed, monkeypatch):
    # every polyhedral system of the HOFFMAN scenario: the empirical ratio
    # is the largest exact distance ratio over the same infeasible samples
    systems = []

    def recorded(f, sample, slater=None):
        report = eta_global(f, sample, slater=slater)
        if isinstance(f, Max):
            systems.append((f, sample, report))
        return report

    monkeypatch.setattr(scenarios, "eta_global", recorded)
    reproduce("HOFFMAN", seed)
    assert len(systems) == 10
    for f, sample, report in systems:
        mats = np.array([c.a for c in f.children])
        rhs = -np.array([c.b for c in f.children])
        pts = sample.points
        vals = f._value_batch(pts)
        infeasible = vals > 0.0
        exact = scenarios._polyhedron_distances(pts[infeasible], mats, rhs)
        want = float(np.max(exact / vals[infeasible]))
        assert report.empirical_ratio == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_poly3_box_tau_below_exact_modulus(seed):
    # max(|x1|, |x2|, |x3|) + ||x|| / 2 - 1: the infimum slope is set at
    # the triple tie, where the subdifferential's nearest point to the
    # origin has norm 1/2 + 1/sqrt(3); the ratio evidence may tighten eta
    # only up to that exact modulus
    f = Sum([(1.0, Max([AbsCoord(i, 3) for i in range(3)])),
             (0.5, EuclidNorm(3)), (1.0, Const(-1.0, 3))])
    box = (np.full(3, -2.0), np.full(3, 2.0))
    report = eta_global(f, box_sample(f, box, 512, seed))
    tau_star = 1.0 / (0.5 + 1.0 / math.sqrt(3.0))
    assert report.tau_estimate <= tau_star * (1.0 + 1e-9)
    assert report.empirical_ratio <= tau_star * (1.0 + 1e-9)


@pytest.mark.parametrize("stem", ["exp1_box", "linf2_box", "family2_box",
                                  "poly3_box"])
def test_global_tau_never_below_the_empirical_ratio(stem):
    # the ratio is a certified lower bound on tau, so one report never
    # gives a tau below it; it always sets eta, so tau is 1 / eta exactly
    # and at most one ulp above the ratio (no double eta may give
    # 1 / eta == ratio), and the verdict's beta_inf is at most 1 / tau
    for samples in ("512", "128"):
        for seed in [*range(8), 1000, 1001]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["analyze-global", str(BENCH_PROBLEMS / f"{stem}.eb"),
                             "--samples", samples, "--seed", str(seed),
                             "--format", "json"]) == 0
            results = json.loads(out.getvalue())["results"]
            m = results["modulus"]
            assert "tightened" in m["notes"], (samples, seed)
            assert m["tau"] == 1.0 / m["eta"]
            ratio = m["empirical_ratio"]
            assert ratio <= m["tau"] <= math.nextafter(ratio, math.inf)
            # inf |beta| over the boundary is at most 1/tau (Azé and
            # Corvellec; Rockafellar, Convex Analysis, Cor. 23.7.1)
            beta_inf = results["stability"]["beta_inf"]
            assert m["tau"] * beta_inf <= 1.0 + 1e-12, (samples, seed)


def test_eta_global_ignores_subgradients_at_a_tie_band():
    # max((0.9588 x - 0.5123)_+^2, 0.0382 |x|) - 1e-12: at x = 2.24e-9 the
    # pieces' values differ by less than Max's tie band, so 0 joins the
    # subdifferential there; a sampled inf of d(0, subdifferential) read
    # eta = 0 and tau = inf beside a ratio of 1/0.0382, the exact modulus
    # on the |x| piece, where d(x, S) / f(x) = 1/0.0382 everywhere
    f = Sum([(1.0, Max([ComposeAffine(PosPartSquare(0, 1), [[0.9588]], [-0.5123]),
                        Sum([(0.0382, AbsCoord(0, 1))])])),
             (1.0, Const(-1e-12, 1))])
    drawn = box_sample(f, ([-1.0], [1.0]), 64, 0)
    points = np.concatenate([drawn.points, [[2.24e-9], [0.0]]])
    sample = BoxSample(drawn.box, drawn.seed, points, f._value_batch(points))
    report = eta_global(f, sample)
    assert report.tau_estimate == 1.0 / report.eta_estimate
    assert report.empirical_ratio <= report.tau_estimate
    assert report.tau_estimate == pytest.approx(1.0 / 0.0382, rel=1e-12)


@given(ratio=st.floats(min_value=2.0**-1021, max_value=2.0**1021))
def test_tightened_eta_is_reciprocal_to_tau(ratio):
    # a ratio that tightens eta gives tau == 1 / eta exactly, never below
    # the ratio and at most one ulp above it, over the doubles whose
    # reciprocal is a normal double
    eta, tau = _tightened(ratio)
    assert tau == 1.0 / eta
    assert ratio <= tau <= math.nextafter(ratio, math.inf)
