"""The local modulus entry: exact where the subdifferential at the point
decides it, sampled and clipped at the certified 1/|beta| elsewhere."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ebstab.cli import main
from ebstab.errors import MinNormNonConvergence, UnsupportedSubdifferential
from ebstab.expressions import (AbsCoord, Affine, ComposeAffine, Const, EuclidNorm,
                                Exp1D, Max, PosPartSquare, Sum)
from ebstab.moduli import local_modulus
from ebstab.sampling import ball_points
from ebstab.sphere import _betas, beta

from conftest import random_expr

BENCH_PROBLEMS = Path(__file__).resolve().parents[1] / "bench" / "problems"
EXACT_PATHS = {
    "exp1": "singleton", "linf2": "singleton", "poly3": "singleton",
    "l1ball5": "polyhedral-outside", "family2": "polyhedral-outside",
    "l1norm4": "polyhedral-interior", "l1norm5": "polyhedral-interior",
}


def _at(f, xbar, **kw):
    xbar = np.asarray(xbar, dtype=float)
    return local_modulus(f, xbar, beta(f, xbar), **kw)


def test_each_node_says_where_it_is_locally_polyhedral():
    x = np.array([0.0, -1.0])
    assert Const(1.0, 2)._polyhedral_at(x) and Affine([1.0, 2.0], 0.0)._polyhedral_at(x)
    assert AbsCoord(0, 2)._polyhedral_at(x)
    assert EuclidNorm(1)._polyhedral_at(x[:1]) and not EuclidNorm(2)._polyhedral_at(x)
    assert not Exp1D(0, 0.0, 2)._polyhedral_at(x)
    assert PosPartSquare(1, 2)._polyhedral_at(x)
    assert not PosPartSquare(0, 2)._polyhedral_at(x)
    # a max reads its active children only: the exponential is inactive at
    # x and active at (2, -1)
    top = Max([AbsCoord(1, 2), Exp1D(0, -5.0, 2)])
    assert top._polyhedral_at(x) and not top._polyhedral_at(np.array([2.0, -1.0]))
    assert not Sum([(1.0, AbsCoord(0, 2)), (0.5, EuclidNorm(2))])._polyhedral_at(x)
    inner = ComposeAffine(PosPartSquare(0, 1), [[1.0, 0.0]], [-1.0])
    assert inner._polyhedral_at(x) and not inner._polyhedral_at(np.array([1.0, 0.0]))


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
       zeroed=st.booleans())
def test_exact_paths_agree_with_nearby_subgradients(seed, m, zeroed):
    # |beta| <= eta by construction; eta must not exceed d(0, df) at any
    # infeasible point of a small ball, within the ball's gradient drift.
    # Points with f <= 1e-9 are left out: there Max reads children within
    # its 1e-10 (1 + |f|) tie tolerance as active, and d(0, df) can read 0
    rng = np.random.default_rng(seed)
    f = random_expr(rng, m)
    xbar = rng.normal(size=m)
    if zeroed:
        xbar[rng.integers(m)] = 0.0
    g = Sum([(1.0, f), (1.0, Const(-f._value(xbar), m))])
    try:
        cert = beta(g, xbar)
        rep = local_modulus(g, xbar, cert, levels=1, samples_per_level=1)
    except (UnsupportedSubdifferential, MinNormNonConvergence):
        return
    if rep.path == "sampled":
        return
    eta = rep.eta_estimate
    assert abs(cert.beta) <= eta and rep.tau_estimate == rep.tau_bound
    radius, slack = (1e-7, 1e-4 * eta) if rep.path == "singleton" else (1e-6, 1e-9)
    P = ball_points(xbar, radius, 1024, 0)
    P = P[g._value_batch(P) > 1e-9]
    if P.shape[0]:
        assert eta <= float(np.min(-_betas(g, P))) + slack


def test_origin_in_the_affine_hull_takes_the_sampled_path():
    # max(x1, 2x1 + 5x2, 2x1 - 5x2) at 0: beta = -1, but the triangle's
    # affine hull is the plane, so |beta| need not be eta (here eta = 2)
    f = Max([Affine([1.0, 0.0], 0.0), Affine([2.0, 5.0], 0.0),
             Affine([2.0, -5.0], 0.0)])
    rep = _at(f, [0.0, 0.0], seed=0)
    assert rep.path == "sampled" and rep.tau_bound == 1.0
    assert 0.0 < rep.tau_estimate <= rep.tau_bound


def test_sampled_tau_is_clipped_at_the_bound():
    # poly3 plus a kink that leaves its minimum-norm subgradient (1.5, 0, 0)
    # alone: the sampled balls see tilted norm gradients shorter than 1.5
    poly3 = Sum([(1.0, Max([AbsCoord(i, 3) for i in range(3)])),
                 (0.5, EuclidNorm(3)), (1.0, Const(-1.0, 3))])
    kink = Max([Const(0.0, 3), Affine([0.0, 1.0, 0.0], 0.0)])
    f = Sum([(1.0, poly3), (1.0, kink)])
    rep = _at(f, [2.0 / 3.0, 0.0, 0.0], seed=0)
    assert rep.path == "sampled"
    assert rep.tau_estimate == rep.tau_bound == 1.0 / 1.5
    assert rep.eta_estimate == 1.5 and "clipped" in rep.notes


@pytest.mark.parametrize("m", [5, 6, 7])
def test_l1_norm_at_the_origin_is_exact_in_every_dimension(m):
    f = Sum([(1.0, AbsCoord(i, m)) for i in range(m)])
    rep = _at(f, np.zeros(m))
    assert rep.path == "polyhedral-interior"
    assert rep.tau_estimate == 1.0 and rep.sample_count == 0


def test_exact_bench_problems_draw_no_ball(monkeypatch, capsys):
    import ebstab.moduli as moduli

    calls = []
    draw = moduli.ball_points

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(moduli, "ball_points", counted)
    for stem, path in EXACT_PATHS.items():
        assert main(["analyze-local", str(BENCH_PROBLEMS / f"{stem}.eb"),
                     "--format", "json"]) == 0
        assert f'"path": "{path}"' in capsys.readouterr().out
    assert calls == []
    # the norm's origin still samples, through the same patched name
    assert main(["analyze-local", str(BENCH_PROBLEMS / "norm3.eb")]) == 0
    assert calls


@pytest.mark.parametrize("stem", ["l1ball5", "family2"])
def test_polyhedral_outside_builds_the_subdifferential_once(stem, monkeypatch,
                                                            capsys):
    # the beta certificate carries the subdifferential at the point, and
    # the polyhedral-outside test reads it instead of building it again
    import ebstab.cli as cli

    builds = []

    def spy(f, x, **kw):
        build = type(f)._subdiff

        def counted(self, y):
            if self is f:
                builds.append(y)
            return build(self, y)

        monkeypatch.setattr(type(f), "_subdiff", counted)
        return beta(f, x, **kw)

    monkeypatch.setattr(cli, "beta", spy)
    assert main(["analyze-local", str(BENCH_PROBLEMS / f"{stem}.eb"),
                 "--format", "json"]) == 0
    assert '"path": "polyhedral-outside"' in capsys.readouterr().out
    assert len(builds) == 1
