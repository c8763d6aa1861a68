"""beta certificates, cross-checked against sampling over the sphere."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebstab.errors import EbstabError
from ebstab.expressions import (
    AbsCoord,
    Affine,
    Const,
    Exp1D,
    Max,
    Sum,
    directional_derivative,
    subdifferential,
)
from ebstab.geometry import OriginTag, min_norm_point, min_support_direction
from ebstab.sphere import (
    ZERO_TOL,
    _betas,
    _gradient_screen,
    beta,
    linear_perturbation,
)

from conftest import beta_sampled, kinked_rows, random_expr, random_point


def test_beta_exp_at_zero():
    cert = beta(Exp1D(0, -1.0, 1), [0.0])
    assert cert.beta == -1.0
    assert cert.witness[0] == pytest.approx(-1.0, abs=1e-12)
    assert cert.origin_location.tag is OriginTag.OUTSIDE
    assert cert.residual <= 1e-12


def test_beta_cross_polytope():
    f = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    cert = beta(f, [0.0, 0.0])
    assert cert.beta == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)
    assert cert.origin_location.tag is OriginTag.INTERIOR
    assert np.abs(cert.witness) == pytest.approx([2 ** -0.5, 2 ** -0.5], abs=1e-9)


def test_beta_outside_at_large_scale():
    # the subdifferential is the segment [(1e4, 0), (0, 1e4)], whose norms
    # dwarf the unit constraint row of an affine KKT system
    f = Max([Affine([1e4, 0.0], 0.0), Affine([0.0, 1e4], 0.0)])
    cert = beta(f, [0.0, 0.0])
    assert cert.beta == pytest.approx(-1e4 / math.sqrt(2.0), rel=1e-12)
    assert cert.origin_location.tag is OriginTag.OUTSIDE
    g = Max([Exp1D(0, 0.0, 2), Exp1D(1, 0.0, 2)])
    cert = beta(g, [20.0, 20.0])
    assert cert.beta == pytest.approx(-math.exp(20.0) / math.sqrt(2.0), rel=1e-12)
    assert cert.origin_location.tag is OriginTag.OUTSIDE


def test_beta_const_zero():
    cert = beta(Const(0.0, 1), [3.0])
    assert cert.beta == 0.0
    assert cert.origin_location.tag is OriginTag.ON_BOUNDARY


def test_beta_sampled_cross_polytope():
    f = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    val = beta_sampled(f, [0.0, 0.0], 10_000, seed=0)
    want = math.sqrt(2.0) / 2.0
    assert want <= val <= want + 1e-4


def test_beta_sampled_affine(rng):
    a = rng.uniform(-2, 2, size=2)
    val = beta_sampled(Affine(a, 0.2), [0.3, -0.1], 10_000, seed=1)
    assert val == pytest.approx(-float(np.linalg.norm(a)), abs=1e-6)


def test_beta_sampled_const_zero():
    assert beta_sampled(Const(0.0, 2), [0.0, 0.0], 100, seed=0) == 0.0


def test_perturbed_beta_of_constant():
    cert = beta(linear_perturbation(Const(0.0, 1), [1.0], 0.1, [0.0]), [0.0])
    assert cert.beta == pytest.approx(-0.1, abs=1e-12)


def test_perturbed_beta_exp_sign_convention():
    # g = f + eps <u, . - 0> with u = -1 gives g = e^x - 1 - eps x and
    # subgradient 1 - eps at the origin
    for eps in (0.1, 0.5):
        g = linear_perturbation(Exp1D(0, -1.0, 1), [-1.0], eps, [0.0])
        cert = beta(g, [0.0])
        assert cert.beta == pytest.approx(-(1.0 - eps), abs=1e-12)


def test_perturbed_beta_cross_polytope_stays_positive():
    f = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        eps = float(rng.uniform(0, 0.5))
        cert = beta(linear_perturbation(f, u, eps, [0.0, 0.0]), [0.0, 0.0])
        assert cert.beta >= math.sqrt(2.0) / 2.0 - eps - 1e-9


# --- randomized invariants ---------------------------------------------------


def test_separation_identity_negative_beta_suite():
    rng = np.random.default_rng(21)
    found = 0
    while found < 200:
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m)
        x = random_point(rng, m)
        cert = beta(f, x)
        if cert.beta >= -1e-6:
            continue
        found += 1
        dist = min_norm_point(subdifferential(f, x)).dist
        assert abs(-cert.beta - dist) <= 1e-8


def test_witness_validity_suite():
    rng = np.random.default_rng(22)
    for _ in range(150):
        m = int(rng.integers(1, 4))
        f = random_expr(rng, m)
        x = random_point(rng, m)
        cert = beta(f, x)
        dd = directional_derivative(f, x, cert.witness)
        reported = cert.beta if cert.beta != 0.0 else dd
        assert abs(dd - cert.beta) <= 1e-8 * (1.0 + abs(reported))
        assert cert.residual <= 1e-8
        assert np.linalg.norm(cert.witness) == pytest.approx(1.0, abs=1e-12)


def test_oracle_agreement_suite():
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        f = random_expr(rng, m)
        x = random_point(rng, m)
        exact = beta(f, x)
        raw = exact.beta if not exact.is_zero else min(exact.beta, 0.0)
        sampled = beta_sampled(f, x, 10_000, seed=int(rng.integers(1 << 16)))
        assert sampled >= raw - 1e-9
        assert sampled <= exact.beta + 1e-3


def test_perturbation_shift_bound():
    rng = np.random.default_rng(24)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        f = random_expr(rng, m)
        x = random_point(rng, m)
        xbar = random_point(rng, m)
        u = rng.normal(size=m)
        u /= max(1.0, np.linalg.norm(u))
        eps = float(rng.uniform(0, 1))
        b0 = beta(f, x).beta
        b1 = beta(linear_perturbation(f, u, eps, xbar), x).beta
        assert abs(b1 - b0) <= eps * np.linalg.norm(u) + 1e-9


def test_positive_scaling_equivariance():
    rng = np.random.default_rng(25)
    for _ in range(60):
        m = int(rng.integers(1, 4))
        f = random_expr(rng, m)
        x = random_point(rng, m)
        lam = float(rng.uniform(0.2, 4.0))
        c0 = beta(f, x)
        c1 = beta(Sum([(lam, f)]), x)
        assert abs(c1.beta - lam * c0.beta) <= 1e-9 * (1.0 + abs(lam * c0.beta))
        if not c0.is_zero and not c1.is_zero:
            assert abs(float(c0.witness @ c1.witness)) >= 1.0 - 1e-6


def test_zero_dichotomy_matches_origin_classification():
    rng = np.random.default_rng(26)
    for _ in range(150):
        m = int(rng.integers(1, 4))
        f = random_expr(rng, m)
        x = random_point(rng, m)
        cert = beta(f, x)
        s = subdifferential(f, x)
        on_boundary = (min_norm_point(s).dist <= 1e-9
                       and min_support_direction(s)[0] <= 1e-9)
        assert on_boundary == (abs(cert.beta) <= 1e-9)


def test_linear_perturbation_value_identity(rng):
    f = Max([AbsCoord(0, 2), AbsCoord(1, 2)])
    u = np.array([0.0, 1.0])
    for eps in (0.0, 0.1, 0.7):
        g = linear_perturbation(f, u, eps, [0.0, 0.0])
        for _ in range(5):
            x = random_point(rng, 2)
            want = max(abs(x[0]), abs(x[1])) + eps * x[1]
            from ebstab.expressions import evaluate

            assert evaluate(g, x) == pytest.approx(want, abs=1e-12)


# --- one beta arithmetic: the batched rows and the scalar certificate -------


def exp_tail_case(rng, m, k=12):
    """A weighted sum or max of exp atoms, one per coordinate, a duplicated
    child in the max so that it ties everywhere, and rows deep in the tail,
    where the gradient norm falls through ZERO_TOL and MIN_NORM_TOL."""
    atoms = [Exp1D(i, float(rng.uniform(-1, 1)), m) for i in range(m)]
    if rng.random() < 0.5:
        f = Sum([(float(rng.uniform(0.5, 2.0)), a) for a in atoms])
    else:
        f = Max(atoms + atoms[:1])
    P = rng.uniform(-45.0, -19.0, size=(k, m))
    P[0] = -40.0
    return f, P


def beta_cases(seed, m):
    rng = np.random.default_rng(seed)
    f = random_expr(rng, m)
    yield f, kinked_rows(rng, f, m, k=12)
    yield exp_tail_case(rng, m)


def scalar_betas(f, P):
    """beta(f, p).beta at every row, or the error it raises."""
    out = []
    for p in P:
        try:
            out.append(beta(f, p).beta)
        except EbstabError as exc:
            out.append(exc)
    return out


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3))
def test_betas_rows_are_scalar_beta_bit_for_bit(seed, m):
    for f, P in beta_cases(seed, m):
        want = scalar_betas(f, P)
        failed = [w for w in want if isinstance(w, Exception)]
        if failed:
            with pytest.raises(type(failed[0])):
                _betas(f, P)
            continue
        got = _betas(f, P)
        for i in range(P.shape[0]):
            assert got[i] == want[i] == _betas(f, P[i:i + 1])[0]


def test_beta_cases_reach_ties_and_the_tail_below_zero_tol():
    # the property above sees kink rows and smooth rows with a gradient
    # norm below ZERO_TOL, where beta is exactly 0 without any geometry
    kinks = tail = 0
    for seed in range(20):
        for f, P in beta_cases(seed, 1 + seed % 3):
            G, kink = f._grad_batch(P)
            kinks += int(kink.sum())
            small = ~kink & (np.linalg.norm(G, axis=1) <= ZERO_TOL)
            tail += int(small.sum())
            if small.any():
                assert np.all(_betas(f, P[small]) == 0.0)
    assert kinks > 0 and tail > 0


@settings(max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3))
def test_betas_at_smooth_points_match_the_geometric_route(seed, m):
    for f, P in beta_cases(seed, m):
        _, scalar = _gradient_screen(f, P)
        smooth = np.setdiff1d(np.arange(P.shape[0]), scalar)
        got = _betas(f, P[smooth])
        for b, p in zip(got, P[smooth]):
            sigma = min_support_direction(subdifferential(f, p))[0]
            if b == 0.0:
                assert abs(sigma) <= ZERO_TOL
            else:
                assert abs(b - sigma) <= 1e-12 * (1.0 + abs(b))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3))
def test_beta_is_below_the_sampled_oracle(seed, m):
    # every sampled f'(x, h) at a unit h is at least beta, kinks included
    rng = np.random.default_rng(seed)
    f = random_expr(rng, m)
    for x in kinked_rows(rng, f, m, k=4):
        try:
            b = beta(f, x).beta
        except EbstabError:
            continue
        assert b <= beta_sampled(f, x, 200, seed=seed % 1000) + 1e-9
