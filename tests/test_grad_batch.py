"""Batched gradient oracle and the batched beta oracle built on it.

``_betas`` must agree with the per-point ``beta`` loop on every row,
including rows placed exactly on kinks (zeroed coordinates, the origin,
exact max ties, and affine pre-images of those), must raise where that
loop raises, and must give each row a result independent of the rest of
the batch.  beta is the signed distance from the origin to the boundary
of the subdifferential, which the ``subdiff_dists`` tests name; at
infeasible points -beta is d(0, subdifferential), the distance
``eta_local`` reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebstab import sphere
from ebstab.errors import EbstabError, UnsupportedSubdifferential
from ebstab.expressions import (
    AbsCoord,
    Affine,
    ComposeAffine,
    EuclidNorm,
    Exp1D,
    Max,
    PosPartSquare,
    Sum,
    subdifferential,
)
from ebstab.geometry import min_norm_point
from ebstab.sphere import ZERO_TOL, _betas, _gradient_screen, beta

from conftest import kinked_rows, random_expr


def _rotation(theta, scale=1.0):
    c, s = np.cos(theta), np.sin(theta)
    return scale * np.array([[c, -s], [s, c]])


def scalar_betas(f, P):
    """The per-point loop; an error is returned in place of its row."""
    out = []
    for p in P:
        try:
            out.append(beta(f, p).beta)
        except EbstabError as exc:
            out.append(exc)
    return out


def assert_matches_scalar(f, P):
    want = scalar_betas(f, P)
    failed = [w for w in want if isinstance(w, Exception)]
    if failed:
        with pytest.raises(type(failed[0])):
            _betas(f, P)
        return
    assert np.array_equal(_betas(f, P), np.array(want))


def _tie_through_rotation():
    # the first tie case seen through a rotation: the pre-images of (1, 1)
    # and (0, 0) round to points an ulp off the diagonal
    f = ComposeAffine(Max([AbsCoord(0, 2), AbsCoord(1, 2)]),
                      _rotation(0.7, 1.3), [0.2, -0.4])
    Y = np.array([[1.0, 1.0], [0.0, 0.0], [-2.0, 2.0], [0.5, -0.1]])
    return f, np.linalg.solve(f.matrix, (Y - f.offset).T).T


TIE_CASES = [
    # |x1| = |x2| on the diagonals
    (Max([AbsCoord(0, 2), AbsCoord(1, 2)]),
     np.array([[1.0, 1.0], [-0.5, 0.5], [2.0, -2.0], [0.0, 0.0]])),
    # two affine pieces tied on the line x1 = x2
    (Max([Affine([1.0, 0.0], 0.0), Affine([0.0, 1.0], 0.0)]),
     np.array([[0.3, 0.3], [-4.0, -4.0], [1.0, 2.0]])),
    # a duplicated child ties everywhere
    (Max([Exp1D(0, 0.0, 1), Exp1D(0, 0.0, 1)]),
     np.array([[0.0], [-1.0], [2.5]])),
    _tie_through_rotation(),
]


def test_grad_batch_is_a_conservative_gradient():
    # every row the scalar oracle sees as a kink is marked, and unmarked
    # rows carry the scalar oracle's single generator
    rng = np.random.default_rng(31)
    marked = 0
    for _ in range(300):
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m, depth=3)
        P = kinked_rows(rng, f, m)
        G, kink = f._grad_batch(P)
        assert G.shape == P.shape and kink.shape == (P.shape[0],)
        for i, p in enumerate(P):
            s = f._subdiff(p)
            if s.generators.shape[0] > 1 or s.ball_radius > 0.0:
                assert kink[i]
            if not kink[i]:
                want = s.generators[0]
                assert np.linalg.norm(G[i] - want) <= 1e-14 * np.linalg.norm(want)
        marked += int(kink.sum())
    assert marked > 0


def test_subdiff_dists_match_scalar_random_suite():
    rng = np.random.default_rng(32)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m, depth=3)
        assert_matches_scalar(f, kinked_rows(rng, f, m))


@pytest.mark.parametrize("case", range(len(TIE_CASES)))
def test_subdiff_dists_match_scalar_at_exact_ties(case):
    f, P = TIE_CASES[case]
    _, kink = f._grad_batch(P)
    assert kink[:-1].all()
    assert_matches_scalar(f, P)


def _kinked_sum(matrix):
    """(|x1| + ||x||) o matrix, and a pos-part term smooth everywhere."""
    return Sum([
        (1.0, ComposeAffine(Sum([(1.0, AbsCoord(0, 2)), (0.5, EuclidNorm(2))]),
                            matrix, [0.0, 0.0])),
        (2.0, PosPartSquare(1, 2)),
    ])


def test_kink_rows_take_scalar_path(monkeypatch):
    # sqrt(2) times a rotation, with integer entries: the rows with x1 = x2
    # push to x1 = 0 exactly
    f = _kinked_sum(np.array([[1.0, -1.0], [1.0, 1.0]]))
    rng = np.random.default_rng(33)
    P = rng.normal(size=(40, 2))
    P[5] = 0.0                                        # origin: ball
    P[11:14] = [[0.5, 0.5], [-1.0, -1.0], [0.15, 0.15]]
    _, kink = f._grad_batch(P)
    assert set(np.flatnonzero(kink)) == {5, 11, 12, 13}
    seen = []
    geometric = sphere._geometric_beta

    def scalar(g, x, zero_tol):
        seen.append(x.copy())
        return geometric(g, x, zero_tol)

    monkeypatch.setattr(sphere, "_geometric_beta", scalar)
    got = _betas(f, P)
    assert np.array_equal(np.array(seen), P[kink])
    monkeypatch.undo()
    assert np.array_equal(got, [beta(f, p).beta for p in P])


def test_rotation_preimages_of_a_kink_are_smooth_rows():
    # the pre-images of pushed x1 = 0 under a rotation by 0.3 push to an x1
    # a few ulps from 0, where every oracle sees one smooth gradient
    f = _kinked_sum(_rotation(0.3))
    inner = f.terms[0][1]
    P = np.linalg.solve(inner.matrix,
                        np.array([[0.0, 1.0], [0.0, -2.0], [0.0, 0.3]]).T).T
    assert np.all(inner._push(P)[:, 0] != 0.0)
    G, kink = f._grad_batch(P)
    assert not kink.any()
    got = _betas(f, P)
    for g, b, p in zip(G, got, P):
        s = subdifferential(f, p)
        assert s.generators.shape[0] == 1 and s.ball_radius == 0.0
        assert np.linalg.norm(g - s.generators[0]) <= 1e-14 * np.linalg.norm(g)
        assert b == beta(f, p).beta
        assert abs(b + np.linalg.norm(g)) <= 1e-14 * abs(b)


UNSUPPORTED = [
    # a polytope child escaping the ball of a norm child at the origin
    Max([EuclidNorm(2), Sum([(2.0, AbsCoord(0, 2))])]),
    # a norm pre-composed with a non-conformal map, at the pre-image of 0
    ComposeAffine(EuclidNorm(2), [[2.0, 0.0], [0.0, 1.0]], [1.0, -1.0]),
]


@pytest.mark.parametrize("case", range(len(UNSUPPORTED)))
def test_unsupported_raised_where_scalar_raises(case):
    f = UNSUPPORTED[case]
    rng = np.random.default_rng(34)
    P = rng.normal(size=(12, 2))
    P[4] = 0.0
    P[7] = [-0.5, 1.0]
    want = scalar_betas(f, P)
    raises = [isinstance(w, UnsupportedSubdifferential) for w in want]
    assert any(raises) and not all(raises)
    for i, p in enumerate(P):
        if raises[i]:
            with pytest.raises(UnsupportedSubdifferential):
                _betas(f, P[i:i + 1])
        else:
            assert _betas(f, P[i:i + 1])[0] == want[i]
    with pytest.raises(UnsupportedSubdifferential):
        _betas(f, P)
    smooth = np.array([p for p, r in zip(P, raises) if not r])
    assert_matches_scalar(f, smooth)


def test_rows_independent_of_batch():
    rng = np.random.default_rng(35)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m, depth=3)
        P = kinked_rows(rng, f, m)
        G, kink = f._grad_batch(P)
        got = _betas(f, P)
        for i in rng.permutation(P.shape[0])[:4]:
            g1, k1 = f._grad_batch(P[i:i + 1])
            assert np.array_equal(g1[0], G[i]) and k1[0] == kink[i]
            assert _betas(f, P[i:i + 1])[0] == got[i]
        g3, k3 = f._grad_batch(P[::3])
        assert np.array_equal(g3, G[::3]) and np.array_equal(k3, kink[::3])
        assert np.array_equal(_betas(f, P[::3]), got[::3])


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
       depth=st.integers(0, 3))
def test_subdiff_dists_property(seed, m, depth):
    rng = np.random.default_rng(seed)
    f = random_expr(rng, m, depth=depth)
    assert_matches_scalar(f, kinked_rows(rng, f, m, k=12))


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
       depth=st.integers(0, 3))
def test_minus_beta_is_the_subgradient_distance_where_infeasible(seed, m,
                                                                 depth):
    # at an infeasible point the origin is outside the subdifferential, so
    # -beta is its distance to it, with beta's 0 at or below ZERO_TOL: bit
    # for bit where beta reads the subdifferential, and up to rounding where
    # it reads the gradient
    rng = np.random.default_rng(seed)
    f = random_expr(rng, m, depth=depth)
    P = kinked_rows(rng, f, m, k=12)
    P = P[f._value_batch(P) > 0.0]
    try:
        dists = [min_norm_point(f._subdiff(p)).dist for p in P]
    except EbstabError:
        return
    geometric = set(_gradient_screen(f, P)[1])
    for i, (b, d) in enumerate(zip(_betas(f, P), dists)):
        if d <= ZERO_TOL:
            assert b == 0.0
        elif i in geometric:
            assert -b == d
        else:
            assert abs(b + d) <= 1e-14 * d
