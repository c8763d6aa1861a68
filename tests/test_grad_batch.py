"""Batched gradient oracle and the batched subgradient-distance screen.

``_subdiff_dists`` must agree with the per-point ``_subdiff_dist`` loop on
every row, including rows placed exactly on kinks (zeroed coordinates, the
origin, exact max ties, and affine pre-images of those), must raise where
that loop raises, and must give each row a result independent of the rest
of the batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebstab import moduli
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
)
from ebstab.moduli import _subdiff_dist, _subdiff_dists

from conftest import kinked_rows, random_expr


def _rotation(theta, scale=1.0):
    c, s = np.cos(theta), np.sin(theta)
    return scale * np.array([[c, -s], [s, c]])


def scalar_dists(f, P):
    """The per-point loop; an error is returned in place of its row."""
    out = []
    for p in P:
        try:
            out.append(_subdiff_dist(f, p))
        except EbstabError as exc:
            out.append(exc)
    return out


def assert_matches_scalar(f, P):
    want = scalar_dists(f, P)
    failed = [w for w in want if isinstance(w, Exception)]
    if failed:
        with pytest.raises(type(failed[0])):
            _subdiff_dists(f, P)
        return
    want = np.array(want)
    got = _subdiff_dists(f, P)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


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


def test_kink_rows_take_scalar_path(monkeypatch):
    # (|x1| + ||x||) o rotation, and a pos-part term that is smooth everywhere
    f = Sum([
        (1.0, ComposeAffine(Sum([(1.0, AbsCoord(0, 2)), (0.5, EuclidNorm(2))]),
                            _rotation(0.3), [0.0, 0.0])),
        (2.0, PosPartSquare(1, 2)),
    ])
    rng = np.random.default_rng(33)
    P = rng.normal(size=(40, 2))
    P[5] = 0.0                                        # origin: ball
    P[11:14] = np.linalg.solve(f.terms[0][1].matrix,  # pushed x1 = 0
                               np.array([[0.0, 1.0], [0.0, -2.0], [0.0, 0.3]]).T).T
    _, kink = f._grad_batch(P)
    assert set(np.flatnonzero(kink)) >= {5, 11, 12, 13}
    seen = []

    def scalar(g, x):
        seen.append(x.copy())
        return _subdiff_dist(g, x)

    monkeypatch.setattr(moduli, "_subdiff_dist", scalar)
    got = _subdiff_dists(f, P)
    assert np.array_equal(np.array(seen), P[kink])
    monkeypatch.undo()
    want = np.array([_subdiff_dist(f, p) for p in P])
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


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
    want = scalar_dists(f, P)
    raises = [isinstance(w, UnsupportedSubdifferential) for w in want]
    assert any(raises) and not all(raises)
    for i, p in enumerate(P):
        if raises[i]:
            with pytest.raises(UnsupportedSubdifferential):
                _subdiff_dists(f, P[i:i + 1])
        else:
            assert _subdiff_dists(f, P[i:i + 1])[0] == pytest.approx(
                want[i], rel=1e-14, abs=0.0)
    with pytest.raises(UnsupportedSubdifferential):
        _subdiff_dists(f, P)
    smooth = np.array([p for p, r in zip(P, raises) if not r])
    assert_matches_scalar(f, smooth)


def test_rows_independent_of_batch():
    rng = np.random.default_rng(35)
    for _ in range(100):
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m, depth=3)
        P = kinked_rows(rng, f, m)
        G, kink = f._grad_batch(P)
        got = _subdiff_dists(f, P)
        for i in rng.permutation(P.shape[0])[:4]:
            g1, k1 = f._grad_batch(P[i:i + 1])
            assert np.array_equal(g1[0], G[i]) and k1[0] == kink[i]
            assert _subdiff_dists(f, P[i:i + 1])[0] == got[i]
        g3, k3 = f._grad_batch(P[::3])
        assert np.array_equal(g3, G[::3]) and np.array_equal(k3, kink[::3])
        assert np.array_equal(_subdiff_dists(f, P[::3]), got[::3])


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 4),
       depth=st.integers(0, 3))
def test_subdiff_dists_property(seed, m, depth):
    rng = np.random.default_rng(seed)
    f = random_expr(rng, m, depth=depth)
    assert_matches_scalar(f, kinked_rows(rng, f, m, k=12))
