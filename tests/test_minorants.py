"""The affine-minorant oracle and the cutting planes built from it.

``_minorants_batch`` gives, at every row of a batch, one affine minorant
per affine piece there.  Each must lie below f everywhere, the largest
must read f itself bit for bit, and each row must be independent of the
rest of the batch.  ``moduli._add_cuts`` turns every one of them into a
cut, each with its own minorant's value, so every stored cut holds on the
whole solution set.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebstab import expressions, moduli
from ebstab.cli import main
from ebstab.expressions import AbsCoord, Affine, Const, Max, Sum
from ebstab.moduli import _brackets

from conftest import kinked_rows, random_expr

BENCH_PROBLEMS = Path(__file__).resolve().parents[1] / "bench" / "problems"

NODE_TYPES = [cls for cls in vars(expressions).values()
              if isinstance(cls, type) and issubclass(cls, expressions.ConvexExpr)
              and cls is not expressions.ConvexExpr]


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3),
       depth=st.integers(0, 3), floor=st.booleans())
def test_minorants_are_global_tight_and_row_independent(seed, m, depth, floor):
    rng = np.random.default_rng(seed)
    f = random_expr(rng, m, depth)
    if floor:
        # a constant child, tied with the rest somewhere in the box
        f = Max([f, Const(float(f._value(rng.normal(size=m))), m)])
    X = kinked_rows(rng, f, m, k=12)
    V, G = f._minorants_batch(X)
    assert V.ndim == 2 and V.shape[1] == X.shape[0]
    assert G.shape == V.shape + (m,)
    assert np.array_equal(V.max(axis=0), f._value_batch(X))
    U = 3.0 * rng.normal(size=(40, m))
    fu = f._value_batch(U)
    below = V[:, :, None] + np.einsum("rkm,kum->rku", G, U - X[:, None, :])
    assert np.all(below <= fu + 1e-9 * (1.0 + np.abs(fu)))
    for i in range(X.shape[0]):
        v1, g1 = f._minorants_batch(X[i:i + 1])
        assert np.array_equal(v1[:, 0], V[:, i])
        assert np.array_equal(g1[:, 0], G[:, i])


def test_sum_swaps_each_other_piece_in_for_the_best():
    # |x1| + |x2| - 1 at (1, 0): the best sum, then -x1 in place of x1 and
    # -x2 in place of x2, so both faces that meet at the kink appear
    f = Sum([(1.0, AbsCoord(0, 2)), (1.0, AbsCoord(1, 2)), (1.0, Const(-1.0, 2))])
    V, G = f._minorants_batch(np.array([[1.0, 0.0]]))
    assert V[:, 0].tolist() == [0.0, -2.0, 0.0]
    assert G[:, 0].tolist() == [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]]


def _stored_cuts(monkeypatch, f, X, s):
    """Run ``_brackets`` on the rows of X and return, for each row, the
    cuts ``_add_cuts`` stored against it (none for a row pruned first)."""
    seen = []
    real = moduli._add_cuts

    def spy(f, x, cuts, rows, Q):
        seen.append(cuts)
        return real(f, x, cuts, rows, Q)

    monkeypatch.setattr(moduli, "_add_cuts", spy)
    _brackets(f, X, f._value_batch(X), s, f._value(s))
    assert seen and all(c is seen[0] for c in seen)
    return [np.vstack(c) if c else np.zeros((0, X.shape[1] + 1))
            for c in seen[0]]


def _assert_cuts_hold(f, X, cuts, U):
    feasible = U[f._value_batch(U) <= 0.0]
    assert feasible.shape[0] >= 100
    for x, rows in zip(X, cuts):
        # a stored row (-g, e) / ||g|| reads e + <g, u - x> <= 0 on S
        lhs = rows[:, -1][:, None] - rows[:, :-1] @ (feasible - x).T
        assert np.all(lhs <= 1e-9)


def test_cuts_hold_with_an_inactive_child_far_below(monkeypatch):
    # the l1 ball, with a steep affine child that sits near -100 on its
    # boundary: a cut with that child's gradient but f(q) in place of its
    # own value would read u1 <= q1 and cut off most of the ball
    f = Max([Sum([(1.0, AbsCoord(0, 2)), (1.0, AbsCoord(1, 2)),
                  (1.0, Const(-1.0, 2))]),
             Affine([10.0, 0.0], -100.0)])
    X = np.array([[2.0, 1.0], [-3.0, 0.5], [0.2, -4.0], [1.5, 1.5]])
    cuts = _stored_cuts(monkeypatch, f, X, np.zeros(2))
    assert any(np.any(np.isclose(c[:, 0], -1.0)) for c in cuts)
    U = np.random.default_rng(71).uniform(-1.0, 1.0, size=(4000, 2))
    _assert_cuts_hold(f, X, cuts, U)


@pytest.mark.parametrize("seed", range(12))
def test_cuts_hold_at_brute_force_feasible_points(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    g = random_expr(rng, m)
    s = rng.normal(size=m)
    f = Sum([(1.0, g), (1.0, Const(-g._value(s) - 1.0, m))])
    X = s + 3.0 * rng.normal(size=(6, m))
    X = X[f._value_batch(X) > 0.0]
    if not X.shape[0]:
        return
    cuts = _stored_cuts(monkeypatch, f, X, s)
    U = s + 3.0 * rng.uniform(-1.0, 1.0, size=(20000, m))
    _assert_cuts_hold(f, X, cuts, U)


def test_poly3_box_brackets_close_in_few_rounds(monkeypatch, capsys):
    # with every piece at a point cut, the three abs faces meeting at the
    # curved cube's vertex are all cut in the first round
    calls = []
    real = moduli._cut_round

    def spy(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(moduli, "_cut_round", spy)
    assert main(["analyze-global", str(BENCH_PROBLEMS / "poly3_box.eb"),
                 "--samples", "128", "--seed", "0"]) == 0
    capsys.readouterr()
    assert 1 <= len(calls) <= 5


def test_add_cuts_builds_no_subdifferential(monkeypatch, capsys):
    # linf2_box's boundary points sit on max ties and abs kinks, where the
    # cuts used to come from the subdifferential
    inside, subdiffs = [], []
    real = moduli._add_cuts

    def counted(subdiff):
        def wrapped(self, x):
            subdiffs.append(x)
            return subdiff(self, x)
        return wrapped

    def spy(*args):
        inside.append(1)
        with monkeypatch.context() as patch:
            for cls in NODE_TYPES:
                if "_subdiff" in vars(cls):
                    patch.setattr(cls, "_subdiff", counted(vars(cls)["_subdiff"]))
            return real(*args)

    monkeypatch.setattr(moduli, "_add_cuts", spy)
    assert main(["analyze-global",
                 str(BENCH_PROBLEMS / "linf2_box.eb")]) == 0
    capsys.readouterr()
    assert inside and not subdiffs
