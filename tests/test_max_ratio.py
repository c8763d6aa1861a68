"""The empirical ratio of ``eta_global``: bound every row, refine only the
rows that can set the maximum.

``_max_ratio`` must return exactly the maximum of ``_distances / vals``,
whatever the order of the rows, and on a problem whose ratio is set by a
few corner rays it must certify and polish only a few rows.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ebstab import moduli
from ebstab.errors import EbstabError
from ebstab.expressions import AbsCoord, Const, Max, Sum
from ebstab.moduli import _distances, _max_ratio, eta_global
from ebstab.sampling import box_points

from conftest import random_expr


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
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
        want = float(np.max(_distances(f, X, s) / vals))
    except EbstabError:
        # the full pass fails on some row; the ratio may skip that row
        assume(False)
    assert _max_ratio(f, X, vals, s) == want
    perm = rng.permutation(X.shape[0])
    assert _max_ratio(f, X[perm], vals[perm], s) == want


def test_max_ratio_refines_few_rows_on_sup_norm_ball(monkeypatch):
    # on the unit sup-norm ball every row beyond a corner projects to that
    # corner, a kink, so the full pass runs the kink certificate on about
    # half of the infeasible rows; only rays near a diagonal come close to
    # the largest ratio, sqrt(2)
    f = Sum([(1.0, Max([AbsCoord(0, 2), AbsCoord(1, 2)])), (1.0, Const(-1.0, 2))])
    box = (np.full(2, -3.0), np.full(2, 3.0))
    calls = []
    certify = moduli._projection_certified

    def counted(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(moduli, "_projection_certified", counted)
    report = eta_global(f, box, 512, seed=0)
    infeasible = int(np.sum(f._value_batch(box_points(*box, 512, 0)) > 0.0))
    assert infeasible > 400
    assert len(calls) < 0.05 * infeasible
    assert math.sqrt(2.0) - 0.05 < report.empirical_ratio <= math.sqrt(2.0) + 1e-9
