"""Convex-by-construction expression trees with exact first-order oracles.

Every node represents a finite-valued convex function on R^m and knows how
to produce, by structural recursion:

- its exact value, at one point (``_value``) or at every row of a batch of
  points (``_value_batch``),
- its exact directional derivative f'(x, h) (one-sided, positively
  homogeneous in h),
- its exact subdifferential as a ``SubdiffSet`` (polytope hull plus ball),
- its gradient at every row of a batch (``_grad_batch``), with the rows
  where it may fail to be differentiable marked as kinks.

The grammar is deliberately small: affine pieces, coordinate absolute
values, the Euclidean norm, a single exponential atom, a squared positive
part, pointwise maxima, nonnegative sums, and pre-composition with an
affine map.  These atoms are enough to build every worked example the
stability analysis needs while keeping all three oracles exact.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvexityViolation, DimensionMismatch, NumericalOverflow
from .geometry import (
    SubdiffSet,
    add_sets,
    adjoint_image_set,
    merge_active_subdiffs,
    scale_set,
)

_ACTIVE_TOL = 1e-10
_EPS = np.finfo(float).eps


def as_point(x, dim: int) -> np.ndarray:
    """Validate and coerce a point of the expected dimension."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise DimensionMismatch(dim, arr.shape[0] if arr.ndim == 1 else -1)
    if not np.all(np.isfinite(arr)):
        raise ValueError("point must have finite entries")
    return arr


def _basis(i: int, m: int) -> np.ndarray:
    e = np.zeros(m)
    e[i] = 1.0
    return e


def _rows_times(X: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """X @ mat.T for points as rows and mat of shape (p, m) or (m,).

    Accumulated over coordinates in order, so each row's result depends on
    that row alone; BLAS kernels block rows and round a row differently
    depending on the rest of the batch.
    """
    cols = X.T if mat.ndim == 1 else X.T[:, :, None]
    out = cols[0] * mat.T[0]
    for j in range(1, X.shape[1]):
        out = out + cols[j] * mat.T[j]
    return out


def _row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Inner products of matching rows of X and Y, each from its rows alone."""
    return _rows_times(X * Y, np.ones(X.shape[1]))


def _row_sq(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the rows of X, each from its row alone."""
    return _row_dot(X, X)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float).copy()
    a.setflags(write=False)
    return a


class ConvexExpr:
    """Base class; subclasses are immutable and safe to share."""

    dim: int
    kind: str

    def _value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of X, shape (k, m) -> (k,); each row's value
        depends on that row alone."""
        raise NotImplementedError

    def _dd(self, x: np.ndarray, h: np.ndarray) -> float:
        raise NotImplementedError

    def _dd_batch(self, x: np.ndarray, hs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _subdiff(self, x: np.ndarray) -> SubdiffSet:
        raise NotImplementedError

    def _grad_batch(self, X: np.ndarray, err=0.0):
        """Gradients at the rows of X, shape (k, m) -> (G, kink).

        G[i] is the unique subgradient at row i; kink[i] marks rows where
        ``_subdiff`` might return anything other than one generator with a
        zero ball, and G[i] is meaningless there.  err (a scalar or an
        array shaped like X) bounds how far each entry of X may sit from
        the point the scalar oracle sees; rows that close to a kink count
        as kinks.  Each row's result depends on that row alone.
        """
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, ConvexExpr) and _expr_fields(self) == _expr_fields(other)

    def __hash__(self):
        return hash(repr(_expr_fields(self)))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


def _expr_fields(e: "ConvexExpr"):
    if isinstance(e, Const):
        return ("const", e.dim, e.value)
    if isinstance(e, Affine):
        return ("affine", e.dim, tuple(e.a.tolist()), e.b)
    if isinstance(e, EuclidNorm):
        return ("norm", e.dim)
    if isinstance(e, AbsCoord):
        return ("abs", e.dim, e.index)
    if isinstance(e, Exp1D):
        return ("exp1d", e.dim, e.index, e.shift)
    if isinstance(e, PosPartSquare):
        return ("pospart2", e.dim, e.index)
    if isinstance(e, Max):
        return ("max", e.dim, tuple(_expr_fields(c) for c in e.children))
    if isinstance(e, Sum):
        return ("sum", e.dim, tuple((w, _expr_fields(c)) for w, c in e.terms))
    if isinstance(e, ComposeAffine):
        return ("compose", e.dim, tuple(map(tuple, e.matrix.tolist())),
                tuple(e.offset.tolist()), _expr_fields(e.inner))
    raise TypeError(f"unknown node {type(e)!r}")


class Const(ConvexExpr):
    """Constant function c on R^m."""

    kind = "const"

    def __init__(self, value: float, dim: int):
        self.value = float(value)
        self.dim = int(dim)

    def _value(self, x):
        return self.value

    def _value_batch(self, X):
        return np.full(X.shape[0], self.value)

    def _dd(self, x, h):
        return 0.0

    def _dd_batch(self, x, hs):
        return np.zeros(hs.shape[0])

    def _subdiff(self, x):
        return SubdiffSet(np.zeros((1, self.dim)), 0.0)

    def _grad_batch(self, X, err=0.0):
        return np.zeros(X.shape), np.zeros(X.shape[0], dtype=bool)


class Affine(ConvexExpr):
    """<a, x> + b."""

    kind = "affine"

    def __init__(self, a, b: float):
        self.a = _readonly(np.atleast_1d(a))
        self.b = float(b)
        self.dim = self.a.shape[0]

    def _value(self, x):
        return float(self.a @ x + self.b)

    def _value_batch(self, X):
        return _rows_times(X, self.a) + self.b

    def _dd(self, x, h):
        return float(self.a @ h)

    def _dd_batch(self, x, hs):
        return hs @ self.a

    def _subdiff(self, x):
        return SubdiffSet(self.a[None, :], 0.0)

    def _grad_batch(self, X, err=0.0):
        return np.tile(self.a, (X.shape[0], 1)), np.zeros(X.shape[0], dtype=bool)


class EuclidNorm(ConvexExpr):
    """||x||, kinked at the origin where the subdifferential is the unit ball."""

    kind = "norm"

    def __init__(self, dim: int):
        self.dim = int(dim)

    def _value(self, x):
        return float(np.linalg.norm(x))

    def _value_batch(self, X):
        return np.linalg.norm(X, axis=1)

    def _dd(self, x, h):
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return float(np.linalg.norm(h))
        return float((x @ h) / nx)

    def _dd_batch(self, x, hs):
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return np.linalg.norm(hs, axis=1)
        return hs @ (x / nx)

    def _subdiff(self, x):
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return SubdiffSet(np.zeros((1, self.dim)), 1.0)
        return SubdiffSet((x / nx)[None, :], 0.0)

    def _grad_batch(self, X, err=0.0):
        # the scalar norm reads 0 at the origin and where squaring underflows
        sq = _row_sq(X)
        kink = (sq < np.finfo(float).tiny) | np.all(np.abs(X) <= err, axis=1)
        return X / np.sqrt(np.where(kink, 1.0, sq))[:, None], kink


class AbsCoord(ConvexExpr):
    """|x_i|."""

    kind = "abs"

    def __init__(self, index: int, dim: int):
        if not 0 <= index < dim:
            raise ValueError(f"coordinate {index} out of range for dim {dim}")
        self.index = int(index)
        self.dim = int(dim)

    def _value(self, x):
        return float(abs(x[self.index]))

    def _value_batch(self, X):
        return np.abs(X[:, self.index])

    def _dd(self, x, h):
        xi = x[self.index]
        if xi > 0.0:
            return float(h[self.index])
        if xi < 0.0:
            return float(-h[self.index])
        return float(abs(h[self.index]))

    def _dd_batch(self, x, hs):
        xi = x[self.index]
        col = hs[:, self.index]
        if xi > 0.0:
            return col.copy()
        if xi < 0.0:
            return -col
        return np.abs(col)

    def _subdiff(self, x):
        e = _basis(self.index, self.dim)
        xi = x[self.index]
        if xi > 0.0:
            return SubdiffSet(e[None, :], 0.0)
        if xi < 0.0:
            return SubdiffSet(-e[None, :], 0.0)
        return SubdiffSet(np.vstack([-e, e]), 0.0)

    def _grad_batch(self, X, err=0.0):
        xi = X[:, self.index]
        G = np.zeros(X.shape)
        G[:, self.index] = np.sign(xi)
        return G, np.abs(xi) <= np.broadcast_to(err, X.shape)[:, self.index]


class Exp1D(ConvexExpr):
    """exp(x_i) + shift; the only transcendental atom."""

    kind = "exp1d"

    def __init__(self, index: int, shift: float, dim: int = 1):
        if not 0 <= index < dim:
            raise ValueError(f"coordinate {index} out of range for dim {dim}")
        self.index = int(index)
        self.shift = float(shift)
        self.dim = int(dim)

    def _exp(self, x) -> float:
        try:
            return math.exp(x[self.index])
        except OverflowError:
            raise NumericalOverflow(
                f"exp({float(x[self.index]):.6g}) overflows a double") from None

    def _value(self, x):
        return self._exp(x) + self.shift

    def _exp_batch(self, X):
        x = X[:, self.index]
        try:
            with np.errstate(over="raise"):
                return np.exp(x)
        except FloatingPointError:
            raise NumericalOverflow(
                f"exp({float(np.max(x)):.6g}) overflows a double") from None

    def _value_batch(self, X):
        return self._exp_batch(X) + self.shift

    def _dd(self, x, h):
        return self._exp(x) * float(h[self.index])

    def _dd_batch(self, x, hs):
        return self._exp(x) * hs[:, self.index]

    def _subdiff(self, x):
        g = self._exp(x) * _basis(self.index, self.dim)
        return SubdiffSet(g[None, :], 0.0)

    def _grad_batch(self, X, err=0.0):
        G = np.zeros(X.shape)
        G[:, self.index] = self._exp_batch(X)
        return G, np.zeros(X.shape[0], dtype=bool)


class PosPartSquare(ConvexExpr):
    """(max(x_i, 0))^2: smooth, with vanishing gradient on the kink set."""

    kind = "pospart2"

    def __init__(self, index: int, dim: int = 1):
        if not 0 <= index < dim:
            raise ValueError(f"coordinate {index} out of range for dim {dim}")
        self.index = int(index)
        self.dim = int(dim)

    def _value(self, x):
        return float(max(x[self.index], 0.0) ** 2)

    def _value_batch(self, X):
        return np.maximum(X[:, self.index], 0.0) ** 2

    def _dd(self, x, h):
        return 2.0 * max(float(x[self.index]), 0.0) * float(h[self.index])

    def _dd_batch(self, x, hs):
        return 2.0 * max(float(x[self.index]), 0.0) * hs[:, self.index]

    def _subdiff(self, x):
        g = 2.0 * max(float(x[self.index]), 0.0) * _basis(self.index, self.dim)
        return SubdiffSet(g[None, :], 0.0)

    def _grad_batch(self, X, err=0.0):
        G = np.zeros(X.shape)
        G[:, self.index] = 2.0 * np.maximum(X[:, self.index], 0.0)
        return G, np.zeros(X.shape[0], dtype=bool)


class Max(ConvexExpr):
    """Pointwise maximum of convex children.

    The directional derivative and subdifferential are driven by the active
    set at the evaluation point, with tolerance eps = 1e-10 * (1 + |f(x)|)
    so that exact ties are not float-fragile.
    """

    kind = "max"

    def __init__(self, children):
        children = tuple(children)
        if not children:
            raise ValueError("max node needs at least one child")
        dims = {c.dim for c in children}
        if len(dims) != 1:
            raise DimensionMismatch(children[0].dim, children[-1].dim, "max child")
        self.children = children
        self.dim = children[0].dim

    def _active(self, x):
        vals = [c._value(x) for c in self.children]
        top = max(vals)
        eps = _ACTIVE_TOL * (1.0 + abs(top))
        return [c for c, v in zip(self.children, vals) if v >= top - eps], top

    def _value(self, x):
        return max(c._value(x) for c in self.children)

    def _value_batch(self, X):
        return np.maximum.reduce([c._value_batch(X) for c in self.children])

    def _dd(self, x, h):
        active, _ = self._active(x)
        return max(c._dd(x, h) for c in active)

    def _dd_batch(self, x, hs):
        active, _ = self._active(x)
        return np.max(np.stack([c._dd_batch(x, hs) for c in active]), axis=0)

    def _subdiff(self, x):
        active, _ = self._active(x)
        return merge_active_subdiffs([c._subdiff(x) for c in active])

    def _grad_batch(self, X, err=0.0):
        vals = np.array([c._value_batch(X) for c in self.children])
        grads, kinks = zip(*(c._grad_batch(X, err) for c in self.children))
        rows = np.arange(X.shape[0])
        top = np.argmax(vals, axis=0)
        G, kink = np.array(grads)[top, rows], np.array(kinks)[top, rows]
        if len(self.children) > 1:
            # twice the active tolerance absorbs the last-bit differences
            # between batched and scalar child values
            best = vals[top, rows]
            second = np.partition(vals, -2, axis=0)[-2]
            kink |= second >= best - 2.0 * _ACTIVE_TOL * (1.0 + np.abs(best))
        return G, kink


class Sum(ConvexExpr):
    """Nonnegative combination sum_j w_j * f_j (weights >= 0 keep convexity)."""

    kind = "sum"

    def __init__(self, terms):
        terms = tuple((float(w), e) for w, e in terms)
        for w, _ in terms:
            if w < 0.0:
                raise ConvexityViolation(f"sum weight {w} is negative")
        dims = {e.dim for _, e in terms}
        if len(dims) > 1:
            raise DimensionMismatch(terms[0][1].dim, terms[-1][1].dim, "sum term")
        if not terms:
            raise ValueError("sum node needs at least one term")
        self.terms = terms
        self.dim = terms[0][1].dim

    def _value(self, x):
        return float(sum(w * e._value(x) for w, e in self.terms))

    def _value_batch(self, X):
        out = np.zeros(X.shape[0])
        for w, e in self.terms:
            out += w * e._value_batch(X)
        return out

    def _dd(self, x, h):
        return float(sum(w * e._dd(x, h) for w, e in self.terms))

    def _dd_batch(self, x, hs):
        out = np.zeros(hs.shape[0])
        for w, e in self.terms:
            out += w * e._dd_batch(x, hs)
        return out

    def _subdiff(self, x):
        acc = SubdiffSet(np.zeros((1, self.dim)), 0.0)
        for w, e in self.terms:
            acc = add_sets(acc, scale_set(e._subdiff(x), w))
        return acc

    def _grad_batch(self, X, err=0.0):
        G = np.zeros(X.shape)
        kink = np.zeros(X.shape[0], dtype=bool)
        for w, e in self.terms:
            g, k = e._grad_batch(X, err)
            G += w * g
            kink |= k
        return G, kink


class ComposeAffine(ConvexExpr):
    """inner(A x + c) for inner convex on R^p, A of shape (p, m)."""

    kind = "compose"

    def __init__(self, inner: ConvexExpr, matrix, offset):
        self.matrix = _readonly(np.atleast_2d(matrix))
        self.offset = _readonly(np.atleast_1d(offset))
        p, m = self.matrix.shape
        if inner.dim != p:
            raise DimensionMismatch(p, inner.dim, "compose inner")
        if self.offset.shape[0] != p:
            raise DimensionMismatch(p, self.offset.shape[0], "compose offset")
        self.inner = inner
        self.dim = m

    def _push(self, x):
        return self.matrix @ x + self.offset

    def _value(self, x):
        return self.inner._value(self._push(x))

    def _value_batch(self, X):
        return self.inner._value_batch(_rows_times(X, self.matrix) + self.offset)

    def _dd(self, x, h):
        return self.inner._dd(self._push(x), self.matrix @ h)

    def _dd_batch(self, x, hs):
        return self.inner._dd_batch(self._push(x), hs @ self.matrix.T)

    def _subdiff(self, x):
        return adjoint_image_set(self.inner._subdiff(self._push(x)), self.matrix)

    def _grad_batch(self, X, err=0.0):
        a_abs = np.abs(self.matrix)
        err = np.broadcast_to(err, X.shape)
        Y = _rows_times(X, self.matrix) + self.offset
        # _push rounds a point within err of the row by at most (m + 1)
        # ulps of sum_j |A_ij x_j| + |c_i|, and so does Y: twice that bound,
        # doubled again for margin, plus the image of err itself
        size = _rows_times(np.abs(X) + err, a_abs) + np.abs(self.offset)
        err_y = 4.0 * (self.dim + 1) * _EPS * size + _rows_times(err, a_abs)
        G, kink = self.inner._grad_batch(Y, err_y)
        return _rows_times(G, self.matrix.T), kink


# ---------------------------------------------------------------------------
# Public operations.

def evaluate(f: ConvexExpr, x) -> float:
    """Exact function value."""
    return float(f._value(as_point(x, f.dim)))


def directional_derivative(f: ConvexExpr, x, h) -> float:
    """Exact one-sided directional derivative f'(x, h).

    h need not be a unit vector; the result is positively homogeneous in h.
    """
    x = as_point(x, f.dim)
    h = np.atleast_1d(np.asarray(h, dtype=float))
    if h.shape[0] != f.dim:
        raise DimensionMismatch(f.dim, h.shape[0], "direction")
    return float(f._dd(x, h))


def directional_derivatives(f: ConvexExpr, x, hs) -> np.ndarray:
    """directional_derivative for every row of hs, vectorized."""
    x = as_point(x, f.dim)
    hs = np.atleast_2d(np.asarray(hs, dtype=float))
    if hs.shape[1] != f.dim:
        raise DimensionMismatch(f.dim, hs.shape[1], "direction")
    return f._dd_batch(x, hs)


def dd_quotient_scan(f: ConvexExpr, x, h, t_grid) -> list[float]:
    """Difference quotients (f(x + t h) - f(x)) / t along a decreasing grid.

    The quotients are nonincreasing in t and bounded below by f'(x, h);
    this is the numerical cross-check for the exact oracle.
    """
    x = as_point(x, f.dim)
    h = np.atleast_1d(np.asarray(h, dtype=float))
    ts = [float(t) for t in t_grid]
    if any(t <= 0 for t in ts):
        raise ValueError("t_grid must be positive")
    if any(t2 >= t1 for t1, t2 in zip(ts, ts[1:])):
        raise ValueError("t_grid must be strictly decreasing")
    f0 = f._value(x)
    return [(f._value(x + t * h) - f0) / t for t in ts]


def subdifferential(f: ConvexExpr, x) -> SubdiffSet:
    """Exact subdifferential at x as a polytope-plus-ball set."""
    return f._subdiff(as_point(x, f.dim))
