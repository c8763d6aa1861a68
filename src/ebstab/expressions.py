"""Convex-by-construction expression trees with exact first-order oracles.

Every node represents a finite-valued convex function on R^m and has
five oracles, each by structural recursion over its children:

- ``_value_batch``: its exact value at every row of a batch of points;
- ``_dd_batch``: its exact directional derivative f'(x, h) (one-sided,
  positively homogeneous in h) at one point, for every row h of a batch
  of directions;
- ``_subdiff``: its exact subdifferential as a ``SubdiffSet`` (polytope
  hull plus ball), which every atom makes as a box from its ends, with no
  normal-form pass;
- ``_grad_batch``: its gradient at every row of a batch, with the rows
  where it may fail to be differentiable marked as kinks;
- ``_minorants_batch``: a bundle of affine minorants at every row of a
  batch, one per affine piece there, whose largest value at the row is
  the value itself.

The point oracle ``_value``, defined once on the base class, is a one-row
view of ``_value_batch``, and ``directional_derivative`` reads one row of
``_dd_batch``, so a value or a derivative has a single arithmetic.  The
atoms that never kink (``Const``, ``Affine``, ``Exp1D``, ``PosPartSquare``)
take ``_dd_batch`` and ``_subdiff`` from the base class, which reads them
off ``_grad_batch``; ``AbsCoord`` keeps only its kink in both, and the
other nodes define their own.

The grammar is deliberately small: affine pieces, coordinate absolute
values, the Euclidean norm, a single exponential atom, a squared positive
part, pointwise maxima, nonnegative sums, and pre-composition with an
affine map.  These atoms are enough to build every worked example the
stability analysis needs while keeping every oracle exact.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvexityViolation, DimensionMismatch, NumericalOverflow
from .geometry import (
    SubdiffSet,
    _row_norm,
    _rows_times,
    adjoint_image_set,
    merge_active_subdiffs,
    scale_set,
    sum_sets,
)

_ACTIVE_TOL = 1e-10


def as_point(x, dim: int) -> np.ndarray:
    """Validate and coerce a point of the expected dimension."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise DimensionMismatch(dim, arr.shape[0] if arr.ndim == 1 else -1)
    if not np.all(np.isfinite(arr)):
        raise ValueError("point must have finite entries")
    return arr


def _coord(index: int, dim: int) -> tuple[int, int]:
    """(index, dim) as ints for an atom on coordinate index of R^dim."""
    if not 0 <= index < dim:
        raise ValueError(f"coordinate {index} out of range for dim {dim}")
    return int(index), int(dim)


def _on_coord(index: int, cols: np.ndarray, m: int) -> np.ndarray:
    """Gradients of shape cols.shape + (m,), zero but in coordinate index,
    where they read cols."""
    G = np.zeros(cols.shape + (m,))
    G[..., index] = cols
    return G


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float).copy()
    a.setflags(write=False)
    return a


class ConvexExpr:
    """Base class; subclasses are immutable and safe to share."""

    dim: int

    def _value_batch(self, X: np.ndarray) -> np.ndarray:
        """Values at the rows of X, shape (k, m) -> (k,); each row's value
        depends on that row alone."""
        raise NotImplementedError

    def _value(self, x: np.ndarray) -> float:
        """The value at one point: a one-row view of ``_value_batch``."""
        return float(self._value_batch(x[None])[0])

    def _dd_batch(self, x: np.ndarray, hs: np.ndarray) -> np.ndarray:
        """f'(x, h) for the rows h of hs, shape (k, m) -> (k,).  This default,
        <grad f(x), h>, holds wherever f is differentiable at x (Rockafellar,
        Convex Analysis, Thm 25.1); a node that may kink defines its own."""
        return hs @ self._grad_batch(x[None])[0][0]

    def _subdiff(self, x: np.ndarray) -> SubdiffSet:
        """The subdifferential at x.  This default, {grad f(x)}, holds where
        ``_dd_batch``'s does; a node that may kink defines its own."""
        g = self._grad_batch(x[None])[0][0]
        return SubdiffSet._box(g, g, 0.0)

    def _grad_batch(self, X: np.ndarray):
        """Gradients at the rows of X, shape (k, m) -> (G, kink).

        kink[i] marks every row where ``_subdiff`` at that row might return
        anything other than one generator with a zero ball, and G[i] is
        meaningless there; at every other row ``_subdiff`` returns G[i]
        itself, bit for bit.  Each row's result depends on that row alone.
        """
        raise NotImplementedError

    def _minorants_batch(self, X: np.ndarray):
        """Affine minorants at the rows of X, shape (k, m) -> (V, G) with V
        of shape (r, k) and G of shape (r, k, m).

        Every row is global: f(u) >= V[j, i] + <G[j, i], u - X[i]> for all
        u, up to rounding.  The bundle is tight: V.max(axis=0) equals
        ``_value_batch(X)`` bit for bit.  r is fixed by the tree, and each
        point's rows depend on that point alone.  The default, the tangent
        (r = 1), needs ``_grad_batch``'s G to be a subgradient at every row.
        """
        return self._value_batch(X)[None], self._grad_batch(X)[0][None]

    def _polyhedral_at(self, x: np.ndarray) -> bool:
        """Whether f is f(x) + the support function of a polytope near x."""
        raise NotImplementedError

    def _text(self) -> str:
        """Canonical text in the problem-file grammar, numbers via repr so
        that parsing it back gives the same node."""
        raise NotImplementedError

    def __eq__(self, other):
        return (isinstance(other, ConvexExpr)
                and (self.dim, self._text()) == (other.dim, other._text()))

    def __hash__(self):
        return hash((self.dim, self._text()))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


def _fmt(v: float) -> str:
    return repr(float(v))


def _fmt_vec(v) -> str:
    return "[" + ", ".join(_fmt(x) for x in np.atleast_1d(v)) + "]"


class Const(ConvexExpr):
    """Constant function c on R^m."""

    def __init__(self, value: float, dim: int):
        self.value = float(value)
        self.dim = int(dim)

    def _text(self):
        return f"(const {_fmt(self.value)})"

    def _value_batch(self, X):
        return np.full(X.shape[0], self.value)

    def _grad_batch(self, X):
        return np.zeros(X.shape), np.zeros(X.shape[0], dtype=bool)

    def _polyhedral_at(self, x):
        return True


class Affine(ConvexExpr):
    """<a, x> + b."""

    def __init__(self, a, b: float):
        self.a = _readonly(np.atleast_1d(a))
        self.b = float(b)
        self.dim = self.a.shape[0]

    def _text(self):
        return f"(affine {_fmt_vec(self.a)} {_fmt(self.b)})"

    def _value_batch(self, X):
        return _rows_times(X, self.a) + self.b

    def _grad_batch(self, X):
        return np.tile(self.a, (X.shape[0], 1)), np.zeros(X.shape[0], dtype=bool)

    def _polyhedral_at(self, x):
        return True


class EuclidNorm(ConvexExpr):
    """||x|| as ``_row_norm``, kinked where that reads 0 (the unit ball is the
    subdifferential); ``_dd_batch`` and ``_subdiff`` view ``_grad_batch``."""

    def __init__(self, dim: int):
        self.dim = int(dim)

    def _text(self):
        return "(norm)"

    def _value_batch(self, X):
        return _row_norm(X)

    def _dd_batch(self, x, hs):
        G, kink = self._grad_batch(x[None])
        return _row_norm(hs) if kink[0] else hs @ G[0]

    def _subdiff(self, x):
        G, kink = self._grad_batch(x[None])
        g = np.zeros(self.dim) if kink[0] else G[0]
        return SubdiffSet._box(g, g, 1.0 if kink[0] else 0.0)

    def _grad_batch(self, X):
        n = _row_norm(X)
        kink = n == 0.0
        return X / np.where(kink, 1.0, n)[:, None], kink

    def _polyhedral_at(self, x):
        return self.dim == 1


class AbsCoord(ConvexExpr):
    """|x_i|."""

    def __init__(self, index: int, dim: int):
        self.index, self.dim = _coord(index, dim)

    def _text(self):
        return f"(abs {self.index})"

    def _value_batch(self, X):
        return np.abs(X[:, self.index])

    def _dd_batch(self, x, hs):
        if x[self.index] != 0.0:
            return super()._dd_batch(x, hs)
        return np.abs(hs[:, self.index])

    def _subdiff(self, x):
        if x[self.index] != 0.0:
            return super()._subdiff(x)
        e = np.eye(1, self.dim, self.index)[0]
        return SubdiffSet._box(-e, e, 0.0)

    def _grad_batch(self, X):
        xi = X[:, self.index]
        return _on_coord(self.index, np.sign(xi), self.dim), xi == 0.0

    def _minorants_batch(self, X):
        # both pieces, x_i and -x_i, wherever x is
        signs = np.array([[1.0], [-1.0]])
        V = signs * X[:, self.index]
        return V, _on_coord(self.index, np.broadcast_to(signs, V.shape), self.dim)

    def _polyhedral_at(self, x):
        return True


class Exp1D(ConvexExpr):
    """exp(x_i) + shift; the only transcendental atom."""

    def __init__(self, index: int, shift: float, dim: int = 1):
        self.index, self.dim = _coord(index, dim)
        self.shift = float(shift)

    def _text(self):
        return f"(exp1d {self.index} {_fmt(self.shift)})"

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

    def _grad_batch(self, X):
        return (_on_coord(self.index, self._exp_batch(X), self.dim),
                np.zeros(X.shape[0], dtype=bool))

    def _minorants_batch(self, X):
        e = self._exp_batch(X)[None]
        return e + self.shift, _on_coord(self.index, e, self.dim)

    def _polyhedral_at(self, x):
        return False


class PosPartSquare(ConvexExpr):
    """(max(x_i, 0))^2: smooth, with vanishing gradient on the kink set."""

    def __init__(self, index: int, dim: int = 1):
        self.index, self.dim = _coord(index, dim)

    def _text(self):
        return f"(pospart2 {self.index})"

    def _value_batch(self, X):
        return np.maximum(X[:, self.index], 0.0) ** 2

    def _grad_batch(self, X):
        return (_on_coord(self.index, 2.0 * np.maximum(X[:, self.index], 0.0),
                          self.dim), np.zeros(X.shape[0], dtype=bool))

    def _minorants_batch(self, X):
        p = np.maximum(X[:, self.index], 0.0)[None]
        return p ** 2, _on_coord(self.index, 2.0 * p, self.dim)

    def _polyhedral_at(self, x):
        return bool(x[self.index] < 0.0)


class Max(ConvexExpr):
    """Pointwise maximum of convex children.

    The directional derivative and subdifferential are driven by the active
    set at the evaluation point, with tolerance eps = 1e-10 * (1 + |f(x)|)
    so that exact ties are not float-fragile.  A max of ``Affine`` children
    keeps their gradients as one read-only (p, m) matrix A and offsets as a
    vector b, which every oracle reads but ``_dd_batch``: one BLAS product
    over A could round otherwise than each child's own.
    """

    def __init__(self, children):
        children = tuple(children)
        if not children:
            raise ValueError("max node needs at least one child")
        dims = {c.dim for c in children}
        if len(dims) != 1:
            raise DimensionMismatch(children[0].dim, children[-1].dim, "max child")
        self.children = children
        self.dim = children[0].dim
        affine = all(type(c) is Affine for c in children)
        self._A = _readonly([c.a for c in children]) if affine else None
        self._b = _readonly([c.b for c in children]) if affine else None

    def _text(self):
        return "(max " + " ".join(c._text() for c in self.children) + ")"

    def _child_values(self, X):
        """The children's values at the rows of X, shape (k, m) -> (p, k);
        from A and b, each entry is its child's own in-order sum."""
        if self._A is not None:
            return _rows_times(self._A, X) + self._b[:, None]
        return np.array([c._value_batch(X) for c in self.children])

    def _active(self, x):
        """(indices, top): the children within eps of the top value at x,
        by index, and that value."""
        vals = self._child_values(x[None])[:, 0].tolist()
        top = max(vals)
        eps = _ACTIVE_TOL * (1.0 + abs(top))
        return [i for i, v in enumerate(vals) if v >= top - eps], top

    def _value_batch(self, X):
        return np.maximum.reduce(self._child_values(X))

    def _dd_batch(self, x, hs):
        active, _ = self._active(x)
        return np.max(np.stack([self.children[i]._dd_batch(x, hs)
                                for i in active]), axis=0)

    def _subdiff(self, x):
        active, _ = self._active(x)
        if self._A is not None:
            return SubdiffSet(self._A[active])
        return merge_active_subdiffs([self.children[i]._subdiff(x)
                                      for i in active])

    def _grad_batch(self, X):
        vals = self._child_values(X)
        rows = np.arange(X.shape[0])
        top = np.argmax(vals, axis=0)
        best = vals[top, rows]
        # a tie is where _active's rule, on these same child values, finds
        # two or more children within its eps of the top
        eps = _ACTIVE_TOL * (1.0 + np.abs(best))
        tie = np.sum(vals >= best - eps, axis=0) > 1
        if self._A is not None:
            return self._A[top], tie
        grads, kinks = zip(*(c._grad_batch(X) for c in self.children))
        return np.array(grads)[top, rows], np.array(kinks)[top, rows] | tie

    def _minorants_batch(self, X):
        if self._A is not None:
            return self._child_values(X), self._A[:, None].repeat(len(X), 1)
        V, G = zip(*(c._minorants_batch(X) for c in self.children))
        return np.concatenate(V), np.concatenate(G)

    def _polyhedral_at(self, x):
        return self._A is not None or all(
            self.children[i]._polyhedral_at(x) for i in self._active(x)[0])


class Sum(ConvexExpr):
    """Nonnegative combination sum_j w_j * f_j (weights >= 0 keep convexity)."""

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

    def _text(self):
        parts = " ".join(f"{_fmt(w)} {e._text()}" for w, e in self.terms)
        return f"(sum {parts})"

    def _value_batch(self, X):
        out = np.zeros(X.shape[0])
        for w, e in self.terms:
            out += w * e._value_batch(X)
        return out

    def _dd_batch(self, x, hs):
        out = np.zeros(hs.shape[0])
        for w, e in self.terms:
            out += w * e._dd_batch(x, hs)
        return out

    def _subdiff(self, x):
        return sum_sets(scale_set(e._subdiff(x), w) for w, e in self.terms)

    def _grad_batch(self, X):
        G = np.zeros(X.shape)
        kink = np.zeros(X.shape[0], dtype=bool)
        for w, e in self.terms:
            g, k = e._grad_batch(X)
            G += w * g
            kink |= k
        return G, kink

    def _minorants_batch(self, X):
        """The sum of each term's best minorant first, then that sum with
        one other minorant of one term swapped in for the term's best, for
        each term and each of its other minorants.  Each row is summed in
        ``_value_batch``'s order, so the first reads f(x) bit for bit and,
        as w >= 0 and rounding is monotone, no other row reads more."""
        bundles = [e._minorants_batch(X) for _, e in self.terms]
        cols = np.arange(X.shape[0])
        V = np.zeros((1 + sum(b[0].shape[0] - 1 for b in bundles), X.shape[0]))
        G = np.zeros(V.shape + (self.dim,))
        start = 1
        for (w, _), (v, g) in zip(self.terms, bundles):
            best = np.argmax(v, axis=0)
            pick = np.tile(best, (V.shape[0], 1))
            other = np.arange(v.shape[0] - 1)[:, None]
            pick[start:start + other.shape[0]] = other + (other >= best)
            start += other.shape[0]
            V += w * v[pick, cols]
            G += w * g[pick, cols]
        return V, G

    def _polyhedral_at(self, x):
        return all(e._polyhedral_at(x) for _, e in self.terms)


class ComposeAffine(ConvexExpr):
    """inner(A x + c) for inner convex on R^p, A of shape (p, m)."""

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

    def _text(self):
        mat = "[" + ", ".join(_fmt_vec(row) for row in self.matrix) + "]"
        return f"(compose {mat} {_fmt_vec(self.offset)} {self.inner._text()})"

    def _push(self, X):
        """A x + c at the rows of X, each from its row alone; the point
        oracles read a one-row view, so all oracles see one inner point."""
        return _rows_times(X, self.matrix) + self.offset

    def _value_batch(self, X):
        return self.inner._value_batch(self._push(X))

    def _dd_batch(self, x, hs):
        return self.inner._dd_batch(self._push(x[None])[0], hs @ self.matrix.T)

    def _subdiff(self, x):
        return adjoint_image_set(self.inner._subdiff(self._push(x[None])[0]),
                                 self.matrix)

    def _grad_batch(self, X):
        G, kink = self.inner._grad_batch(self._push(X))
        return _rows_times(G, self.matrix.T), kink

    def _minorants_batch(self, X):
        V, G = self.inner._minorants_batch(self._push(X))
        G = _rows_times(G.reshape(-1, G.shape[2]), self.matrix.T)
        return V, G.reshape(V.shape + (self.dim,))

    def _polyhedral_at(self, x):
        return self.inner._polyhedral_at(self._push(x[None])[0])


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
    return float(f._dd_batch(x, h[None])[0])


def subdifferential(f: ConvexExpr, x) -> SubdiffSet:
    """Exact subdifferential at x as a polytope-plus-ball set."""
    return f._subdiff(as_point(x, f.dim))
