"""Exact small-dimension geometry on subdifferential sets.

A subdifferential is represented exactly as ``conv(G) + r * B``: the convex
hull of finitely many generator vectors, fattened by a Euclidean ball of
radius ``r``.  The minimum-norm point, the least support over the unit
sphere (the signed distance from the origin to the set boundary) and the
set calculus of the subdifferential rules are exact up to floating point
for this representation.  A ``SubdiffSet`` is built in one normal form (no
generator within _DEDUPE_TOL of an earlier one, and above 32 generators
only the extreme points) that nothing downstream normalises again.  One
active-set solver, Lawson and Hanson's NNLS, finds every minimum-norm point
here and the cutting-plane projections of ``moduli``; when the origin is
inside, the boundary distance is the inradius, read off the facets that
one double description pass finds on the polar cone, with no cap on their
number.  A box, a product of one interval per coordinate, is kept as its
ends lo and hi: every atom's set is one (a gradient, a kink's segment
[-e_i, e_i], the norm's ball about 0), and so are a sum of boxes, any
nonnegative multiple of one, a max's set where one child is active, which
is that child's, and a set whose rows hold every vertex of their bounding
box.  Its ends are its one description: its minimum-norm point, inradius
and affine hull are read off lo and hi, and its rows, built only for a
reader of the generators, are its 2^d vertices, in normal form as built.
The set calculus computes with numpy's overflow warning off and refuses
ends, rows or a radius that overflow a double with NumericalOverflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (MinNormNonConvergence, NumericalOverflow,
                     UnsupportedSubdifferential)

_DEDUPE_TOL = 1e-12
_DEDUPE_BLOCK = 1 << 16    # elements of one block of dedupe_rows distances
_RANK_TOL = 1e-10
_FACET_TOL = 1e-9
# a min-norm point at most this times max(1, scale) long is the origin, with
# scale the power of two that _min_norm divides the generators by
MIN_NORM_TOL = 1e-10
_HULL_ZERO = 1e-9          # hull distance below this -> treat origin as on/in hull


class SubdiffSet:
    """The compact convex set conv(generators) + ball_radius * unit ball.

    generators: finite (k, m) array, k >= 1, read-only, so sets may share
        it, as ``scale_set`` by 1 does; rows that are not finite, which
        only an overflow makes, raise NumericalOverflow.  Rows given to
        the constructor are kept in normal form: deduplicated in order
        (``dedupe_rows``), then, above 32 of them, pruned to the extreme
        points (``prune_to_extreme``).  A box made from its ends
        (``_box``) builds its rows on first read as its 2^d vertices, d
        the number of coordinates with lo < hi, the lowest such
        coordinate the most significant and lo before hi; they are in
        normal form already.
    ball_radius: finite nonnegative float.
    lo, hi: for a box, its least and greatest point, so conv(generators)
        is [lo, hi]; None for every other set.  A set whose rows hold all
        2^d vertices of their bounding box is a box (rows that differ in
        one coordinate at most always do), and ``add_sets``, ``scale_set``
        and ``merge_active_subdiffs`` of one set keep boxes boxes.
    """

    __slots__ = ("ball_radius", "lo", "hi", "_rows")

    def __init__(self, generators, ball_radius: float = 0.0):
        g = np.atleast_2d(np.asarray(generators, dtype=float))
        if g.ndim != 2 or g.shape[0] == 0:
            raise ValueError("generators must be a nonempty (k, m) array")
        if not np.all(np.isfinite(g)):
            raise NumericalOverflow("a subdifferential's generators "
                                    "overflow a double")
        if not 0.0 <= ball_radius < math.inf:
            raise ValueError("ball_radius must be finite and nonnegative")
        g = dedupe_rows(g)
        if g.shape[0] > 32:
            g = prune_to_extreme(g)
        g.setflags(write=False)
        self._rows, self.ball_radius = g, float(ball_radius)
        if g.shape[0] == 1:
            self.lo = self.hi = g[0]
            return
        self.lo, self.hi = g.min(axis=0), g.max(axis=0)
        if not _holds_vertices(g, self.lo, self.hi):
            self.lo = self.hi = None

    @classmethod
    def _box(cls, lo, hi, ball_radius: float) -> SubdiffSet:
        """The box [lo, hi] + ball_radius * B, its rows built on first
        read.  A coordinate no wider than _DEDUPE_TOL is made flat at lo,
        so no two vertices are within that of each other.  Ends or a
        radius that are not finite raise NumericalOverflow."""
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()
                and math.isfinite(ball_radius)):
            raise NumericalOverflow("a subdifferential's ends overflow a "
                                    "double")
        s = cls.__new__(cls)
        s.lo, s.ball_radius, s._rows = lo, ball_radius, None
        s.hi = np.where(hi - lo <= _DEDUPE_TOL, lo, hi)
        return s

    @property
    def generators(self) -> np.ndarray:
        if self._rows is None:
            # vertex i reads hi in the wide coordinates whose bits of i are
            # set, the lowest coordinate the most significant bit
            wide = np.flatnonzero(self.lo != self.hi)
            at_hi = (np.arange(1 << wide.size)[:, None] >> np.arange(
                wide.size)[::-1]) & 1
            g = np.tile(self.lo, (at_hi.shape[0], 1))
            g[:, wide] = np.where(at_hi, self.hi[wide], self.lo[wide])
            g.setflags(write=False)
            self._rows = g
        return self._rows

    @property
    def dim(self) -> int:
        return self.hi.shape[0] if self._rows is None else self._rows.shape[1]

    def __repr__(self):
        k = "box" if self._rows is None else self._rows.shape[0]
        return f"SubdiffSet(k={k}, m={self.dim}, r={self.ball_radius:g})"


def _holds_vertices(g: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    """Whether the rows of g, whose columns range over [lo, hi], hold all
    2^d vertices of that box, d the number of coordinates with lo < hi, so
    that conv(g) is the box; a row is a vertex when each such coordinate
    reads lo or hi exactly.  Rows that differ in one coordinate at most
    (d <= 1) always do."""
    wide = lo != hi
    d = int(np.count_nonzero(wide))
    if d <= 1:
        return True
    if g.shape[0] < 1 << d:
        return False
    g, at_hi = g[:, wide], g[:, wide] == hi[wide]
    on = np.all(at_hi | (g == lo[wide]), axis=1)
    return len(set((at_hi[on] @ (1 << np.arange(d))).tolist())) == 1 << d


def _pair_sums(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Every sum of a row of a and a row of b, a's rows outer."""
    return (a[:, None, :] + b[None, :, :]).reshape(-1, a.shape[1])


class OriginTag(str, Enum):
    OUTSIDE = "outside"
    ON_BOUNDARY = "on-boundary"
    INTERIOR = "interior"


@dataclass(frozen=True)
class OriginLocation:
    tag: OriginTag
    tolerance: float


@dataclass(frozen=True, eq=False)
class MinNormResult:
    """Minimum-norm point over conv(G) with its optimality certificate.

    point: the minimizer over the hull (not fattened by the ball).
    hull_dist: ||point||.
    dist: distance from the origin to the full set conv(G) + r*B.
    residual: max(0, <p,p> - min_g <p,g>), the certificate violation.
    """

    point: np.ndarray
    hull_dist: float
    dist: float
    residual: float
    iterations: int


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
    """Inner products of matching rows of X and Y, each summed in order."""
    return functools.reduce(np.add, (X * Y).T)


def _row_sq(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean norms of the rows of X, each from its row alone."""
    return _row_dot(X, X)


def _row_norm(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of X, each from its row alone, summed over
    a power of two above the row's largest entry, so no finite row overflows
    or underflows: bit for bit sqrt(_row_sq(X)) wherever that does neither."""
    big = functools.reduce(np.maximum, np.abs(X).T)
    s = np.ldexp(1.0, np.minimum(np.frexp(big)[1], 1023))
    return np.sqrt(_row_sq(X / s[:, None])) * s


def dedupe_rows(g: np.ndarray) -> np.ndarray:
    """Drop rows within _DEDUPE_TOL (sup norm) of an earlier kept row, keeping
    order: blocks of _DEDUPE_BLOCK / (k m) rows are compared with all
    earlier rows at once, so memory stays O(k m), and only rows with a near
    earlier row are walked, in order, each dropped if a near row was kept.
    The result is a copy, which the caller may freeze."""
    k, m = g.shape
    keep = np.ones(k, dtype=bool)
    step = max(1, _DEDUPE_BLOCK // (k * m))
    for lo in range(1, k, step):
        hi = min(lo + step, k)
        # a boolean product finds the far coordinates (a reduction over a
        # short axis is slow); a row is near itself, so its first near row
        # is earlier exactly when it has a near earlier row
        near = ~((np.abs(g[lo:hi, None] - g[:hi]) > _DEDUPE_TOL)
                 @ np.ones(m, dtype=bool))
        for i in (near.argmax(axis=1) < np.arange(lo, hi)).nonzero()[0]:
            keep[lo + i] = not np.any(near[i, :lo + i] & keep[:lo + i])
    return g[keep]


def _nnls_residual(gens: np.ndarray, target: np.ndarray):
    """(r, rounds): the residual r = gens.T lam - target at the minimum over
    lam >= 0 of its norm, which is the distance from target to the cone
    spanned by the rows of gens, and the rounds taken.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23): free the generator with the largest positive gradient
    component, solve least squares on the free set, and step back along
    the segment to the last feasible point whenever a free coefficient
    turns nonpositive.  Finite, so exact up to rounding; the outer loop is
    capped at 3k rounds so that rounding cannot make it cycle, and rounds
    reaches 3k only when the cap cut it short.
    """
    a = gens.T
    k = gens.shape[0]
    lam = np.zeros(k)
    free = np.zeros(k, dtype=bool)
    fp = np.finfo(float)
    # rounding noise in the gradient w, which is zero on the free set
    tol = (10.0 * max(a.shape) * fp.eps * max(1.0, float(np.max(np.abs(a))))
           * max(1.0, float(np.linalg.norm(target))))
    for rounds in range(3 * k):
        w = a.T @ (target - a @ lam)
        w[free] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            break
        free[j] = True
        while True:
            z = np.zeros(k)
            z[free] = np.linalg.lstsq(a[:, free], target, rcond=None)[0]
            if np.all(z[free] > 0.0):
                lam = z
                break
            neg = np.flatnonzero(free & (z <= 0.0))
            ratios = lam[neg] / np.maximum(lam[neg] - z[neg], fp.tiny)
            hit = int(np.argmin(ratios))
            lam = lam + ratios[hit] * (z - lam)
            lam[neg[hit]] = 0.0
            free &= lam > 0.0
            lam[~free] = 0.0
    else:
        rounds = 3 * k
    return a @ lam - target, rounds


def _scale(big: float, m: int) -> float:
    """A power of two above big * sqrt(m), found without forming a product
    that may overflow."""
    mant, e = math.frexp(big)
    return 2.0 ** min(e + math.frexp(mant * math.sqrt(m))[1], 1023)


def _box_big(s: SubdiffSet) -> float:
    """max |g| over a box's rows, read off its ends."""
    return float(max(np.max(np.abs(s.lo)), np.max(np.abs(s.hi))))


def _min_norm(g: np.ndarray):
    """(x, norm, g, scale, rounds) for the rows of g divided by scale, a
    power of two above every row norm, so that the reduction neither
    overflows nor rounds: x times scale is the minimum-norm point of
    conv(rows of g) and norm its ``_row_norm``, both zero at or below
    MIN_NORM_TOL * max(1, scale), so that NNLS rounding at a large scale
    never reads as a distance; rounds counts NNLS rounds, 0 for a single
    generator.

    Two or more generators take one NNLS: minimize
    ||G^T lam||^2 + (sum(lam) - 1)^2 over lam >= 0; the point is
    G^T lam / sum(lam).  With lam = t mu, mu in the simplex, and
    q = ||G^T mu||^2, the minimum over t is at t = 1 / (1 + q), with value
    q t, increasing in q, so mu is the minimum-norm weight.  Rows of norm
    at most 1 keep t >= 1/2, where 1 + r[m] = t is exact.
    """
    k, m = g.shape
    scale = _scale(float(np.max(np.abs(g))), m)
    g = g / scale
    if k == 1:
        x, rounds = g[0], 0
    else:
        target = np.zeros(m + 1)
        target[m] = 1.0
        r, rounds = _nnls_residual(np.column_stack([g, np.ones(k)]), target)
        x = r[:m] / (1.0 + r[m])
    norm = float(_row_norm(x[None])[0]) * scale
    if norm <= MIN_NORM_TOL * max(1.0, scale):
        x, norm = np.zeros(m), 0.0
    return x, norm, g, scale, rounds


def min_norm_point(s: SubdiffSet) -> MinNormResult:
    """Nearest point of conv(G) to the origin, and distance to the full set;
    hull_dist is the point's ``_row_norm``, the norm ``_betas`` reads.

    A box's point is clip(0, lo, hi), under ``_min_norm``'s zero rule, with
    no NNLS: residual and iterations are 0.  Raises MinNormNonConvergence
    when the NNLS hits its round cap with the certificate residual above
    tolerance.
    """
    if s.lo is not None:
        point = np.minimum(np.maximum(s.lo, 0.0), s.hi)
        hull_dist = float(_row_norm(point[None])[0])
        if hull_dist <= MIN_NORM_TOL * max(1.0, _scale(_box_big(s), s.dim)):
            point, hull_dist = np.zeros(s.dim), 0.0
        return MinNormResult(point=point, hull_dist=hull_dist,
                             dist=max(hull_dist - s.ball_radius, 0.0),
                             residual=0.0, iterations=0)
    x, hull_dist, g, scale, rounds = _min_norm(np.asarray(s.generators, float))
    residual = max(0.0, float(np.max(_row_sq(x[None]) - g @ x))) * scale * scale
    point = x * scale
    if rounds == 3 * g.shape[0] and residual > 100.0 * MIN_NORM_TOL * max(
            1.0, hull_dist * hull_dist):
        raise MinNormNonConvergence(point, residual, rounds)
    dist = max(hull_dist - s.ball_radius, 0.0)
    return MinNormResult(point=point, hull_dist=hull_dist, dist=dist,
                         residual=residual, iterations=rounds)


def hull_distance(point: np.ndarray, g: np.ndarray) -> float:
    """Distance from an arbitrary point to conv(rows of g)."""
    return _min_norm(np.asarray(g, dtype=float) - np.asarray(point, dtype=float))[1]


def affine_hull_misses_origin(s: SubdiffSet) -> bool:
    """Whether aff(s) misses the origin by over 1e-9 * (1 + max |g|); a
    box's affine hull fixes its flat coordinates (lo_j = hi_j), so the gap
    is their values' norm."""
    if s.ball_radius != 0.0:
        return False
    if s.lo is not None:
        gap, big = s.lo[s.lo == s.hi], _box_big(s)
    else:
        g = s.generators
        d = (g[1:] - g[0]).T
        gap = g[0] - d @ np.linalg.lstsq(d, g[0], rcond=None)[0]
        big = np.max(np.abs(g))
    return bool(np.linalg.norm(gap) > 1e-9 * (1.0 + big))


def _polar_rays(g: np.ndarray) -> np.ndarray:
    """Extreme rays, as unit rows (y, t), of the cone {(y, t) : <gen, y> <= t
    for every row gen of g, t >= 0}, pointed when g has rank m.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
    and Prodon 1996): start from m + 1 independent constraints A, whose
    cone has the columns of -inv(A) as rays, and add the others one at a
    time.  Rays strictly outside the new halfspace go; each adjacent pair
    on opposite sides gives the ray where their segment meets the plane.
    Rays p and n are adjacent when no third ray lies on every plane both
    lie on; such a ray shares m - 1 planes with p, so the positive rays,
    sliced in blocks as long as there are planes so far, are tested against
    those rays only, one block at a time; no positive ray, no block.
    g is scaled to max |g| = 1, so _FACET_TOL means the same at every scale.
    """
    k, m = g.shape
    a = np.vstack([np.column_stack([g / np.max(np.abs(g)), -np.ones(k)]),
                   -np.eye(1, m + 1, m)])
    # the t row, then m rows of g by Gram-Schmidt, each time the row that
    # sticks out furthest from the span so far
    basis, q = [k], a[k:]
    for _ in range(m):
        r = a - (a @ q.T) @ q
        basis.append(int(np.argmax(np.linalg.norm(r, axis=1))))
        q = np.vstack([q, r[basis[-1]] / np.linalg.norm(r[basis[-1]])])
    rays = -np.linalg.inv(a[basis]).T
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    tight = ~np.eye(m + 1, dtype=bool)  # tight[r, j]: ray r on the j-th plane
    for i in sorted(set(range(k + 1)) - set(basis)):
        s = rays @ a[i]
        pos, neg = s > _FACET_TOL, s < -_FACET_TOL
        zf = tight.astype(float)
        rows, tights = [rays[~pos]], [tight[~pos]]
        idx = np.flatnonzero(pos)
        for lo in range(0, idx.size, zf.shape[1]):
            blk = idx[lo:lo + zf.shape[1]]
            near = zf[blk] @ zf.T >= m - 1
            b, n = np.nonzero(near & neg)
            common = tight[blk[b]] & tight[n]
            cf = common.astype(float)
            on_face = cf @ zf[near.any(axis=0)].T == cf.sum(axis=1)[:, None]
            adj = np.sum(on_face, axis=1) == 2
            p, n = blk[b[adj]], n[adj]
            rows.append(s[p, None] * rays[n] - s[n, None] * rays[p])
            tights.append(common[adj])
        rays = np.vstack(rows)
        rays /= np.linalg.norm(rays, axis=1)[:, None]
        on_new = np.abs(rays @ a[i]) <= _FACET_TOL
        tight = np.column_stack([np.vstack(tights), on_new])
    return rays


def _inradius_at_origin(g: np.ndarray):
    """(value, achieving direction h) of min over unit h of max_gen <gen, h>,
    valid when the origin lies on or inside conv(g) (value ~0 also for an
    origin marginally outside).

    Each facet of a full-dimensional conv(g) is an extreme ray (y, t), t > 0,
    of the polar cone of _polar_rays, with normal h = y / |y|; rays with
    t = 0 give the ~0 value when the origin is on or just outside the hull.
    The value is the least max_gen <gen, h> over the rays, read on g itself.
    """
    m = g.shape[1]
    _, sv, vt = np.linalg.svd(g, full_matrices=True)
    smax = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > _RANK_TOL * max(1.0, smax)))
    if rank < m:
        # hull spans a proper subspace through the origin: support vanishes
        # along any orthogonal direction
        h = vt[rank]
        return 0.0, h / np.linalg.norm(h)
    y = _polar_rays(g)[:, :m]
    hs = y / np.linalg.norm(y, axis=1)[:, None]
    h = hs[int(np.argmin(np.max(g @ hs.T, axis=0)))]
    return float(np.max(g @ h)), h


def min_support_direction(s: SubdiffSet):
    """(sigma, h) with sigma = min over unit h of the support function
    max over s of <., h>, and h the minimizing direction.  sigma is the
    signed distance from the origin to the boundary of s: -d(0, s) outside,
    +d(0, bdry s) inside, 0 on the boundary.  Inside a box with an interval
    it is min_j min(hi_j, -lo_j) + r, the box's support at -e_j or +e_j,
    with ties at the lowest j and at -e_j where -lo_j <= hi_j (a flat
    coordinate reads 0); a single point keeps ``_inradius_at_origin``'s
    SVD null vector.  Raises MinNormNonConvergence where min_norm_point
    does."""
    mn = min_norm_point(s)
    if mn.hull_dist > _HULL_ZERO:
        h = -mn.point / mn.hull_dist
        sigma_hull = -mn.hull_dist
    elif s.lo is not None and np.any(s.lo != s.hi):
        sides = np.minimum(s.hi, -s.lo)
        j = int(np.argmin(sides))
        h = np.zeros(s.dim)
        h[j] = -1.0 if -s.lo[j] <= s.hi[j] else 1.0
        sigma_hull = float(sides[j])
    else:
        sigma_hull, h = _inradius_at_origin(s.generators)
    return sigma_hull + s.ball_radius, h


# ---------------------------------------------------------------------------
# Set calculus used by the expression subdifferential rules.

def _computed_set(g, ball_radius: float) -> SubdiffSet:
    """SubdiffSet(g, ball_radius) for a radius computed from finite ones."""
    if not math.isfinite(ball_radius):
        raise NumericalOverflow("a subdifferential's radius overflows a double")
    return SubdiffSet(g, ball_radius)


@np.errstate(over="ignore")     # SubdiffSet and _box refuse an overflow
def scale_set(s: SubdiffSet, w: float) -> SubdiffSet:
    """w * S for w >= 0: S itself for w = 1, as 1 * x is exact, and at
    every weight a box stays a box, [w lo, w hi] (rounding is monotone),
    the point box 0 * lo at w = 0."""
    if w < 0:
        raise ValueError("scale weight must be nonnegative")
    if w == 1.0:
        return s
    if s.lo is not None:
        return SubdiffSet._box(w * s.lo, w * s.hi, w * s.ball_radius)
    return _computed_set(w * s.generators, w * s.ball_radius)


@np.errstate(over="ignore")     # SubdiffSet and _box refuse an overflow
def add_sets(a: SubdiffSet, b: SubdiffSet) -> SubdiffSet:
    """Minkowski sum.  Two boxes add to the box [lo + lo', hi + hi'], with
    no rows built: terms acting on their own coordinates have a product of
    intervals as their sum's set (Rockafellar, Convex Analysis, Thm 23.8).
    Any other pair gives every pairwise sum of generators (a's rows
    outer), which the SubdiffSet normal form prunes when they get many."""
    if a.lo is not None and b.lo is not None:
        return SubdiffSet._box(a.lo + b.lo, a.hi + b.hi,
                               a.ball_radius + b.ball_radius)
    return _computed_set(_pair_sums(a.generators, b.generators),
                         a.ball_radius + b.ball_radius)


def sum_sets(parts) -> SubdiffSet:
    """The Minkowski sum of parts, by ``add_sets`` in their order."""
    return functools.reduce(add_sets, parts)


@np.errstate(over="ignore", invalid="ignore")
def adjoint_image_set(s: SubdiffSet, a_mat: np.ndarray) -> SubdiffSet:
    """{A^T u : u in S} for S in the inner space, A of shape (p, m).

    A positive inner ball radius maps to a Euclidean ball only when
    A^T A is a multiple of the identity; anything else is refused to keep
    the representation exact.  Where A^T A overflows, its nans pass that
    check, but the radius is then inf, which is refused as an overflow."""
    a_mat = np.asarray(a_mat, dtype=float)
    gens = _rows_times(s.generators, a_mat.T)
    if s.ball_radius == 0.0:
        return SubdiffSet(gens, 0.0)
    m = a_mat.shape[1]
    gram = a_mat.T @ a_mat
    sigma2 = float(np.trace(gram)) / m
    if np.max(np.abs(gram - sigma2 * np.eye(m))) > 1e-12 * max(1.0, sigma2):
        raise UnsupportedSubdifferential(
            "affine pre-composition maps the inner ball to a non-ball; "
            "only conformal maps (A^T A = s*I) are supported with r > 0"
        )
    return _computed_set(gens, s.ball_radius * math.sqrt(sigma2))


def merge_active_subdiffs(parts) -> SubdiffSet:
    """conv of the union of the active children's sets (the pointwise-max
    rule).  Exact cases only:

    - one set: that set itself, so a box stays a box;
    - all ball radii zero: union of generators;
    - every positive radius equal: union of those children's generators with
      the shared radius, provided each radius-zero child's hull lies inside;
    - otherwise the hull of the union is not of the form conv(G) + r*B and
      an UnsupportedSubdifferential error is raised.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("merge requires at least one set")
    if len(parts) == 1:
        return parts[0]
    ball_parts = [p for p in parts if p.ball_radius > 0.0]
    flat_parts = [p for p in parts if p.ball_radius == 0.0]
    if not ball_parts:
        return SubdiffSet(np.vstack([p.generators for p in parts]), 0.0)
    radii = np.array([p.ball_radius for p in ball_parts])
    if np.max(radii) - np.min(radii) > _DEDUPE_TOL:
        raise UnsupportedSubdifferential(
            "two distinct positive ball radii in one max node"
        )
    core = SubdiffSet(np.vstack([p.generators for p in ball_parts]),
                      float(radii[0]))
    for p in flat_parts:
        for gen in p.generators:
            if hull_distance(gen, core.generators) > core.ball_radius + 1e-9:
                raise UnsupportedSubdifferential(
                    "polytope child escapes the ball-carrying child; "
                    "the union's hull is not a polytope plus a ball"
                )
    return core


def prune_to_extreme(g: np.ndarray) -> np.ndarray:
    """Drop, in order, rows within 1e-12 of the hull of the rows kept so far
    and those after them: what is left are the extreme points."""
    keep = np.ones(g.shape[0], dtype=bool)
    for i in range(g.shape[0]):
        others = g[keep & (np.arange(g.shape[0]) != i)]
        if others.shape[0] == 0:
            continue
        if hull_distance(g[i], others) <= 1e-12:
            keep[i] = False
    return g[keep]
