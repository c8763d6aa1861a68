"""Exact small-dimension geometry on subdifferential sets.

A subdifferential is represented exactly as ``conv(G) + r * B``: the convex
hull of finitely many generator vectors, fattened by a Euclidean ball of
radius ``r``.  All operations here (support function, minimum-norm point,
origin classification, signed distance from the origin to the set boundary)
are exact up to floating point for this representation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MinNormNonConvergence, UndeterminedInradius
from .sampling import unit_directions

_DEDUPE_TOL = 1e-12
_RANK_TOL = 1e-10
_FACET_TOL = 1e-9
_HULL_ZERO = 1e-9          # hull distance below this -> treat origin as on/in hull
_ENUM_CAP = 200_000        # max facet subsets enumerated before sampling fallback


@dataclass(frozen=True, eq=False)
class SubdiffSet:
    """The compact convex set conv(generators) + ball_radius * unit ball.

    generators: array of shape (k, m), k >= 1.
    ball_radius: nonnegative float.
    """

    generators: np.ndarray
    ball_radius: float = 0.0

    def __post_init__(self):
        g = np.atleast_2d(np.asarray(self.generators, dtype=float))
        if g.ndim != 2 or g.shape[0] == 0:
            raise ValueError("generators must be a nonempty (k, m) array")
        if not np.all(np.isfinite(g)):
            raise ValueError("generators must be finite")
        if self.ball_radius < 0:
            raise ValueError("ball_radius must be nonnegative")
        g = g.copy()
        g.setflags(write=False)
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "ball_radius", float(self.ball_radius))

    @property
    def dim(self) -> int:
        return self.generators.shape[1]

    def __repr__(self):
        return (
            f"SubdiffSet(k={self.generators.shape[0]}, m={self.dim}, "
            f"r={self.ball_radius:g})"
        )


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


def support(s: SubdiffSet, h: np.ndarray) -> float:
    """Support function max over the set of <., h>."""
    h = np.asarray(h, dtype=float)
    return float(np.max(s.generators @ h) + s.ball_radius * np.linalg.norm(h))


def support_batch(s: SubdiffSet, hs: np.ndarray) -> np.ndarray:
    """support() for every row of hs, vectorized."""
    hs = np.atleast_2d(np.asarray(hs, dtype=float))
    vals = np.max(s.generators @ hs.T, axis=0)
    return vals + s.ball_radius * np.linalg.norm(hs, axis=1)


def dedupe_rows(g: np.ndarray, tol: float = _DEDUPE_TOL) -> np.ndarray:
    """Drop rows that coincide with an earlier row up to tol (keeps order)."""
    keep = []
    for i in range(g.shape[0]):
        dup = False
        for j in keep:
            if np.max(np.abs(g[i] - g[j])) <= tol:
                dup = True
                break
        if not dup:
            keep.append(i)
    return g[keep]


def _affine_min_norm(p: np.ndarray):
    """Minimize ||lam @ p|| subject to sum(lam) = 1 (lam unconstrained)."""
    c = p.shape[0]
    kkt = np.zeros((c + 1, c + 1))
    kkt[:c, :c] = p @ p.T
    kkt[:c, c] = 1.0
    kkt[c, :c] = 1.0
    rhs = np.zeros(c + 1)
    rhs[c] = 1.0
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    lam = sol[:c]
    return lam, lam @ p


def _wolfe_min_norm(g: np.ndarray, tol: float = 1e-10, max_iter: int = 500):
    """Wolfe's minimum-norm-point scheme over conv(rows of g).

    Active-set iteration over generator subsets (the corral); each step
    solves the affine minimum-norm subproblem on the corral and line-searches
    back into the simplex.  Terminates on the optimality certificate
    <x, g - x> >= -tol for all generators, or on reaching the origin.
    """
    k = g.shape[0]
    norms2 = np.einsum("ij,ij->i", g, g)
    start = int(np.argmin(norms2))
    corral = [start]
    lam = np.array([1.0])
    x = g[start].astype(float).copy()
    iterations = 0
    for iterations in range(1, max_iter + 1):
        xx = float(x @ x)
        if xx <= tol * tol:
            x = np.zeros_like(x)
            break
        dots = g @ x
        j = int(np.argmin(dots))
        if xx - dots[j] <= tol * max(1.0, xx):
            break
        if j in corral:
            break  # numerical stall at optimum
        corral.append(j)
        lam = np.append(lam, 0.0)
        while True:
            mu, y = _affine_min_norm(g[corral])
            if np.all(mu >= -1e-12):
                lam, x = mu, y
                break
            drop = mu < -1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(drop, lam / (lam - mu), np.inf)
            theta = float(min(1.0, np.min(ratios)))
            lam = lam + theta * (mu - lam)
            x = x + theta * (y - x)
            keep = lam > 1e-12
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            corral = [c for c, kp in zip(corral, keep) if kp]
            lam = lam[keep]
            lam = lam / lam.sum()
    xx = float(x @ x)
    residual = max(0.0, xx - float(np.min(g @ x)))
    return x, residual, iterations


def min_norm_point(s: SubdiffSet, tol: float = 1e-10, max_iter: int = 500) -> MinNormResult:
    """Nearest point of conv(G) to the origin, and distance to the full set.

    Raises MinNormNonConvergence when the certificate residual stays above
    tolerance after the iteration cap.
    """
    g = dedupe_rows(np.asarray(s.generators, dtype=float))
    x, residual, iterations = _wolfe_min_norm(g, tol=tol, max_iter=max_iter)
    xx = float(x @ x)
    if residual > 100.0 * tol * max(1.0, xx) and iterations >= max_iter:
        raise MinNormNonConvergence(x, residual, iterations)
    hull_dist = math.sqrt(xx)
    dist = max(hull_dist - s.ball_radius, 0.0)
    return MinNormResult(point=x, hull_dist=hull_dist, dist=dist,
                         residual=residual, iterations=iterations)


def hull_distance(point: np.ndarray, g: np.ndarray) -> float:
    """Distance from an arbitrary point to conv(rows of g)."""
    point = np.asarray(point, dtype=float)
    shifted = np.asarray(g, dtype=float) - point
    x, _, _ = _wolfe_min_norm(dedupe_rows(shifted))
    return float(np.linalg.norm(x))


def _hull_facets(g: np.ndarray, tol: float = _FACET_TOL):
    """Supporting facets (unit normal n, offset d with <n, gen> <= d) of a
    full-dimensional conv(g).  Enumerates hyperplanes through m-subsets."""
    k, m = g.shape
    if m == 1:
        return [(np.array([1.0]), float(g.max())),
                (np.array([-1.0]), float(-g.min()))]
    facets = []
    for subset in itertools.combinations(range(k), m):
        p = g[list(subset)]
        d_mat = p[1:] - p[0]
        _, sv, vt = np.linalg.svd(d_mat, full_matrices=True)
        smax = sv[0] if sv.size else 0.0
        rank = int(np.sum(sv > _RANK_TOL * max(1.0, smax)))
        if rank != m - 1:
            continue
        n = vt[-1]
        d = float(n @ p[0])
        vals = g @ n
        scale = max(1.0, float(np.abs(vals).max()))
        if np.all(vals <= d + tol * scale):
            facets.append((n, d))
        elif np.all(vals >= d - tol * scale):
            facets.append((-n, -d))
    return facets


def _inradius_sampled(g: np.ndarray, n_samples: int = 4096, tol: float = 1e-6):
    """Bracketed sampled minimization of the hull support over the sphere.

    Returns (value, direction) only when the bracket certifies the value to
    within tol; otherwise raises UndeterminedInradius.  Used above the
    enumeration cap (high dimension or many generators).
    """
    k, m = g.shape
    hs = unit_directions(m, n_samples, seed=0)
    vals = np.max(g @ hs.T, axis=0)
    best = int(np.argmin(vals))
    h, val = hs[best], float(vals[best])
    h, val = _refine_direction_min(lambda d: float(np.max(g @ d)), h, val)
    lip = float(np.max(np.linalg.norm(g, axis=1)))
    mesh = 4.0 * n_samples ** (-1.0 / max(1, m - 1))
    lower = val - lip * mesh
    if val - lower > tol:
        raise UndeterminedInradius(lower, val, tol)
    return val, h


def _refine_direction_min(fun, h, val, steps: int = 100):
    """Pattern search on the unit sphere: try +/- coordinate nudges,
    halving the step when nothing improves."""
    m = h.shape[0]
    delta = 0.1
    for _ in range(steps):
        improved = False
        for i in range(m):
            for sign in (1.0, -1.0):
                cand = h.copy()
                cand[i] += sign * delta
                nrm = np.linalg.norm(cand)
                if nrm == 0.0:
                    continue
                cand /= nrm
                v = fun(cand)
                if v < val - 1e-15:
                    h, val = cand, v
                    improved = True
        if not improved:
            delta *= 0.5
            if delta < 1e-12:
                break
    return h, val


def _inradius_at_origin(g: np.ndarray):
    """min over unit h of max_gen <gen, h>, valid when the origin lies on or
    inside conv(g) (value ~0 also for origin marginally outside).

    Returns (value, achieving direction).  Exact via facet enumeration when
    the subset count is tractable; sampled with brackets otherwise.
    """
    g = dedupe_rows(g)
    k, m = g.shape
    _, sv, vt = np.linalg.svd(g, full_matrices=True)
    smax = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > _RANK_TOL * max(1.0, smax)))
    if rank < m:
        # hull spans a proper subspace through the origin: support vanishes
        # along any orthogonal direction
        h = vt[rank]
        return 0.0, h / np.linalg.norm(h)
    if math.comb(k, m) <= _ENUM_CAP:
        facets = _hull_facets(g)
        if facets:
            n, d = min(facets, key=lambda f: f[1])
            return float(d), n
    return _inradius_sampled(g)


def min_support_direction(s: SubdiffSet):
    """(sigma, h) with sigma = min over unit h of support(s, h) and h the
    minimizing direction.  sigma is the signed boundary distance."""
    g = dedupe_rows(np.asarray(s.generators, dtype=float))
    res = _wolfe_min_norm(g)
    x = res[0]
    hull_dist = float(np.linalg.norm(x))
    if hull_dist > _HULL_ZERO:
        h = -x / hull_dist
        sigma_hull = -hull_dist
    else:
        sigma_hull, h = _inradius_at_origin(g)
    return sigma_hull + s.ball_radius, h


def signed_boundary_distance(s: SubdiffSet) -> float:
    """Signed distance from the origin to the boundary of the set:
    -d(0, S) outside, +d(0, bdry S) inside, 0 on the boundary.  Equals the
    minimum of the support function over the unit sphere."""
    sigma, _ = min_support_direction(s)
    return sigma


def classify_origin(s: SubdiffSet, tol: float = 1e-9) -> OriginLocation:
    """Locate the origin relative to the set at the given tolerance."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    mn = min_norm_point(s)
    if mn.dist > tol:
        return OriginLocation(OriginTag.OUTSIDE, tol)
    if signed_boundary_distance(s) > tol:
        return OriginLocation(OriginTag.INTERIOR, tol)
    return OriginLocation(OriginTag.ON_BOUNDARY, tol)


# ---------------------------------------------------------------------------
# Set calculus used by the expression and system subdifferential rules.

def scale_set(s: SubdiffSet, w: float) -> SubdiffSet:
    """w * S for w >= 0."""
    if w < 0:
        raise ValueError("scale weight must be nonnegative")
    return SubdiffSet(w * s.generators, w * s.ball_radius)


def add_sets(a: SubdiffSet, b: SubdiffSet) -> SubdiffSet:
    """Minkowski sum; generator counts multiply, so hulls are pruned when
    they get large."""
    pair = a.generators[:, None, :] + b.generators[None, :, :]
    gens = dedupe_rows(pair.reshape(-1, a.dim))
    if gens.shape[0] > 32:
        gens = prune_to_extreme(gens)
    return SubdiffSet(gens, a.ball_radius + b.ball_radius)


def adjoint_image_set(s: SubdiffSet, a_mat: np.ndarray) -> SubdiffSet:
    """{A^T u : u in S} for S in the inner space, A of shape (p, m).

    A positive inner ball radius maps to a Euclidean ball only when
    A^T A is a multiple of the identity; anything else is refused to keep
    the representation exact.
    """
    from .errors import UnsupportedSubdifferential

    a_mat = np.asarray(a_mat, dtype=float)
    gens = s.generators @ a_mat
    if s.ball_radius == 0.0:
        return SubdiffSet(dedupe_rows(gens), 0.0)
    m = a_mat.shape[1]
    gram = a_mat.T @ a_mat
    sigma2 = float(np.trace(gram)) / m
    if np.max(np.abs(gram - sigma2 * np.eye(m))) > 1e-12 * max(1.0, sigma2):
        raise UnsupportedSubdifferential(
            "affine pre-composition maps the inner ball to a non-ball; "
            "only conformal maps (A^T A = s*I) are supported with r > 0"
        )
    return SubdiffSet(dedupe_rows(gens), s.ball_radius * math.sqrt(sigma2))


def merge_active_subdiffs(parts) -> SubdiffSet:
    """conv of the union of the active children's sets (the pointwise-max
    rule).  Exact cases only:

    - all ball radii zero: union of generators;
    - every positive radius equal: union of those children's generators with
      the shared radius, provided each radius-zero child's hull lies inside;
    - otherwise the hull of the union is not of the form conv(G) + r*B and
      an UnsupportedSubdifferential error is raised.
    """
    from .errors import UnsupportedSubdifferential

    parts = list(parts)
    if not parts:
        raise ValueError("merge requires at least one set")
    dim = parts[0].dim
    ball_parts = [p for p in parts if p.ball_radius > 0.0]
    flat_parts = [p for p in parts if p.ball_radius == 0.0]
    if not ball_parts:
        gens = dedupe_rows(np.vstack([p.generators for p in parts]))
        if gens.shape[0] > 32:
            gens = prune_to_extreme(gens)
        return SubdiffSet(gens, 0.0)
    radii = np.array([p.ball_radius for p in ball_parts])
    if np.max(radii) - np.min(radii) > _DEDUPE_TOL:
        raise UnsupportedSubdifferential(
            "two distinct positive ball radii in one max node"
        )
    r = float(radii[0])
    core = dedupe_rows(np.vstack([p.generators for p in ball_parts]))
    for p in flat_parts:
        for gen in p.generators:
            if hull_distance(gen, core) > r + 1e-9:
                raise UnsupportedSubdifferential(
                    "polytope child escapes the ball-carrying child; "
                    "the union's hull is not a polytope plus a ball"
                )
    return SubdiffSet(core, r)


def prune_to_extreme(g: np.ndarray) -> np.ndarray:
    """Drop generators that are convex combinations of the others."""
    g = dedupe_rows(g)
    keep = np.ones(g.shape[0], dtype=bool)
    for i in range(g.shape[0]):
        others = g[keep & (np.arange(g.shape[0]) != i)]
        if others.shape[0] == 0:
            continue
        if hull_distance(g[i], others) <= 1e-12:
            keep[i] = False
    return g[keep]
