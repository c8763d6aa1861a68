"""Shared generators for the randomized property suites.

Expressions are generated convex-by-construction within the library's
exactly-representable subset (ball-carrying atoms never appear where a
pointwise max or a generic affine pre-composition would need an inexact
hull).  Everything is driven by seeded generators; no test draws entropy
from the environment, and hypothesis runs derandomized.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from ebstab.expressions import (
    AbsCoord,
    Affine,
    ComposeAffine,
    Const,
    EuclidNorm,
    Exp1D,
    Max,
    PosPartSquare,
    Sum,
    directional_derivative,
    evaluate,
)
from ebstab.geometry import _DEDUPE_TOL, _FACET_TOL, SubdiffSet
from ebstab.moduli import LOCAL_RADIUS
from ebstab.sampling import ball_points, unit_directions
from ebstab.sphere import _betas, with_linear_term
from ebstab.systems import FiniteFamily, active_set, materialize_sup

# every property runs the same examples on every run and machine, with no
# example database and no per-example deadline
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


def random_atom(rng, dim, allow_ball=True):
    kinds = ["affine", "abs", "posq", "affine"]
    if allow_ball:
        kinds.append("norm")
    if dim <= 2:
        kinds.append("exp")
    kind = kinds[rng.integers(len(kinds))]
    if kind == "affine":
        return Affine(rng.uniform(-2, 2, size=dim), rng.uniform(-1, 1))
    if kind == "abs":
        return AbsCoord(int(rng.integers(dim)), dim)
    if kind == "posq":
        return PosPartSquare(int(rng.integers(dim)), dim)
    if kind == "norm":
        return EuclidNorm(dim)
    return Exp1D(int(rng.integers(dim)), rng.uniform(-1, 1), dim)


def random_expr(rng, dim, depth=2, allow_ball=True):
    """A random convex expression over R^dim of the given nesting depth."""
    if depth <= 0 or rng.random() < 0.25:
        return random_atom(rng, dim, allow_ball)
    kind = ["max", "sum", "compose"][rng.integers(3)]
    if kind == "max":
        children = [
            random_expr(rng, dim, depth - 1, allow_ball=False)
            for _ in range(int(rng.integers(2, 4)))
        ]
        return Max(children)
    if kind == "sum":
        terms = [
            (rng.uniform(0, 2), random_expr(rng, dim, depth - 1, allow_ball))
            for _ in range(int(rng.integers(1, 4)))
        ]
        return Sum(terms)
    # conformal map (rotation times scale) keeps ball-carrying
    # subdifferentials exactly representable
    theta = rng.uniform(0, 2 * np.pi)
    scale = rng.uniform(0.5, 1.5)
    if dim == 1:
        mat = np.array([[scale]])
    else:
        mat = np.eye(dim)
        mat[0, 0] = np.cos(theta)
        mat[0, 1] = -np.sin(theta)
        mat[1, 0] = np.sin(theta)
        mat[1, 1] = np.cos(theta)
        mat = scale * mat
    offset = rng.uniform(-1, 1, size=dim)
    inner = random_expr(rng, dim, depth - 1, allow_ball)
    return ComposeAffine(inner, mat, offset)


def kinked_rows(rng, f, m, k=24):
    """Generic rows with kinks mixed in: the origin, zeroed coordinates,
    equal-magnitude pairs, and (for a composed root) pre-images of those
    under its affine map."""
    P = rng.normal(size=(k, m)) * 1.5
    P[1] = 0.0
    for i in range(2, k, 3):
        P[i, rng.integers(m)] = 0.0
    if m > 1:
        for i in range(3, k, 5):
            P[i, 1] = P[i, 0] * rng.choice([-1.0, 1.0])
    if isinstance(f, ComposeAffine):
        half = P[: k // 2]
        P[k // 2:] = np.linalg.solve(f.matrix, (half - f.offset).T).T
    return P


def reference_value(f, x) -> float:
    """f(x) by a plain-Python recursion over the nine node types, with
    every sum taken by math.fsum: an evaluator that shares no arithmetic
    with the library's batched value oracle."""
    x = [float(v) for v in x]
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Affine):
        return math.fsum([a * v for a, v in zip(f.a, x)] + [f.b])
    if isinstance(f, EuclidNorm):
        return math.sqrt(math.fsum(v * v for v in x))
    if isinstance(f, AbsCoord):
        return abs(x[f.index])
    if isinstance(f, Exp1D):
        return math.exp(x[f.index]) + f.shift
    if isinstance(f, PosPartSquare):
        return max(x[f.index], 0.0) ** 2
    if isinstance(f, Max):
        return max(reference_value(c, x) for c in f.children)
    if isinstance(f, Sum):
        return math.fsum(w * reference_value(e, x) for w, e in f.terms)
    if isinstance(f, ComposeAffine):
        y = [math.fsum([a * v for a, v in zip(row, x)] + [c])
             for row, c in zip(f.matrix, f.offset)]
        return reference_value(f.inner, y)
    raise TypeError(f"no reference for {type(f).__name__}")


def random_point(rng, dim, scale=1.5):
    return rng.normal(size=dim) * scale


def random_unit(rng, dim):
    h = rng.normal(size=dim)
    n = np.linalg.norm(h)
    while n < 1e-9:
        h = rng.normal(size=dim)
        n = np.linalg.norm(h)
    return h / n


def random_subdiff_set(rng, dim, max_gens=6, ball_prob=0.3):
    k = int(rng.integers(1, max_gens + 1))
    gens = rng.uniform(-3, 3, size=(k, dim))
    radius = float(rng.uniform(0.1, 1.0)) if rng.random() < ball_prob else 0.0
    return SubdiffSet(gens, radius)


def support(s, hs):
    """max over s of <., h> for every row h of hs (a single direction is
    one row)."""
    hs = np.atleast_2d(np.asarray(hs, dtype=float))
    vals = np.max(s.generators @ hs.T, axis=0)
    return vals + s.ball_radius * np.linalg.norm(hs, axis=1)


def dd_quotient_scan(f, x, h, t_grid):
    """Difference quotients (f(x + t h) - f(x)) / t along a decreasing grid
    of positive t: nonincreasing in t and bounded below by f'(x, h)."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    f0 = f._value(x)
    return [(f._value(x + t * h) - f0) / t for t in t_grid]


def max_rule_dd(fam, x, h):
    """f'(x, h) of the sup of a family by the pointwise-max rule: the max of
    the active members' directional derivatives."""
    return max(directional_derivative(fam.member(i), x, h)
               for i in active_set(fam, x).indices)


def sup_value(fam, x):
    """The sup of a family at x: the value of its Max node."""
    return evaluate(materialize_sup(fam), x)


def tilted_family(fam, u, eps, xbar):
    """The family with eps * <u, . - xbar> added to every member, labels
    kept."""
    u = np.asarray(u, dtype=float)
    a, b = eps * u, -eps * float(u @ np.asarray(xbar, dtype=float))
    return FiniteFamily([with_linear_term(m, a, b) for m in fam.members],
                        labels=fam.labels)


def _tangent_chart(h):
    """Orthonormal basis of the tangent space at unit vector h."""
    m = h.shape[0]
    mat = np.eye(m) - np.outer(h, h)
    q, r = np.linalg.qr(mat)
    return np.array([q[:, i] for i in range(m) if abs(r[i, i]) > 1e-10][: m - 1])


def refine_sphere_min(value_batch, h0, val0, nm_iters=1500, scale=0.1,
                      stop_below=None):
    """Refine a sampled sphere minimum to high precision (test-side oracle).

    Nelder-Mead on a tangent chart at the incumbent: the adaptive simplex
    follows the curved narrow valleys that max-of-linear support functions
    produce, where fixed pattern probes stall.  stop_below, when given,
    ends the search as soon as the value drops under it."""
    m = h0.shape[0]
    if m == 1:
        cands = np.array([[1.0], [-1.0]])
        vals = value_batch(cands)
        j = int(np.argmin(vals))
        return cands[j], float(vals[j])

    h, val = h0.copy(), float(val0)
    for _ in range(4):  # re-center the chart a few times
        if stop_below is not None and val <= stop_below:
            break
        prev_val = val
        basis = _tangent_chart(h)
        d = basis.shape[0]

        def to_sphere(y):
            v = h + y @ basis
            return v / np.linalg.norm(v)

        def fun(y):
            return float(value_batch(to_sphere(y)[None, :])[0])

        simplex = [np.zeros(d)]
        simplex += [scale * np.eye(d)[i] for i in range(d)]
        fvals = [fun(y) for y in simplex]
        for _ in range(nm_iters):
            order = np.argsort(fvals)
            simplex = [simplex[i] for i in order]
            fvals = [fvals[i] for i in order]
            if fvals[-1] - fvals[0] < 1e-15 * (1.0 + abs(fvals[0])):
                break
            centroid = np.mean(simplex[:-1], axis=0)
            refl = centroid + (centroid - simplex[-1])
            f_refl = fun(refl)
            if f_refl < fvals[0]:
                expd = centroid + 2.0 * (centroid - simplex[-1])
                f_expd = fun(expd)
                if f_expd < f_refl:
                    simplex[-1], fvals[-1] = expd, f_expd
                else:
                    simplex[-1], fvals[-1] = refl, f_refl
            elif f_refl < fvals[-2]:
                simplex[-1], fvals[-1] = refl, f_refl
            else:
                contr = centroid + 0.5 * (simplex[-1] - centroid)
                f_contr = fun(contr)
                if f_contr < fvals[-1]:
                    simplex[-1], fvals[-1] = contr, f_contr
                else:
                    simplex = [simplex[0] + 0.5 * (y - simplex[0]) for y in simplex]
                    fvals = [fvals[0]] + [fun(y) for y in simplex[1:]]
        best = int(np.argmin(fvals))
        cand = to_sphere(simplex[best])
        cand_val = float(value_batch(cand[None, :])[0])
        if cand_val < val:
            h, val = cand, cand_val
        scale *= 0.1
        if prev_val - val < 1e-13 * (1.0 + abs(val)):
            break
    return h, val


def refine_sphere_min_multi(value_batch, hs, vals, starts=8, verify_at=None):
    """Multi-start refinement: the support landscape of an interior origin
    has one basin per facet, so refine from several spread-out low points
    and keep the best.  The best-sample start always runs a full budget;
    once the value verifies at verify_at, the remaining starts are skipped.
    """
    order = np.argsort(vals)
    picked = []
    for idx in order:
        h = hs[idx]
        if all(float(h @ hs[j]) < 0.95 for j in picked):
            picked.append(int(idx))
        if len(picked) >= starts:
            break
    best_h, best_val = refine_sphere_min(value_batch, hs[picked[0]],
                                         float(vals[picked[0]]))
    for idx in picked[1:]:
        if verify_at is not None and best_val <= verify_at:
            break
        h, val = refine_sphere_min(value_batch, hs[idx], float(vals[idx]),
                                   stop_below=verify_at)
        if val < best_val:
            best_h, best_val = h, val
    return best_h, best_val


def beta_sampled(f, x, n, seed=0):
    """Sampling oracle for beta: the least f'(x, h) over n unit_directions,
    refined on the sphere from the best of them.  Every value it returns is
    f'(x, .) at a unit direction, so it bounds beta from above."""
    x = np.asarray(x, dtype=float)
    hs = unit_directions(f.dim, n, seed)
    vals = f._dd_batch(x, hs)
    best = int(np.argmin(vals))
    return refine_sphere_min(lambda c: f._dd_batch(x, c), hs[best],
                             vals[best])[1]


def dedupe_rows_reference(g):
    """geometry.dedupe_rows as a loop over the kept rows: a row is kept when
    its sup-norm distance to every row kept before it exceeds
    _DEDUPE_TOL."""
    keep = []
    for i in range(g.shape[0]):
        if all(np.max(np.abs(g[i] - g[j])) > _DEDUPE_TOL for j in keep):
            keep.append(i)
    return g[keep]


def polar_rays_reference(g):
    """geometry._polar_rays with its positive rays cut into blocks by
    np.split, as the double description first walked them; an empty set
    of positive rays still makes one empty block."""
    k, m = g.shape
    a = np.vstack([np.column_stack([g / np.max(np.abs(g)), -np.ones(k)]),
                   -np.eye(1, m + 1, m)])
    basis, q = [k], a[k:]
    for _ in range(m):
        r = a - (a @ q.T) @ q
        basis.append(int(np.argmax(np.linalg.norm(r, axis=1))))
        q = np.vstack([q, r[basis[-1]] / np.linalg.norm(r[basis[-1]])])
    rays = -np.linalg.inv(a[basis]).T
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    tight = ~np.eye(m + 1, dtype=bool)
    for i in sorted(set(range(k + 1)) - set(basis)):
        s = rays @ a[i]
        pos, neg = s > _FACET_TOL, s < -_FACET_TOL
        zf = tight.astype(float)
        rows, tights = [rays[~pos]], [tight[~pos]]
        idx = np.flatnonzero(pos)
        for blk in np.split(idx, range(zf.shape[1], idx.size, zf.shape[1])):
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


def eta_local_levels_reference(f, xbar, levels, per_level, seed_base):
    """eta_local's shrink levels drawn one level at a time: one ball draw,
    one value screen and one beta pass per level, each level's ball at
    seed seed_base + k; the distance is -beta where beta < 0, else 0."""
    recs = []
    for k in range(levels):
        radius = LOCAL_RADIUS * 2.0 ** (-k)
        pts = ball_points(xbar, radius, per_level, seed_base + k)
        b = _betas(f, pts[f._value_batch(pts) > 0.0])
        recs.append((radius, float(np.min(np.where(b < 0.0, -b, 0.0)))
                     if b.shape[0] else None))
    return recs


@pytest.fixture
def rng():
    return np.random.default_rng(0)
