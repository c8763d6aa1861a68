"""Error-bound modulus estimation and stability verdicts.

The global modulus is driven by eta = inf of d(0, subdifferential) over
infeasible points and its reciprocal tau = 1/eta; the local version uses
the liminf near a reference boundary point.  Sampling is box-relative and
every report says so.  Stability verdicts combine the boundary infimum of
|beta| with a qualification-condition witness search over strictly
feasible points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NoSignChangeInBox, NoSlaterPoint, PreconditionError
from .expressions import ConvexExpr, _row_dot, _row_sq, as_point, subdifferential
from .geometry import MIN_NORM_TOL, dedupe_rows, min_norm_point
from .sampling import ball_points, box_points
from .sphere import ZERO_TOL, BetaCertificate, beta

FEAS_TOL = 1e-10
BOUNDARY_VALUE_TOL = 1e-9


@dataclass
class ModulusReport:
    """eta / tau estimates with sampling provenance.

    eta_estimate may be +inf (vacuous: no infeasible sample seen), in which
    case tau_estimate is 0; tau_estimate may be +inf when eta collapses to
    zero.  empirical_ratio is the sampled sup of d(x, S) / f(x) over
    infeasible points (global reports only).  sample_count is the number
    of points behind the reported estimates: after a local resample, that
    of the second run.
    """

    kind: str                      # "local" or "global"
    eta_estimate: float
    tau_estimate: float
    sample_count: int
    reference_point: np.ndarray | None = None
    box: tuple | None = None
    shrink_levels: list = field(default_factory=list)
    empirical_ratio: float | None = None
    vacuous: bool = False
    seed: int = 0
    notes: str = ""

    def payload(self) -> dict:
        out = {
            "kind": self.kind,
            "eta": self.eta_estimate,
            "tau": self.tau_estimate,
            "sample_count": self.sample_count,
            "vacuous": self.vacuous,
            "seed": self.seed,
            "notes": self.notes,
        }
        if self.reference_point is not None:
            out["reference_point"] = list(map(float, self.reference_point))
        if self.box is not None:
            out["box"] = [list(map(float, self.box[0])),
                          list(map(float, self.box[1]))]
        if self.shrink_levels:
            out["shrink_levels"] = [
                {"radius": r, "min_subdiff_dist": d} for r, d in self.shrink_levels
            ]
        if self.empirical_ratio is not None:
            out["empirical_ratio"] = self.empirical_ratio
        return out


@dataclass
class QCWitness:
    """A strictly feasible point with vanishing relative slope toward the
    boundary but |beta| below the threshold."""

    z: np.ndarray
    x: np.ndarray
    ratio: float
    beta_z: float

    def payload(self) -> dict:
        return {
            "z": list(map(float, self.z)),
            "x": list(map(float, self.x)),
            "ratio": self.ratio,
            "beta_z": self.beta_z,
        }


@dataclass
class StabilityVerdict:
    scope: str                     # "local" or "global"
    verdict: str                   # "stable" | "unstable" | "undetermined"
    beta_inf: float
    qc_witnesses: list = field(default_factory=list)
    perturbation_direction: np.ndarray | None = None
    reference_point: np.ndarray | None = None
    tau: float | None = None
    box: tuple | None = None
    notes: str = ""

    def payload(self) -> dict:
        out = {
            "scope": self.scope,
            "verdict": self.verdict,
            "beta_inf": self.beta_inf,
            "witnesses": [w.payload() for w in self.qc_witnesses],
            "notes": self.notes,
        }
        if self.perturbation_direction is not None:
            out["perturbation_direction"] = list(map(float, self.perturbation_direction))
        if self.reference_point is not None:
            out["reference_point"] = list(map(float, self.reference_point))
        if self.tau is not None:
            out["tau"] = self.tau
        if self.box is not None:
            out["box"] = [list(map(float, self.box[0])),
                          list(map(float, self.box[1]))]
        return out


@dataclass
class BoundarySample:
    """Points on the zero level set, each found by a boundary search on a
    segment (``_bisect_to_boundary``)."""

    points: np.ndarray
    value_tol: float

    def payload(self) -> dict:
        return {
            "count": int(self.points.shape[0]),
            "value_tol": self.value_tol,
            "points": [list(map(float, p)) for p in self.points],
        }


@dataclass
class Condition39Result:
    holds: bool
    inf_abs_beta: float
    worst_point: np.ndarray
    tau: float

    def payload(self) -> dict:
        return {
            "holds": self.holds,
            "inf_abs_beta": self.inf_abs_beta,
            "worst_point": list(map(float, self.worst_point)),
            "tau": self.tau,
        }


def _as_box(box, dim: int):
    lo = np.atleast_1d(np.asarray(box[0], dtype=float))
    hi = np.atleast_1d(np.asarray(box[1], dtype=float))
    if lo.shape[0] != dim or hi.shape[0] != dim:
        raise ValueError(f"box must have {dim} axes")
    if np.any(hi <= lo):
        raise ValueError("box upper bounds must exceed lower bounds")
    return lo, hi


def find_slater_point(f: ConvexExpr, box, n: int = 1024, seed: int = 0) -> np.ndarray:
    """Scan the box for the most strictly feasible point (f < 0)."""
    lo, hi = _as_box(box, f.dim)
    pts = box_points(lo, hi, n, seed)
    vals = f._value_batch(pts)
    best = int(np.argmin(vals))
    if vals[best] >= 0.0:
        raise NoSlaterPoint("no point with f < 0 found in the search box")
    return pts[best]


def _strictly_feasible(f: ConvexExpr, slater) -> np.ndarray:
    s = as_point(slater, f.dim)
    if f._value(s) >= 0.0:
        raise NoSlaterPoint("declared slater point is not strictly feasible")
    return s


def _bisect_to_boundary(f: ConvexExpr, pos_pts, neg_pts, max_iter,
                        rel_width: float = 1e-15):
    """Zero crossings on k segments, each from an infeasible point a (row
    of pos_pts) to a feasible one b (row of neg_pts), found in lock-step
    by a convex bracketing search.  The name is kept from the bisection it
    replaced, because the contract is the same and the bench tracer times
    the search under that name.

    On a segment, phi(t) = f(a + t (b - a)) is convex, so its feasible
    part is an interval [r, 1] and the chord through the bracket ends
    (tl, th), phi(tl) > 0 >= phi(th), lies above phi: the chord root is on
    the feasible side.  The secant through the last two infeasible ends
    lies below phi beyond them, so its root is on the infeasible side.
    Each round evaluates, in one batched value call, five points per row:
    the chord root, the secant root (the midpoint until the infeasible
    end has moved once), a closing probe half the goal width inside
    each of those two, and the midpoint (Dekker and Brent's safeguard).
    The new bracket is built from each candidate's computed sign, never
    from what convexity predicts, and the midpoint at least halves it.
    An affine piece closes in one round.

    The ends are evaluated once, in one batch.  Row i runs at most
    max_iter[i] rounds (a scalar applies to every row) and stops once
    its bracket is no wider than rel_width times one plus its initial
    length.  Returns (points, steps): each point is the bracket's
    evaluated feasible end, so its bracket is never wider than that of
    bisection with as many steps; steps is the total number of point
    evaluations, the ends included.  A row whose start is feasible returns
    the start, and a row whose end is infeasible returns the end,
    unsearched.
    """
    a = np.asarray(pos_pts, dtype=float)
    b = np.asarray(neg_pts, dtype=float)
    left = np.broadcast_to(np.asarray(max_iter, dtype=int), a.shape[:1]).copy()
    span = np.linalg.norm(b - a, axis=1)
    tol = rel_width * (1.0 + span)
    out = b.copy()
    rows = np.flatnonzero(left > 0)
    if not rows.size:
        return out, 0
    a, b, span, tol, left = a[rows], b[rows], span[rows], tol[rows], left[rows]
    k = rows.size
    ends = f._value_batch(np.concatenate([a, b]))
    fl, fh = ends[:k], ends[k:]
    steps = 2 * k
    start = fl <= 0.0
    out[rows[start]] = a[start]
    keep = (fl > 0.0) & (fh <= 0.0) & (span > tol)
    rows, a, b, span, tol, left, fl, fh = (
        rows[keep], a[keep], b[keep], span[keep], tol[keep], left[keep],
        fl[keep], fh[keep])
    d = b - a
    width = tol / span                     # the goal width, in units of t
    tl, th = np.zeros(rows.size), np.ones(rows.size)
    ph = b
    t0, f0 = tl.copy(), fl.copy()          # the infeasible end before tl
    while rows.size:
        n = np.arange(rows.size)
        mid = 0.5 * (tl + th)
        chord = tl + (th - tl) * (fl / (fl - fh))
        drop = f0 - fl
        bent = drop > 0.0
        secant = tl + (tl - t0) * fl / np.where(bent, drop, 1.0)
        secant = np.where(bent & (secant < th), secant, mid)
        T = np.clip(np.stack([chord, secant, chord - 0.5 * width,
                              secant + 0.5 * width, mid], axis=1),
                    tl[:, None], th[:, None])
        P = a[:, None, :] + T[:, :, None] * d[:, None, :]
        V = f._value_batch(P.reshape(-1, a.shape[1])).reshape(T.shape)
        steps += V.size
        # the feasible end: the first feasible candidate, if below th
        feas = np.where(V <= 0.0, T, np.inf)
        j = np.argmin(feas, axis=1)
        up = feas[n, j] < th
        th = np.where(up, feas[n, j], th)
        fh = np.where(up, V[n, j], fh)
        ph = np.where(up[:, None], P[n, j], ph)
        # the infeasible end: the last infeasible candidate below th; the
        # end it replaces carries the next secant (a candidate between them
        # may sit too close to the new end for a stable slope)
        infeas = np.where((V > 0.0) & (T < th[:, None]), T, -np.inf)
        j = np.argmax(infeas, axis=1)
        up = infeas[n, j] > tl
        t0 = np.where(up, tl, t0)
        f0 = np.where(up, fl, f0)
        tl = np.where(up, infeas[n, j], tl)
        fl = np.where(up, V[n, j], fl)
        left -= 1
        done = (left == 0) | (th - tl <= width)
        if done.any():
            out[rows[done]] = ph[done]
            keep = ~done
            rows, a, d, width, left = (
                rows[keep], a[keep], d[keep], width[keep], left[keep])
            tl, th, fl, fh, ph, t0, f0 = (
                tl[keep], th[keep], fl[keep], fh[keep], ph[keep],
                t0[keep], f0[keep])
    return out, steps


def distance_to_solution_set(f: ConvexExpr, x, slater=None, box=None,
                             seed: int = 0) -> float:
    """Upper-bounding estimate of d(x, {f <= 0}).

    Subgradient-projection steps (Polyak, or a two-plane Newton step where
    two pieces zigzag) pull x toward the nearest part of the solution set;
    a convex bracketing search (``_bisect_to_boundary``: chord, secant and
    midpoint candidates in each round) from x toward that point, or toward
    a strictly feasible anchor, gives a boundary point z on the feasible
    side.  When x - z lies in the normal cone at z, an exact cone test, z
    is the projection and the distance is final; otherwise a tangential
    polish improves z until successive estimates agree to 1e-8.  Always an
    overestimate by construction.  The slater point is validated when
    given, else found by scanning the box.
    This is the one-point case of ``_distances``; the answer for a point
    does not depend on the other points of a batch.
    """
    x = as_point(x, f.dim)
    if f._value(x) <= 0.0:
        return 0.0
    if slater is not None:
        s = _strictly_feasible(f, slater)
    else:
        if box is None:
            box = (np.full(f.dim, -10.0), np.full(f.dim, 10.0))
        s = find_slater_point(f, box, seed=seed)
    return float(_distances(f, x[None], s)[0])


def _distances(f: ConvexExpr, X: np.ndarray, s: np.ndarray) -> np.ndarray:
    """distance_to_solution_set for every row of X, with strictly feasible
    anchor s: ``_bounds`` on every row, then ``_refine`` on every
    infeasible row.  Each row's result depends on that row alone."""
    out = np.zeros(X.shape[0])
    rows, x, z, ub = _bounds(f, X, s)
    if rows.size:
        out[rows] = _refine(f, x, z, ub, s)
    return out


def _bounds(f: ConvexExpr, X: np.ndarray, s: np.ndarray):
    """Upper bounds on the distances of the rows of X to the solution set,
    as stages over all infeasible rows at once:

    1. value screen: feasible rows have distance 0;
    2. lock-step pull toward the solution set (``_pull_to_solution_set``);
    3. rows pulled to 0 < f <= FEAS_TOL search to the boundary from
       there, which gives them a feasible anchor; rows left outside use s;
    4. one lock-step boundary search (``_bisect_to_boundary``, a convex
       bracketing search) from each row to its anchor gives a feasible
       boundary point z.

    Returns (rows, x, z, ub): the infeasible rows of X by index, their
    points, their boundary points and ub = ||x - z||.  ``_refine`` only
    ever lowers ub.
    """
    rows = np.flatnonzero(f._value_batch(X) > 0.0)
    x = X[rows]
    if not rows.size:
        return rows, x, x, np.zeros(0)
    y = _pull_to_solution_set(f, x)
    fy = f._value_batch(y)
    near = fy <= FEAS_TOL
    anchor = np.where(near[:, None], y, s)
    lift = np.flatnonzero(near & (fy > 0.0))
    if lift.size:
        anchor[lift], _ = _bisect_to_boundary(
            f, y[lift], np.broadcast_to(s, (lift.size, f.dim)), 100)
    z, _ = _bisect_to_boundary(f, x, anchor, 100)
    return rows, x, z, np.sqrt(_row_sq(x - z))


def _refine(f: ConvexExpr, x: np.ndarray, z: np.ndarray, ub: np.ndarray,
            s: np.ndarray) -> np.ndarray:
    """The distances of the rows of x from their ``_bounds`` output:

    5. rows where x - z passes the normal-cone test at z keep ub
       (``_certified``);
    6. only the rest run the tangential polish (``_polish_steps``), whose
       infeasible probes of a round share one lock-step boundary search.

    Never above ub.  Each row's result depends on that row alone.
    """
    best = ub.copy()
    if f.dim == 1:
        return best
    waiting = []

    def advance(i, run, sent):
        try:
            waiting.append((i, run, run.send(sent)))
        except StopIteration as stop:
            best[i] = stop.value

    for i in np.flatnonzero(~_certified(f, x, z)):
        advance(i, _polish_steps(f, x[i], z[i], best[i], s), None)
    while waiting:
        batch, waiting = waiting, []
        pos, neg, max_iter = zip(*(request for _, _, request in batch))
        points, _ = _bisect_to_boundary(f, pos, neg, max_iter)
        for (i, run, _), point in zip(batch, points):
            advance(i, run, point)
    return best


def _max_ratio(f: ConvexExpr, X: np.ndarray, vals: np.ndarray,
               s: np.ndarray) -> float:
    """max over rows of ``_distances(f, X, s) / vals`` for infeasible rows
    X with values vals, bounding every row and refining only the rows that
    can still set the maximum.

    The row with the largest bound ratio ub / vals is refined first, which
    gives a ratio R that the maximum reaches; then, in one batch, every
    other row whose bound ratio exceeds R.  A skipped row's distance is at
    most its ub, so its ratio is at most R, and the maximum is exactly that
    of the full computation.
    """
    _, x, z, ub = _bounds(f, X, s)
    bound = ub / vals
    top = int(np.argmax(bound))
    dist = ub.copy()
    dist[top] = _refine(f, x[top:top + 1], z[top:top + 1], ub[top:top + 1], s)[0]
    more = np.flatnonzero(bound > dist[top] / vals[top])
    more = more[more != top]
    if more.size:
        dist[more] = _refine(f, x[more], z[more], ub[more], s)
    return float(np.max(dist / vals))


def _polish_steps(f: ConvexExpr, x: np.ndarray, best_pt: np.ndarray,
                  best: float, s: np.ndarray):
    """Tangential polish of the boundary point best_pt (at distance best
    from x) as a generator: each boundary search from an infeasible probe
    is yielded as (infeasible point, feasible point, max_iter) and its
    boundary point is sent back; the distance is the return value.
    Infeasible probes are pulled back through a strictly feasible point
    close to the current boundary point so the search stays local."""
    prev = math.inf
    for _ in range(12):
        if prev - best < 1e-8:
            break
        prev = best
        ray = best_pt - x
        span = np.linalg.norm(ray)
        if span < 1e-15:
            break
        inner = best_pt + 1e-2 * (s - best_pt)
        if f._value(inner) >= 0.0:
            inner = s
        basis = _tangent_basis(ray / span)
        step = 0.25 * span
        budget = 40
        while step > 1e-6 * (1.0 + span) and budget > 0:
            improved = False
            for t_dir in basis:
                for sign in (1.0, -1.0):
                    budget -= 1
                    cand = best_pt + sign * step * t_dir
                    if f._value(cand) > 0.0:
                        cand = yield cand, inner, 40
                    d = float(np.linalg.norm(x - cand))
                    if d < best - 1e-12:
                        best, best_pt = d, cand
                        improved = True
            if not improved:
                step *= 0.5
        if _projection_certified(f, x, best_pt):
            break
    return best


def _pull_to_solution_set(f: ConvexExpr, X: np.ndarray) -> np.ndarray:
    """Drive f below FEAS_TOL at every row of X by subgradient-projection
    steps, all rows in lock-step; each row stops on its own.

    Plain Polyak steps zigzag slowly between two nearly-antipodal active
    pieces, so when a row has two distinct linearizations (this step's and
    the last one's) it solves both cut constraints at once (a two-plane
    Newton step), falling back to the Polyak step unless that halves the
    violation.  Each round takes one batched value call, one batched
    minimum-norm subgradient and one value call on the Newton candidates.
    """
    Y = np.array(X, dtype=float)
    k = Y.shape[0]
    g0, y0 = np.zeros_like(Y), np.zeros_like(Y)
    f0 = np.zeros(k)
    has_prev = np.zeros(k, dtype=bool)
    rows = np.arange(k)
    for _ in range(400):
        fy = f._value_batch(Y[rows])
        go = fy > FEAS_TOL
        rows, fy = rows[go], fy[go]
        if not rows.size:
            break
        y = Y[rows]
        g, scalar = _gradient_screen(f, y)
        for i in scalar:
            g[i] = min_norm_point(f._subdiff(y[i])).point
        gg = _row_sq(g)
        go = gg >= 1e-28
        rows, fy, y, g, gg = rows[go], fy[go], y[go], g[go], gg[go]
        if not rows.size:
            break
        a0, a00, a01 = g0[rows], _row_sq(g0[rows]), _row_dot(g0[rows], g)
        det = a00 * gg - a01 * a01
        newton = has_prev[rows] & (det > 1e-12 * np.maximum(1e-30, a00 * gg))
        step = (fy / gg)[:, None] * g
        if newton.any():
            n = np.flatnonzero(newton)
            # the 2x2 system gram @ c = (f0 + <g0, y - y0>, f(y)) for the
            # coefficients c of the step along (g0, g)
            r0 = f0[rows[n]] + _row_dot(a0[n], y[n] - y0[rows[n]])
            r1 = fy[n]
            c0 = (gg[n] * r0 - a01[n] * r1) / det[n]
            c1 = (a00[n] * r1 - a01[n] * r0) / det[n]
            delta = c0[:, None] * a0[n] + c1[:, None] * g[n]
            ok = f._value_batch(y[n] - delta) < 0.5 * fy[n]
            step[n[ok]] = delta[ok]
        g0[rows], y0[rows], f0[rows] = g, y, fy
        has_prev[rows] = True
        Y[rows] = y - step
    return Y


def _nnls_residual(gens: np.ndarray, target: np.ndarray) -> float:
    """Residual of min over lam >= 0 of ||gens.T lam - target||, the distance
    from target to the cone spanned by the rows of gens.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23): free the generator with the largest positive gradient
    component, solve least squares on the free set, and step back along
    the segment to the last feasible point whenever a free coefficient
    turns nonpositive.  Finite, so exact up to rounding; the outer loop is
    capped at 3k rounds so that rounding cannot make it cycle.
    """
    a = gens.T
    k = gens.shape[0]
    lam = np.zeros(k)
    free = np.zeros(k, dtype=bool)
    fp = np.finfo(float)
    # rounding noise in the gradient w, which is zero on the free set
    tol = (10.0 * max(a.shape) * fp.eps * max(1.0, float(np.max(np.abs(a))))
           * max(1.0, float(np.linalg.norm(target))))
    for _ in range(3 * k):
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
    return float(np.linalg.norm(a @ lam - target))


def _projection_certified(f: ConvexExpr, x: np.ndarray, z: np.ndarray) -> bool:
    """True when z provably is the projection of x onto the solution set:
    the ray from z back to x lies in the normal cone at z, which is the
    cone spanned by the subdifferential there (an exact NNLS cone test)."""
    ray = x - z
    span = float(np.linalg.norm(ray))
    if span < 1e-15:
        return True
    s = subdifferential(f, z)
    if s.ball_radius != 0.0:
        return False
    gens = dedupe_rows(s.generators)
    unit = ray / span
    if gens.shape[0] == 1:
        g = gens[0]
        gn = float(np.linalg.norm(g))
        return gn > 1e-15 and float(unit @ g) / gn >= 1.0 - 1e-10
    return _nnls_residual(gens, unit) <= 1e-8


def _certified(f: ConvexExpr, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """_projection_certified for every row pair of X and Z.  Where f is
    differentiable at z the normal cone is the ray of the gradient, so the
    test is a cosine; only kink rows build a subdifferential."""
    ray = X - Z
    span = np.sqrt(_row_sq(ray))
    G, kink = f._grad_batch(Z)
    gn = np.sqrt(_row_sq(G))
    unit = ray / np.where(span > 0.0, span, 1.0)[:, None]
    cos = _row_dot(unit, G) / np.where(gn > 1e-15, gn, 1.0)
    out = (span < 1e-15) | ((gn > 1e-15) & (cos >= 1.0 - 1e-10))
    for i in np.flatnonzero((kink | ~np.isfinite(gn)) & (span >= 1e-15)):
        out[i] = _projection_certified(f, X[i], Z[i])
    return out


def _tangent_basis(unit_ray: np.ndarray) -> list:
    """Orthonormal basis of the hyperplane orthogonal to unit_ray."""
    m = unit_ray.shape[0]
    if m == 1:
        return []
    mat = np.eye(m) - np.outer(unit_ray, unit_ray)
    q, r = np.linalg.qr(mat)
    cols = [q[:, i] for i in range(m) if abs(r[i, i]) > 1e-10]
    return cols[: m - 1]


def boundary_sample(f: ConvexExpr, box, n: int, seed: int = 0) -> BoundarySample:
    """n points on the boundary of the solution set via a boundary search
    on segments between sampled infeasible and strictly feasible points."""
    lo, hi = _as_box(box, f.dim)
    pool = box_points(lo, hi, max(4 * n, 256), seed)
    vals = f._value_batch(pool)
    feas = pool[vals < 0.0]
    infeas = pool[vals > 0.0]
    if feas.shape[0] == 0 or infeas.shape[0] == 0:
        raise NoSignChangeInBox(
            "box must contain both a point with f < 0 and one with f > 0"
        )
    i = np.arange(n)
    points, _ = _bisect_to_boundary(f, infeas[i % infeas.shape[0]],
                                    feas[(3 + 7 * i) % feas.shape[0]], 100)
    return BoundarySample(points=points, value_tol=BOUNDARY_VALUE_TOL)


def _subdiff_dist(f: ConvexExpr, x: np.ndarray) -> float:
    return min_norm_point(f._subdiff(x)).dist


def _gradient_screen(f: ConvexExpr, P: np.ndarray):
    """The minimum-norm subgradient at every row of P where f is
    differentiable, and the rows that need the scalar path.

    There the subdifferential is the gradient alone, its own minimum-norm
    point (the origin at or below min_norm_point's tolerance, as Wolfe
    reports it).  Rows the gradient oracle marks as kinks, rows with a
    non-finite gradient and rows whose norm sits at that tolerance are
    returned by index for the scalar subdifferential and Wolfe, with their
    exact geometry and their errors.  Each row depends on that row alone.
    """
    G, kink = f._grad_batch(P)
    gg = _row_sq(G)
    tol2 = MIN_NORM_TOL ** 2
    scalar = kink | ~np.isfinite(gg) | (np.abs(gg - tol2) <= 1e-12 * tol2)
    return np.where((gg <= tol2)[:, None], 0.0, G), np.flatnonzero(scalar)


def _subdiff_dists(f: ConvexExpr, P: np.ndarray) -> np.ndarray:
    """_subdiff_dist for every row of P, each row independent of the rest:
    the gradient norm where ``_gradient_screen`` can give it."""
    G, scalar = _gradient_screen(f, P)
    out = np.sqrt(_row_sq(G))
    for i in scalar:
        out[i] = _subdiff_dist(f, P[i])
    return out


def eta_local(f: ConvexExpr, xbar, levels: int = 8,
              samples_per_level: int = 256, seed: int = 0,
              delta0: float = 1.0) -> ModulusReport:
    """liminf estimate of d(0, subdifferential) over infeasible points
    approaching xbar, via geometrically shrinking sampling balls.

    Each level screens its samples with one batched value call and takes
    all their distances in one batched gradient pass; only samples on a
    kink of f (where it may not be differentiable) build a subdifferential
    and run Wolfe's minimum-norm scheme.
    """
    xbar = as_point(xbar, f.dim)
    if abs(f._value(xbar)) > BOUNDARY_VALUE_TOL:
        raise PreconditionError(
            f"reference point must satisfy f = 0 within {BOUNDARY_VALUE_TOL:g}, "
            f"got {f._value(xbar):.3g}"
        )

    def run(sample_count, seed_base):
        recs = []
        for k in range(levels):
            radius = delta0 * 2.0 ** (-k)
            pts = ball_points(xbar, radius, sample_count, seed_base + k)
            infeas = pts[f._value_batch(pts) > 0.0]
            recs.append((radius, float(np.min(_subdiff_dists(f, infeas)))
                         if infeas.shape[0] else None))
        return recs

    per_level = samples_per_level
    recorded = run(per_level, seed)
    notes = "estimates are relative to sampled shrinking balls"
    # liminf semantics: finer nested levels should not sit above coarser ones
    finite = [(r, d) for r, d in recorded if d is not None]
    if finite:
        coarse_min = min(d for _, d in finite)
        fine = finite[-1][1]
        if fine > coarse_min + 1e-9:
            per_level = 2 * samples_per_level
            recorded = run(per_level, seed + 1000)
            finite = [(r, d) for r, d in recorded if d is not None]
            notes += "; resampled after non-monotone shrink"

    last_two_empty = all(d is None for _, d in recorded[-2:])
    if not finite or last_two_empty:
        eta = math.inf
        tau = 0.0
        vacuous = True
        notes += "; no infeasible samples near the reference point"
    else:
        eta = finite[-1][1]
        tau = math.inf if eta == 0.0 else 1.0 / eta
        vacuous = False
    return ModulusReport(
        kind="local",
        eta_estimate=eta,
        tau_estimate=tau,
        sample_count=levels * per_level,
        reference_point=xbar,
        shrink_levels=recorded,
        vacuous=vacuous,
        seed=seed,
        notes=notes,
    )


def eta_global(f: ConvexExpr, box, n: int, seed: int = 0,
               slater=None) -> ModulusReport:
    """Box-truncated estimate of inf d(0, subdifferential) over infeasible
    points, with the empirical sup of d(x, S)/f(x) over the same samples.

    The sup is bound-then-refine (``_max_ratio``): every infeasible sample
    gets an upper bound on its distance from one batched pass, and only
    the samples whose bound could still set the sup are certified and
    polished.  The sup equals the maximum over fully refined distances.
    """
    lo, hi = _as_box(box, f.dim)
    pts = box_points(lo, hi, n, seed)
    vals = f._value_batch(pts)
    infeasible = vals > 0.0
    infeas, infeas_vals = pts[infeasible], vals[infeasible]
    notes = f"estimates are relative to the sampled box"
    if infeas.shape[0] == 0:
        return ModulusReport(
            kind="global",
            eta_estimate=math.inf,
            tau_estimate=0.0,
            sample_count=n,
            box=(lo, hi),
            vacuous=True,
            seed=seed,
            notes=notes + "; no infeasible samples (vacuous bound)",
        )
    eta = float(np.min(_subdiff_dists(f, infeas)))

    if slater is None:
        feas_vals = vals[vals < 0.0]
        if feas_vals.shape[0] > 0:
            slater = pts[vals < 0.0][int(np.argmin(feas_vals))]
    ratio = None
    if slater is not None:
        s = _strictly_feasible(f, slater)
        ratio = _max_ratio(f, infeas, infeas_vals, s)
        if eta > 0.0 and ratio > 1.0001 / eta:
            # the ratio evidence itself bounds eta from above; reconcile
            eta = 1.0 / ratio
            notes += "; eta tightened by the empirical ratio"
    else:
        notes += "; no feasible sample, empirical ratio unavailable"
    tau = math.inf if eta == 0.0 else 1.0 / eta
    return ModulusReport(
        kind="global",
        eta_estimate=eta,
        tau_estimate=tau,
        sample_count=n,
        box=(lo, hi),
        empirical_ratio=ratio,
        seed=seed,
        notes=notes,
    )


def check_condition_3_9(f: ConvexExpr, tau: float,
                        boundary: BoundarySample) -> Condition39Result:
    """Infimum of |beta| over sampled boundary points against the threshold."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if boundary.points.shape[0] == 0:
        raise ValueError("boundary sample must be nonempty")
    worst_val = math.inf
    worst_pt = boundary.points[0]
    for p in boundary.points:
        b = abs(beta(f, p).beta)
        if b < worst_val:
            worst_val, worst_pt = b, p
    return Condition39Result(
        holds=worst_val > tau,
        inf_abs_beta=worst_val,
        worst_point=worst_pt,
        tau=tau,
    )


def qc_witness_search(f: ConvexExpr, tau: float, box, n: int, seed: int = 0,
                      flag_threshold: float = 0.1) -> list[QCWitness]:
    """Hunt for qualification-condition violations: strictly feasible points
    whose relative slope to the nearest sampled boundary point vanishes
    while |beta| stays below tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    lo, hi = _as_box(box, f.dim)
    boundary = boundary_sample(f, box, max(16, n // 8), seed + 1)
    boundary_vals = f._value_batch(boundary.points)
    pts = box_points(lo, hi, n, seed)
    vals = f._value_batch(pts)
    feasible = vals < 0.0
    witnesses = []
    for z, fz in zip(pts[feasible], vals[feasible]):
        diffs = boundary.points - z
        dists = np.linalg.norm(diffs, axis=1)
        j = int(np.argmin(dists))
        if dists[j] < 1e-12:
            continue
        xb = boundary.points[j]
        ratio = (fz - boundary_vals[j]) / float(dists[j])
        if abs(ratio) >= flag_threshold * tau:
            continue
        bz = beta(f, z).beta
        if abs(bz) <= tau:
            witnesses.append(QCWitness(z=z, x=xb, ratio=float(ratio),
                                       beta_z=float(bz)))
    witnesses.sort(key=lambda w: abs(w.ratio))
    return witnesses


def classify_local_stability(f: ConvexExpr, xbar, zero_tol: float = ZERO_TOL,
                             cert: BetaCertificate | None = None
                             ) -> StabilityVerdict:
    """Local error-bound stability at a boundary point: stable exactly when
    beta is nonzero at tolerance zero_tol; instability comes with the
    explicit destabilizing direction h0 (unit, with f'(xbar, h0) = 0).

    A caller that already holds the beta certificate at xbar passes it as
    cert, and the verdict is built from it (at its own tolerance) instead
    of computing beta again.
    """
    xbar = as_point(xbar, f.dim)
    if abs(f._value(xbar)) > BOUNDARY_VALUE_TOL:
        raise PreconditionError(
            f"reference point must satisfy f = 0 within {BOUNDARY_VALUE_TOL:g}"
        )
    if cert is None:
        cert = beta(f, xbar, zero_tol=zero_tol)
    zero_tol = cert.origin_location.tolerance
    if not cert.is_zero:
        return StabilityVerdict(
            scope="local",
            verdict="stable",
            beta_inf=abs(cert.beta),
            reference_point=xbar,
            notes=f"beta = {cert.beta:.12g} is nonzero at tolerance {zero_tol:g}",
        )
    return StabilityVerdict(
        scope="local",
        verdict="unstable",
        beta_inf=abs(cert.beta),
        perturbation_direction=np.asarray(cert.witness),
        reference_point=xbar,
        notes=(
            "beta = 0: the linear perturbation along the attached direction "
            "drives the local modulus to infinity as eps shrinks"
        ),
    )


def classify_global_stability(f: ConvexExpr, tau: float, box, n: int,
                              seed: int = 0,
                              margin: float = 0.05) -> StabilityVerdict:
    """Global stability verdict over a sampling box.

    Stable requires the boundary infimum of |beta| to clear tau with margin
    and the witness search to come back empty; a witness or an infimum
    below tau with margin is unstable; the band in between is undetermined.
    """
    lo, hi = _as_box(box, f.dim)
    boundary = boundary_sample(f, box, max(16, n // 8), seed)
    cond = check_condition_3_9(f, tau, boundary)
    witnesses = qc_witness_search(f, tau, box, n, seed)
    notes = (
        f"verdict is relative to the sampled box; boundary inf |beta| = "
        f"{cond.inf_abs_beta:.6g} vs tau = {tau:g}"
    )
    if witnesses:
        return StabilityVerdict(
            scope="global", verdict="unstable", beta_inf=cond.inf_abs_beta,
            qc_witnesses=witnesses, tau=tau, box=(lo, hi),
            notes=notes + "; qualification condition fails at the witnesses",
        )
    if cond.inf_abs_beta <= tau * (1.0 - margin):
        wcert = beta(f, cond.worst_point)
        return StabilityVerdict(
            scope="global", verdict="unstable", beta_inf=cond.inf_abs_beta,
            perturbation_direction=np.asarray(wcert.witness),
            tau=tau, box=(lo, hi),
            notes=notes + "; boundary point with |beta| below tau",
        )
    if cond.inf_abs_beta > tau * (1.0 + margin):
        return StabilityVerdict(
            scope="global", verdict="stable", beta_inf=cond.inf_abs_beta,
            tau=tau, box=(lo, hi), notes=notes,
        )
    return StabilityVerdict(
        scope="global", verdict="undetermined", beta_inf=cond.inf_abs_beta,
        tau=tau, box=(lo, hi),
        notes=notes + f"; within the {margin:.0%} decision margin",
    )
