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

from .errors import (NoSignChangeInBox, NoSlaterPoint, NumericalOverflow,
                     PreconditionError)
from .expressions import ConvexExpr, _row_dot, _row_sq, as_point
from .geometry import MIN_NORM_TOL, dedupe_rows, min_norm_point
from .sampling import ball_points, box_points
from .sphere import ZERO_TOL, BetaCertificate, beta

FEAS_TOL = 1e-10
BOUNDARY_VALUE_TOL = 1e-9
BRACKET_RTOL = 1e-9      # a distance bracket closes at ub - lb <= this * ub
BRACKET_ROUNDS = 50      # cutting-plane rounds per distance at most
QC_BLOCK = 32            # feasible samples per nearest-boundary block


@dataclass
class ModulusReport:
    """eta / tau estimates with sampling provenance.

    eta_estimate may be +inf (vacuous: no infeasible sample seen), in which
    case tau_estimate is 0; tau_estimate may be +inf when eta collapses to
    zero.  empirical_ratio is a certified lower bound on the sup of
    d(x, S) / f(x) over the infeasible samples (global reports only).  sample_count is the number
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
    """d(x, {f <= 0}), exact to BRACKET_RTOL relative where its distance
    bracket closes, and an upper bound where it is left open.

    Subgradient-projection steps (Polyak, or a two-plane Newton step where
    two pieces zigzag) pull x toward the nearest part of the solution set;
    a convex bracketing search (``_bisect_to_boundary``) from x toward
    that point, or toward a strictly feasible anchor, gives a boundary
    point and with it an upper bound (``_bounds``).  Kelley's cutting
    planes then bracket the distance from both sides (``_refine``), and
    the upper end of the bracket is returned.  The slater point is
    validated when given, else found by scanning the box.
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
    infeasible row, whose upper bound is returned.  Each row's result
    depends on that row alone."""
    out = np.zeros(X.shape[0])
    rows, x, z, ub = _bounds(f, X, s)
    if rows.size:
        out[rows] = _refine(f, x, z, ub, s)[1]
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
    points, their boundary points and ub = ||x - z||, the start of
    ``_refine``'s brackets.
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
            s: np.ndarray):
    """Brackets lb <= d(x, S) <= ub for the rows of x, from their
    ``_bounds`` output, by Kelley's cutting planes (Kelley 1960) in
    lock-step over the rows.

    Every subgradient g of f at a point q gives the cut
    f(q) + <g, u - q> <= 0, which holds on all of S = {f <= 0}.  A row
    starts with the cuts at x and at z, and each round (``_cut_round``)
    projects x onto the row's cuts, which bounds d(x, S) from below, and
    searches from an infeasible projection toward s to a feasible point,
    which bounds it from above.  A row stops once ub - lb <= BRACKET_RTOL
    * ub (closed), or after BRACKET_ROUNDS rounds (left open).  lb only
    rises, ub only falls, and each row's bracket depends on that row
    alone.  Returns (lb, ub).
    """
    lb, ub = np.zeros(ub.size), ub.copy()
    cuts = [[] for _ in ub]
    live = np.arange(ub.size)
    _add_cuts(f, x, cuts, live, np.concatenate([x, z]))
    for _ in range(BRACKET_ROUNDS):
        if not live.size:
            break
        live = _cut_round(f, x, s, cuts, lb, ub, live)
    return lb, ub


def _max_ratio(f: ConvexExpr, X: np.ndarray, vals: np.ndarray,
               s: np.ndarray):
    """(ratio, open): the largest lb / vals over the infeasible rows X
    with values vals, where lb is each row's ``_refine`` lower bound, and
    the number of rows whose bracket was left open while it could still
    set that ratio.

    The rows share one pruned cutting-plane loop: with R the largest
    lb / vals so far, a row leaves once its bracket closes or once its
    ub / vals <= R.  The row with the largest bound ratio runs first, on
    its own, so that R is high before the others start.  Because lb only
    rises and ub only falls, a row that leaves early can never exceed R,
    and the ratio equals exactly the largest lb / vals of a full
    ``_refine`` pass over every row.
    """
    _, x, z, ub = _bounds(f, X, s)
    lb = np.zeros(ub.size)
    cuts = [[] for _ in ub]
    top = int(np.argmax(ub / vals))
    left = 0
    for live in (np.array([top]), np.delete(np.arange(ub.size), top)):
        live = live[ub[live] / vals[live] > np.max(lb / vals)]
        _add_cuts(f, x, cuts, live, np.concatenate([x[live], z[live]]))
        for _ in range(BRACKET_ROUNDS):
            if not live.size:
                break
            live = _cut_round(f, x, s, cuts, lb, ub, live)
            live = live[ub[live] / vals[live] > np.max(lb / vals)]
        left += live.size
    return float(np.max(lb / vals)), left


def _cut_round(f: ConvexExpr, x: np.ndarray, s: np.ndarray, cuts: list,
               lb: np.ndarray, ub: np.ndarray, live: np.ndarray) -> np.ndarray:
    """One cutting-plane round for the rows live of x, updating lb, ub and
    cuts in place; returns the rows whose bracket is still open.

    Each row projects x onto its cuts (``_project``), so lb rises to the
    projection's distance.  Rows whose bracket closes leave before the
    projections p are evaluated, in one batch; a feasible p closes the
    bracket, and the rest search toward s in one boundary search to a
    feasible q, which lowers ub, and gain the cuts at p and q.  lb never
    passes ub, so the bracket stays ordered under rounding.
    """
    V = np.array([_project(cuts[i], ub[i]) for i in live])
    lb[live] = np.maximum(lb[live], np.minimum(np.sqrt(_row_sq(V)), ub[live]))
    go = ub[live] - lb[live] > BRACKET_RTOL * ub[live]
    live = live[go]
    P = x[live] + V[go]
    feasible = f._value_batch(P) <= 0.0
    ub[live[feasible]] = lb[live[feasible]]
    live, P = live[~feasible], P[~feasible]
    Q, _ = _bisect_to_boundary(f, P, np.broadcast_to(s, P.shape), 100)
    ub[live] = np.maximum(np.minimum(ub[live], np.sqrt(_row_sq(x[live] - Q))),
                          lb[live])
    go = ub[live] - lb[live] > BRACKET_RTOL * ub[live]
    live = live[go]
    _add_cuts(f, x, cuts, live, np.concatenate([P[go], Q[go]]))
    return live


def _add_cuts(f: ConvexExpr, x: np.ndarray, cuts: list, rows: np.ndarray,
              Q: np.ndarray) -> None:
    """Append to cuts[i], for each i in rows, the cuts at two points: the
    matching rows of the first and the second half of Q.

    A cut at q with subgradient g is stored against x = x[i] as the row
    (-g, e) / ||g||, e = f(q) + <g, x - q>, so that it reads
    e + <g, v> <= 0 for the offset v = u - x of a point u of S.  The
    gradients come from one batched call; where f may not be
    differentiable at q (a kink, or a non-finite gradient), every
    generator of the subdifferential there gives a cut.  A zero
    subgradient gives none.
    """
    G, kink = f._grad_batch(Q)
    fq = f._value_batch(Q)
    scalar = kink | ~np.isfinite(_row_sq(G))
    for j, i in enumerate(np.concatenate([rows, rows])):
        g = dedupe_rows(f._subdiff(Q[j]).generators) if scalar[j] else G[j:j + 1]
        gn = np.sqrt(_row_sq(g))
        g, gn = g[gn > 0.0], gn[gn > 0.0]
        e = fq[j] + _row_dot(g, np.broadcast_to(x[i] - Q[j], g.shape))
        cuts[i].append(np.column_stack([-g, e]) / gn[:, None])


def _project(cuts: list, scale: float) -> np.ndarray:
    """The offset v of the point nearest x of the polyhedron
    {e + <g, v> <= 0 for each cut (-g, e)}, the cuts given as a list of
    arrays of rows.

    A least-distance program, reduced to one NNLS (Lawson and Hanson,
    Solving Least Squares Problems, 1974, 23.27): with r the residual of
    min over lam >= 0 of ||E lam - e_{m+1}||, E's columns the cuts,
    v = -r[:m] / r[m].  Offsets are measured in units of scale, an upper
    bound on the distance, so that r[m] <= -1/2; a cut that x satisfies
    by a margin beyond twice that cannot bind and is dropped.
    """
    a = np.vstack(cuts)
    a[:, -1] /= scale
    a = a[a[:, -1] >= -2.0]
    target = np.zeros(a.shape[1])
    target[-1] = 1.0
    r = _nnls_residual(a, target)
    return -scale * r[:-1] / r[-1]


def _pull_to_solution_set(f: ConvexExpr, X: np.ndarray) -> np.ndarray:
    """Drive f below FEAS_TOL at every row of X by subgradient-projection
    steps, all rows in lock-step; each row stops on its own.

    Plain Polyak steps zigzag slowly between two nearly-antipodal active
    pieces, so when a row has two distinct linearizations (this step's and
    the last one's) it solves both cut constraints at once (a two-plane
    Newton step), falling back to the Polyak step unless that halves the
    violation.  A Newton candidate where f overflows a double is rejected
    too.  Each round takes one batched value call, one batched
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
            ok = _values_or_inf(f, y[n] - delta) < 0.5 * fy[n]
            step[n[ok]] = delta[ok]
        g0[rows], y0[rows], f0[rows] = g, y, fy
        has_prev[rows] = True
        Y[rows] = y - step
    return Y


def _values_or_inf(f: ConvexExpr, X: np.ndarray) -> np.ndarray:
    """f at the rows of X, inf at each row where f overflows a double."""
    try:
        return f._value_batch(X)
    except NumericalOverflow:
        if X.shape[0] == 1:
            return np.array([math.inf])
        return np.concatenate([_values_or_inf(f, x[None]) for x in X])


def _nnls_residual(gens: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Residual vector gens.T lam - target at the minimum over lam >= 0 of
    its norm, which is the distance from target to the cone spanned by the
    rows of gens.

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
    return a @ lam - target


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

    The empirical ratio is a certified lower bound on that sup
    (``_max_ratio``): every infeasible sample gets an upper bound on its
    distance from one batched pass, and only the samples whose bound could
    still set the sup refine their distance brackets.  It is the largest
    lower bound over fully refined brackets, so it may tighten eta; the
    notes count the brackets left open that could still have set it.
    """
    lo, hi = _as_box(box, f.dim)
    pts = box_points(lo, hi, n, seed)
    vals = f._value_batch(pts)
    infeasible = vals > 0.0
    infeas, infeas_vals = pts[infeasible], vals[infeasible]
    notes = "estimates are relative to the sampled box"
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
        ratio, left = _max_ratio(f, infeas, infeas_vals, s)
        if left:
            notes += f"; {left} distance brackets left open"
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
    """Infimum of |beta| over sampled boundary points against the threshold.

    beta = -d(0, df(p)) wherever 0 is not in df(p), as at every zero of a
    convex f with a Slater point, so one batched ``_subdiff_dists`` call
    gives |beta|; only points at distance <= ZERO_TOL, where 0 may lie in
    df(p) (beta zero, or an interior inradius), take the scalar ``beta``.
    worst_point is the first point that attains the infimum.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if boundary.points.shape[0] == 0:
        raise ValueError("boundary sample must be nonempty")
    abs_beta = _subdiff_dists(f, boundary.points)
    for i in np.flatnonzero(abs_beta <= ZERO_TOL):
        abs_beta[i] = abs(beta(f, boundary.points[i]).beta)
    worst = int(np.argmin(abs_beta))
    return Condition39Result(
        holds=bool(abs_beta[worst] > tau),
        inf_abs_beta=float(abs_beta[worst]),
        worst_point=boundary.points[worst],
        tau=tau,
    )


def qc_witness_search(f: ConvexExpr, tau: float, boundary: BoundarySample,
                      box, n: int, seed: int = 0,
                      flag_threshold: float = 0.1) -> list[QCWitness]:
    """Hunt for qualification-condition violations: strictly feasible points
    whose relative slope to the nearest point of the given boundary sample
    vanishes while |beta| stays below tau.

    Of n points drawn from the box, the feasible ones find their nearest
    boundary point QC_BLOCK rows at a time, so memory grows with the block,
    not with the product of the sample sizes; only those whose slope passes
    the flag_threshold * tau filter compute beta.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    lo, hi = _as_box(box, f.dim)
    B = boundary.points
    boundary_vals = f._value_batch(B)
    pts = box_points(lo, hi, n, seed)
    vals = f._value_batch(pts)
    Z, fz = pts[vals < 0.0], vals[vals < 0.0]
    near = np.zeros(Z.shape[0], dtype=int)
    for k in range(0, Z.shape[0], QC_BLOCK):
        near[k:k + QC_BLOCK] = np.argmin(
            np.linalg.norm(Z[k:k + QC_BLOCK, None] - B, axis=2), axis=1)
    dist = np.linalg.norm(Z - B[near], axis=1)
    apart = dist >= 1e-12
    ratio = (fz - boundary_vals[near]) / np.where(apart, dist, 1.0)
    witnesses = []
    for i in np.flatnonzero(apart & (np.abs(ratio) < flag_threshold * tau)):
        bz = beta(f, Z[i]).beta
        if abs(bz) <= tau:
            witnesses.append(QCWitness(z=Z[i], x=B[near[i]],
                                       ratio=float(ratio[i]), beta_z=float(bz)))
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

    One boundary sample of max(16, n // 8) points serves condition (3.9)
    and the witness search.  Stable requires the boundary infimum of |beta|
    to clear tau with margin and the witness search to come back empty; a
    witness or an infimum below tau with margin is unstable; the band in
    between is undetermined.
    """
    lo, hi = _as_box(box, f.dim)
    boundary = boundary_sample(f, box, max(16, n // 8), seed)
    cond = check_condition_3_9(f, tau, boundary)
    witnesses = qc_witness_search(f, tau, boundary, box, n, seed)
    inf_beta, extra = cond.inf_abs_beta, {}
    if witnesses:
        verdict, why = "unstable", "; qualification condition fails at the witnesses"
        extra["qc_witnesses"] = witnesses
    elif inf_beta <= tau * (1.0 - margin):
        verdict, why = "unstable", "; boundary point with |beta| below tau"
        extra["perturbation_direction"] = np.asarray(
            beta(f, cond.worst_point).witness)
    elif inf_beta > tau * (1.0 + margin):
        verdict, why = "stable", ""
    else:
        verdict, why = "undetermined", f"; within the {margin:.0%} decision margin"
    return StabilityVerdict(
        scope="global", verdict=verdict, beta_inf=inf_beta, tau=tau,
        box=(lo, hi), notes=(f"verdict is relative to the sampled box; boundary "
                             f"inf |beta| = {inf_beta:.6g} vs tau = {tau:g}{why}"),
        **extra)
