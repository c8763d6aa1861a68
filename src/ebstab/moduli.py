"""Error-bound modulus estimation and stability verdicts.

The global modulus tau is the certified ratio, the largest lower bound on
d(x, S) / f(x) over infeasible samples, and eta = 1/tau; the local one is
the liminf of d(0, subdifferential) near a reference boundary point.
Sampling is box-relative and every report says so.  Global verdicts bound
inf |beta| over the boundary by a boundary sample and by 1/ratio, with a
qualification-condition witness search over strictly feasible points.

A global analysis draws its box once (``box_sample``), and every step
reads that ``BoxSample``: eta_global, the Slater point, the boundary
sample's pool and the witness search's feasible points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (NoSignChangeInBox, NoSlaterPoint, NumericalOverflow,
                     PreconditionError)
from .expressions import ConvexExpr, as_point
from .geometry import (_nnls_residual, _row_dot, _row_norm, _row_sq,
                       affine_hull_misses_origin, min_norm_point)
from .sampling import ball_points, box_points
from .sphere import BetaCertificate, _betas, _gradient_screen, beta

FEAS_TOL = 1e-10
PULL_RTOL = 1e-3         # a pulled row stops at a Polyak step <= this * ||x - y||
BOUNDARY_VALUE_TOL = 1e-9
BRACKET_RTOL = 1e-9      # a distance bracket closes at ub - lb <= this * ub
BRACKET_ROUNDS = 50      # cutting-plane rounds per distance at most
QC_BLOCK = 32            # feasible samples per nearest-boundary block
SEARCH_RTOL = 1e-15      # boundary search stops at this * (1 + segment length)
LOCAL_RADIUS = 1.0       # radius of eta_local's first (largest) ball
LOCAL_BLOCK = 4096       # ball rows per eta_local batch at most
LOCAL_RESOLUTION = 1e-12  # eta_local draws no ball below this * (1 + ||xbar||_inf)
DECISION_MARGIN = 0.05   # relative band around tau with no global verdict


@dataclass
class ModulusReport:
    """eta / tau estimates with sampling provenance.

    eta_estimate may be +inf (vacuous: no infeasible sample seen), in which
    case tau_estimate is 0; a local tau_estimate may be +inf when eta
    collapses to zero.  A global one is, to one ulp, empirical_ratio, a
    certified lower bound on the sup of d(x, S) / f(x) over the infeasible
    samples, set at x with lb <= d(x, S) <= ub: ratio_witness = (x, lb, ub),
    not in the payload.  sample_count is the number of points behind the
    estimates: after a local resample, that of the second run.  A
    ``local_modulus`` report names its path and certified tau_bound.
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
    path: str | None = None        # see local_modulus
    tau_bound: float | None = None
    ratio_witness: tuple | None = field(default=None, repr=False)

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
        for key in ("reference_point", "box", "empirical_ratio", "path", "tau_bound"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.shrink_levels:
            out["shrink_levels"] = [
                {"radius": r, "min_subdiff_dist": d} for r, d in self.shrink_levels
            ]
        return out


@dataclass
class QCWitness:
    """A strictly feasible point with vanishing relative slope toward the
    boundary but |beta| below the threshold."""

    z: np.ndarray
    x: np.ndarray
    ratio: float
    beta_z: float


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
            "witnesses": self.qc_witnesses,
            "notes": self.notes,
        }
        for key in ("perturbation_direction", "reference_point", "tau", "box"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        return out


@dataclass
class BoundarySample:
    """Points on the zero level set, each found by a boundary search on a
    segment (``_bisect_to_boundary``), and f there, as the search read it."""

    points: np.ndarray
    values: np.ndarray


@dataclass
class Condition39Result:
    holds: bool
    inf_abs_beta: float
    worst_point: np.ndarray
    tau: float


@dataclass(frozen=True)
class BoxSample:
    """Quasi-uniform points of the box [lo, hi], drawn at seed, and f's
    value at each: the one draw that every step of a global analysis
    reads."""

    box: tuple                     # (lo, hi)
    seed: int
    points: np.ndarray
    values: np.ndarray


def box_sample(f: ConvexExpr, box, n: int, seed: int = 0) -> BoxSample:
    """Validate box = (lo, hi) against f, draw n points and evaluate f there."""
    lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in box)
    if lo.shape != (f.dim,) or hi.shape != (f.dim,) or np.any(hi <= lo):
        raise ValueError(f"box must have {f.dim} axes, each with lo < hi")
    if n < 1:
        raise ValueError("a box sample needs at least one point")
    points = box_points(lo, hi, n, seed)
    return BoxSample((lo, hi), seed, points, f._value_batch(points))


def find_slater_point(sample: BoxSample) -> np.ndarray:
    """The most strictly feasible (f < 0) point of the sample."""
    best = int(np.argmin(sample.values))
    if sample.values[best] >= 0.0:
        raise NoSlaterPoint("no point with f < 0 found in the search box")
    return sample.points[best]


def _strictly_feasible(f: ConvexExpr, slater):
    s = as_point(slater, f.dim)
    if (fs := f._value(s)) >= 0.0:
        raise NoSlaterPoint("declared slater point is not strictly feasible")
    return s, fs


def _bisect_to_boundary(f: ConvexExpr, pos_pts, pos_vals, neg_pts, neg_vals,
                        max_iter):
    """Zero crossings on k segments, each from an infeasible point a (row
    of pos_pts) to a feasible one b (row of neg_pts, or one point for all),
    found in lock-step by a convex bracketing search.  The name is kept
    from the bisection it replaced, because the contract is the same and
    the bench tracer times the search under that name.

    On a segment, phi(t) = f(a + t (b - a)) is convex, so its feasible
    part is an interval [r, 1] and the chord through the bracket ends
    (tl, th), phi(tl) > 0 >= phi(th), lies above phi: the chord root is on
    the feasible side.  Each round evaluates, in one batched value call,
    three points per row: the chord root raised to at least half the goal
    width above tl, a closing probe half the goal width below it, and the
    midpoint (Dekker and Brent's safeguard).  The raise matters where
    phi(tl) is rounding noise: the chord root then sits below float
    resolution, rounds back onto the start and reads the same value,
    while the raised probe reads feasible and closes the bracket.  A
    raised probe's closing partner would land back on tl, so it goes half
    the goal width above it instead, where it closes the bracket if the
    raised probe reads infeasible.  The new bracket is built from each
    candidate's computed sign, never from what convexity predicts, and
    the midpoint at least halves it.  An affine piece closes in one round
    when its chord root reads feasible.

    The ends are not evaluated: the caller passes f there, as pos_vals
    and neg_vals (one number stands for all rows).  Every row runs at most
    max_iter rounds and stops once its bracket is no wider than
    SEARCH_RTOL times one plus its initial length.  Returns (points,
    steps, values): each point is the bracket's evaluated feasible end, so
    its bracket is never wider than that of bisection with as many steps,
    values is f there, and steps counts the probes evaluated.  A row whose
    start is feasible returns the start, and a row whose end is
    infeasible returns the end, unsearched.
    """
    a = np.asarray(pos_pts, dtype=float)
    b = np.broadcast_to(np.asarray(neg_pts, dtype=float), a.shape)
    out = b.copy()
    k = a.shape[0]
    fl, fh = (np.broadcast_to(v, (k,)) for v in (pos_vals, neg_vals))
    vals = np.array(fh, dtype=float)
    if max_iter < 1 or not k:
        return out, 0, vals
    span = np.linalg.norm(b - a, axis=1)
    tol = SEARCH_RTOL * (1.0 + span)
    steps = 0
    start = fl <= 0.0
    out[start], vals[start] = a[start], fl[start]
    rows = np.flatnonzero((fl > 0.0) & (fh <= 0.0) & (span > tol))
    a, ph, fl, fh = a[rows], b[rows], fl[rows], fh[rows]
    d = ph - a
    width = tol[rows] / span[rows]         # the goal width, in units of t
    tl, th = np.zeros(rows.size), np.ones(rows.size)
    for _ in range(max_iter):
        if not rows.size:
            break
        n = np.arange(rows.size)
        chord = tl + (th - tl) * (fl / (fl - fh))
        # a chord root this close to tl may round back onto the start; a
        # raised probe pairs with the one above it, as the one below is tl
        raised = chord < tl + 0.5 * width
        close = np.where(raised, tl + 0.5 * width, chord)
        pair = close + np.where(raised, 0.5, -0.5) * width
        T = np.clip(np.stack([close, pair, 0.5 * (tl + th)], axis=1),
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
        # the infeasible end: the last infeasible candidate below th
        infeas = np.where((V > 0.0) & (T < th[:, None]), T, -np.inf)
        j = np.argmax(infeas, axis=1)
        up = infeas[n, j] > tl
        tl = np.where(up, infeas[n, j], tl)
        fl = np.where(up, V[n, j], fl)
        done = th - tl <= width
        if done.any():
            out[rows[done]], vals[rows[done]] = ph[done], fh[done]
            keep = ~done
            rows, a, d, width = rows[keep], a[keep], d[keep], width[keep]
            tl, th, fl, fh, ph = (
                tl[keep], th[keep], fl[keep], fh[keep], ph[keep])
    out[rows], vals[rows] = ph, fh
    return out, steps, vals


def distance_to_solution_set(f: ConvexExpr, x, slater) -> float:
    """d(x, {f <= 0}), exact to BRACKET_RTOL relative where its distance
    bracket closes, and an upper bound where it is left open.

    Subgradient-projection steps (Polyak, or a two-plane Newton step where
    two pieces zigzag) pull x toward the nearest part of the solution set
    until they grow short; one convex bracketing search
    (``_bisect_to_boundary``) from the pulled point toward the slater point
    gives a boundary point and with it an upper bound.  Kelley's cutting
    planes then bracket the distance from both sides (``_brackets`` on the
    one row, where nothing is pruned), and the upper end of the bracket is
    returned.  The slater point is
    validated; ``find_slater_point`` finds one in a box sample.
    """
    x = as_point(x, f.dim)
    fx = f._value(x)
    if fx <= 0.0:
        return 0.0
    _, ub, _ = _brackets(f, x[None], np.array([fx]),
                         *_strictly_feasible(f, slater))
    return float(ub[0])


def _brackets(f: ConvexExpr, X: np.ndarray, vals: np.ndarray,
              s: np.ndarray, fs: float):
    """(lb, ub, open): brackets lb <= d(x, S) <= ub for the infeasible
    rows x of X, with values vals and strictly feasible anchor s of value
    fs, by Kelley's cutting planes (Kelley 1960) in one pruned lock-step loop;
    open is the number of rows whose bracket was left open while its
    ratio ub / vals could still exceed the largest lb / vals.

    Every affine piece at an evaluated point is a cut (``_add_cuts``): an
    affine minorant v + <g, u - q> of f gives v + <g, u - q> <= 0, which
    holds on all of S = {f <= 0}.  All rows are first pulled toward S
    (``_pull_to_solution_set``, which stops a row once its steps grow
    short, usually before it reaches S), and one lock-step boundary
    search (``_bisect_to_boundary``) from each pulled point toward s
    gives a feasible boundary point z (a feasible pulled point is its own
    z), so ub always comes from an evaluated feasible point.  A
    row starts from ub = ||x - z|| with the cuts at x and at z, and each
    round (``_cut_round``) tightens its bracket from both sides.  lb only
    rises and ub only falls.  Each row's start depends on that row alone.

    With R the largest lb / vals so far, a row leaves once its bracket
    closes (ub - lb <= BRACKET_RTOL * ub), once its ub / vals <= R, or
    after BRACKET_ROUNDS rounds.  The row with the largest bound ratio
    runs first, on its own, so that R is high before the others start.
    A row that leaves early can never exceed R, so max(lb / vals) equals
    exactly the largest lb / vals over brackets refined without pruning.
    A single row is never pruned: it runs until its bracket closes or
    the rounds run out.
    """
    z, _, _ = _bisect_to_boundary(f, *_pull_to_solution_set(f, X), s, fs, 100)
    ub = _row_norm(X - z)
    lb = np.zeros(ub.size)
    cuts = [[] for _ in ub]
    top = int(np.argmax(ub / vals))
    left = 0
    for live in (np.array([top]), np.delete(np.arange(ub.size), top)):
        live = live[ub[live] / vals[live] > np.max(lb / vals)]
        _add_cuts(f, X, cuts, live, np.concatenate([X[live], z[live]]))
        for _ in range(BRACKET_ROUNDS):
            if not live.size:
                break
            live = _cut_round(f, X, s, fs, cuts, lb, ub, live)
            live = live[ub[live] / vals[live] > np.max(lb / vals)]
        left += live.size
    return lb, ub, left


def _cut_round(f: ConvexExpr, x: np.ndarray, s: np.ndarray, fs: float,
               cuts: list, lb: np.ndarray, ub: np.ndarray,
               live: np.ndarray) -> np.ndarray:
    """One cutting-plane round for the rows live of x, updating lb, ub and
    cuts in place; returns the rows whose bracket is still open.

    Each row projects x onto its cuts (``_project``), so lb rises to the
    projection's distance.  Rows whose bracket closes leave before the
    projections p are evaluated, in one batch; a feasible p closes the
    bracket, and the rest search toward s (value fs) in one boundary
    search to a feasible q, which lowers ub, and gain the cuts at p and q.
    lb never passes ub, so the bracket stays ordered under rounding.  A
    round whose closing test leaves no row returns before any oracle call.
    """
    V = np.array([_project(cuts[i], ub[i]) for i in live])
    lb[live] = np.maximum(lb[live], np.minimum(_row_norm(V), ub[live]))
    go = ub[live] - lb[live] > BRACKET_RTOL * ub[live]
    live = live[go]
    if not live.size:
        return live
    P = x[live] + V[go]
    fp = f._value_batch(P)
    feasible = fp <= 0.0
    ub[live[feasible]] = lb[live[feasible]]
    live, P, fp = live[~feasible], P[~feasible], fp[~feasible]
    Q, _, _ = _bisect_to_boundary(f, P, fp, s, fs, 100)
    ub[live] = np.maximum(np.minimum(ub[live], _row_norm(x[live] - Q)),
                          lb[live])
    go = ub[live] - lb[live] > BRACKET_RTOL * ub[live]
    live = live[go]
    _add_cuts(f, x, cuts, live, np.concatenate([P[go], Q[go]]))
    return live


def _add_cuts(f: ConvexExpr, x: np.ndarray, cuts: list, rows: np.ndarray,
              Q: np.ndarray) -> None:
    """Append to cuts[i], for each i in rows, the cuts at two points: the
    matching rows of the first and the second half of Q.

    Every affine piece at an evaluated point is a cut: each affine
    minorant v + <g, u - q> of f at q (one ``_minorants_batch(Q)`` call
    gives them all) is <= 0 on S.  It is stored against x = x[i] as the
    row (-g, e) / ||g||, e = v + <g, x - q> with the minorant's own value
    v, so that it reads e + <g, w> <= 0 for the offset w = u - x of a
    point u of S.  A zero gradient gives no cut.  Empty rows return at
    once, with no oracle call.
    """
    if not rows.size:
        return
    V, G = f._minorants_batch(Q)
    idx = np.concatenate([rows, rows])
    g = G.reshape(-1, f.dim)
    gn = _row_norm(g).reshape(V.shape)
    E = V + _row_dot(g, np.broadcast_to(x[idx] - Q, G.shape).reshape(g.shape)
                     ).reshape(V.shape)
    for j, i in enumerate(idx):
        keep = gn[:, j] > 0.0
        cuts[i].append(np.column_stack([-G[keep, j], E[keep, j]])
                       / gn[keep, j, None])


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
    r, _ = _nnls_residual(a, target)
    return -scale * r[:-1] / r[-1]


def _pull_to_solution_set(f: ConvexExpr, X: np.ndarray):
    """(Y, values): every row x of X pulled toward the solution set by
    subgradient-projection steps, all rows in lock-step; each row y stops
    on its own, once f(y) <= FEAS_TOL or once its next Polyak step is
    short: f(y) / ||g|| <= PULL_RTOL * ||x - y||, g the minimum-norm
    subgradient at y.  The second rule is scale-free, and it stops a row
    where the steps have begun to shrink only geometrically, as they do on
    one smooth curved piece; the pulled point only starts the boundary
    search and the cutting planes of ``_brackets``, which do the exact
    work.

    Plain Polyak steps zigzag slowly between two nearly-antipodal active
    pieces, so when a row has two distinct linearizations (this step's and
    the last one's) it solves both cut constraints at once (a two-plane
    Newton step), falling back to the Polyak step unless that halves the
    violation.  Both steps read each plane divided by its subgradient's
    norm, which ``_gradient_screen`` returns, so no squared norm overflows.
    A Newton candidate where f overflows a double is rejected too.  Each
    round takes one batched value call, one batched minimum-norm
    subgradient and one value call on the Newton candidates.  values is f
    at Y, each row's from the round it stops in (rows still moving at the
    400-round cap are evaluated once more).
    """
    X = np.asarray(X, dtype=float)
    Y = X.copy()
    k = Y.shape[0]
    g0, y0 = np.zeros_like(Y), np.zeros_like(Y)
    e0, FY = np.zeros(k), np.zeros(k)
    rows = np.arange(k)
    for _ in range(400):
        fy = FY[rows] = f._value_batch(Y[rows])
        go = fy > FEAS_TOL
        rows, fy = rows[go], fy[go]
        if not rows.size:
            break
        y = Y[rows]
        g, n, scalar = _gradient_screen(f, y)
        for i in scalar:
            mn = min_norm_point(f._subdiff(y[i]))
            g[i], n[i] = mn.point, mn.hull_dist
        go = (n > 0.0) & (fy > PULL_RTOL * n * _row_norm(X[rows] - y))
        rows, fy, y = rows[go], fy[go], y[go]
        if not rows.size:
            break
        # the plane f(y) + <g, u - y> <= 0 over ||g||: normal g, offset e
        g, e = g[go] / n[go, None], fy / n[go]
        gg = _row_sq(g)
        a0, a00, a01 = g0[rows], _row_sq(g0[rows]), _row_dot(g0[rows], g)
        det = a00 * gg - a01 * a01
        newton = det > 1e-12 * a00 * gg
        step = (e / gg)[:, None] * g
        if newton.any():
            n = np.flatnonzero(newton)
            # the 2x2 system gram @ c = (e0 + <g0, y - y0>, e) for the
            # coefficients c of the step along (g0, g)
            r0 = e0[rows[n]] + _row_dot(a0[n], y[n] - y0[rows[n]])
            r1 = e[n]
            c0 = (gg[n] * r0 - a01[n] * r1) / det[n]
            c1 = (a00[n] * r1 - a01[n] * r0) / det[n]
            delta = c0[:, None] * a0[n] + c1[:, None] * g[n]
            ok = _values_or_inf(f, y[n] - delta) < 0.5 * fy[n]
            step[n[ok]] = delta[ok]
        g0[rows], y0[rows], e0[rows] = g, y, e
        Y[rows] = y - step
    else:
        FY[rows] = f._value_batch(Y[rows])
    return Y, FY


def _values_or_inf(f: ConvexExpr, X: np.ndarray) -> np.ndarray:
    """f at the rows of X, inf at each row where f overflows a double."""
    try:
        return f._value_batch(X)
    except NumericalOverflow:
        if X.shape[0] == 1:
            return np.array([math.inf])
        return np.concatenate([_values_or_inf(f, x[None]) for x in X])


def boundary_sample(f: ConvexExpr, sample: BoxSample, n: int) -> BoundarySample:
    """n points on the boundary of the solution set via a boundary search
    on segments between the sample's infeasible and strictly feasible
    points, whose values the sample holds, so no end is evaluated again."""
    feas = np.flatnonzero(sample.values < 0.0)
    infeas = np.flatnonzero(sample.values > 0.0)
    if feas.shape[0] == 0 or infeas.shape[0] == 0:
        raise NoSignChangeInBox(
            "box must contain both a point with f < 0 and one with f > 0"
        )
    i = np.arange(n)
    a, b = infeas[i % infeas.shape[0]], feas[(3 + 7 * i) % feas.shape[0]]
    P, V = sample.points, sample.values
    points, _, values = _bisect_to_boundary(f, P[a], V[a], P[b], V[b], 100)
    return BoundarySample(points=points, values=values)


def boundary_point(f: ConvexExpr, xbar) -> np.ndarray:
    """xbar as a point of f's space; PreconditionError unless |f(xbar)| is at
    most BOUNDARY_VALUE_TOL (xbar lies on the boundary of the solution set)."""
    xbar = as_point(xbar, f.dim)
    if abs(value := f._value(xbar)) > BOUNDARY_VALUE_TOL:
        raise PreconditionError(f"reference point must satisfy f = 0 within "
                                f"{BOUNDARY_VALUE_TOL:g}, got {value:.3g}")
    return xbar


def eta_local(f: ConvexExpr, xbar, levels: int = 8,
              samples_per_level: int = 256, seed: int = 0) -> ModulusReport:
    """liminf estimate of d(0, subdifferential) over infeasible points
    approaching xbar, via sampling balls of radius LOCAL_RADIUS halved at
    each level.

    One run draws the balls of all levels at once (level k at seed
    ``seed_base + k``), screens them with one batched value call and reads
    the distances of all their infeasible samples off one ``_betas`` call:
    beta is the signed distance from the origin to the boundary of the
    subdifferential, so the distance is -beta where beta < 0, else 0 (0
    at or below ZERO_TOL, as for beta).  Every oracle is row-independent,
    so each level's minimum is the one a draw of that level alone gives.
    Levels go into a batch together while it holds at most LOCAL_BLOCK
    rows (a level larger than that is a batch of its own).  Levels whose
    radius is below LOCAL_RESOLUTION * (1 + ||xbar||_inf) are not drawn:
    there xbar + r * u rounds back to xbar.
    """
    if levels < 1 or samples_per_level < 1:
        raise ValueError("eta_local needs at least one level and one sample")
    xbar = boundary_point(f, xbar)
    floor = LOCAL_RESOLUTION * (1.0 + float(np.max(np.abs(xbar))))
    radii = list(itertools.takewhile(
        lambda r: r >= floor, (LOCAL_RADIUS * 2.0 ** (-k) for k in range(levels))))

    def run(per_level, seed_base):
        recs = []
        step = max(1, LOCAL_BLOCK // per_level)
        for k in range(0, len(radii), step):
            block = radii[k:k + step]
            pts = ball_points(xbar, block, per_level,
                              range(seed_base + k, seed_base + k + len(block)))
            infeas = f._value_batch(pts) > 0.0
            d = np.full(pts.shape[0], np.inf)
            if infeas.any():
                b = _betas(f, pts[infeas])
                d[infeas] = np.where(b < 0.0, -b, 0.0)
            seen = infeas.reshape(len(block), per_level).any(axis=1)
            least = d.reshape(len(block), per_level).min(axis=1)
            recs += [(r, float(v) if hit else None)
                     for r, v, hit in zip(block, least, seen)]
        return recs

    per_level = samples_per_level
    recorded = run(per_level, seed)
    notes = "estimates are relative to sampled shrinking balls"
    if len(radii) < levels:
        notes += (f"; levels from {len(radii)} on not drawn: their radius is "
                  f"below the float resolution {floor:.3g} at the reference point")
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
        sample_count=len(radii) * per_level,
        reference_point=xbar,
        shrink_levels=recorded,
        vacuous=vacuous,
        seed=seed,
        notes=notes,
    )


def local_modulus(f: ConvexExpr, xbar, cert: BetaCertificate, levels: int = 8,
                  samples_per_level: int = 256, seed: int = 0) -> ModulusReport:
    """The local modulus at a boundary point xbar with beta certificate
    cert.  Where beta != 0, eta >= |beta| (subgradient limits lie in P, the
    subdifferential at xbar: Rockafellar, Convex Analysis, Thm 24.5), so
    tau <= tau_bound = 1/|beta|, with equality on three paths: singleton
    (f is differentiable at xbar, so cert carries no subdiff);
    polyhedral-interior (f is locally polyhedral at xbar and beta > 0, P's
    nearest proper face is at the inradius beta); polyhedral-outside (f is
    locally polyhedral and aff P misses the origin, so an ascent direction
    exposes the face holding P's nearest point; P is the set cert carries,
    as ``beta`` builds it at a kink).  Elsewhere ``eta_local`` runs with the
    levels, samples_per_level and seed, and its tau is clipped at tau_bound."""
    xbar = boundary_point(f, xbar)
    b = abs(cert.beta)
    bound = math.inf if b == 0.0 else 1.0 / b
    path = "sampled"
    if b > 0.0 and cert.subdiff is None:
        path = "singleton"
    elif b > 0.0 and f._polyhedral_at(xbar):
        if cert.beta > 0.0:
            path = "polyhedral-interior"
        elif affine_hull_misses_origin(cert.subdiff):
            path = "polyhedral-outside"
    if path == "sampled":
        rep = eta_local(f, xbar, levels, samples_per_level, seed)
        if rep.tau_estimate > bound:
            rep.eta_estimate, rep.tau_estimate = b, bound
            rep.notes += "; tau clipped at the certified bound 1/|beta|"
    else:
        rep = ModulusReport(kind="local", eta_estimate=b, tau_estimate=bound,
                            sample_count=0, reference_point=xbar, seed=seed,
                            notes="exact: eta = |beta|")
    rep.path, rep.tau_bound = path, bound
    return rep


def eta_global(f: ConvexExpr, sample: BoxSample, slater=None) -> ModulusReport:
    """Box-truncated global modulus: tau is the certified ratio, the
    largest lb / f over the distance brackets lb <= d(x, S) of the
    sample's infeasible points, and eta = 1/tau (``_tightened``: tau ==
    1/eta, at most one ulp above the ratio).  ``_brackets`` refines only
    the brackets that could still set the ratio, and the notes count those
    it left open.  No sampled d(0, subdifferential) could lower eta:
    f(x) <= ||g|| d(x, S) for every subgradient g at x (Rockafellar,
    Convex Analysis, Cor. 23.7.1).  The ratio anchors at the slater point:
    a given one is validated, and by default it is the sample's
    ``find_slater_point``, whose value the sample already holds.
    """
    vals = sample.values
    infeasible = vals > 0.0
    infeas, infeas_vals = sample.points[infeasible], vals[infeasible]
    rep = ModulusReport(kind="global", eta_estimate=math.inf, tau_estimate=0.0,
                        sample_count=vals.shape[0], box=sample.box,
                        vacuous=not infeasible.any(), seed=sample.seed,
                        notes="estimates are relative to the sampled box")
    if rep.vacuous:
        rep.notes += "; no infeasible samples (vacuous bound)"
        return rep
    s, fs = ((find_slater_point(sample), np.min(vals)) if slater is None
             else _strictly_feasible(f, slater))
    lb, ub, left = _brackets(f, infeas, infeas_vals, s, fs)
    top = int(np.argmax(lb / infeas_vals))
    rep.empirical_ratio = float(lb[top] / infeas_vals[top])
    rep.ratio_witness = (infeas[top], float(lb[top]), float(ub[top]))
    rep.eta_estimate, rep.tau_estimate = _tightened(rep.empirical_ratio)
    if left:
        rep.notes += f"; {left} distance brackets left open"
    rep.notes += "; eta tightened by the empirical ratio"
    return rep


def _tightened(ratio: float) -> tuple[float, float]:
    """(eta, tau) from a certified lower bound ratio > 0 on tau, with
    tau == 1 / eta exactly and ratio <= tau <= nextafter(ratio, inf).

    1 / (1 / ratio) can round one ulp below ratio, and for some ratios no
    double eta gives 1 / eta == ratio, so eta = 1 / ratio steps one ulp
    down where its reciprocal falls short.
    """
    eta = 1.0 / ratio
    if 1.0 / eta < ratio:
        eta = math.nextafter(eta, 0.0)
    return eta, 1.0 / eta


def check_condition_3_9(f: ConvexExpr, tau: float,
                        boundary: BoundarySample) -> Condition39Result:
    """Infimum of |beta| over sampled boundary points against the threshold.

    |beta| at every point comes from one batched ``_betas`` call: the
    gradient norm where f is differentiable, the geometric certificate at
    kinks.  worst_point is the first point that attains the infimum.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if boundary.points.shape[0] == 0:
        raise ValueError("boundary sample must be nonempty")
    abs_beta = np.abs(_betas(f, boundary.points))
    worst = int(np.argmin(abs_beta))
    return Condition39Result(
        holds=bool(abs_beta[worst] > tau),
        inf_abs_beta=float(abs_beta[worst]),
        worst_point=boundary.points[worst],
        tau=tau,
    )


def qc_witness_search(f: ConvexExpr, tau: float, boundary: BoundarySample,
                      sample: BoxSample,
                      flag_threshold: float = 0.1) -> list[QCWitness]:
    """Hunt for qualification-condition violations: strictly feasible points
    whose relative slope to the nearest point of the given boundary sample
    vanishes while |beta| stays below tau.

    The sample's feasible points find their nearest
    boundary point QC_BLOCK rows at a time, so memory grows with the block,
    not with the product of the sample sizes; those whose slope passes the
    flag_threshold * tau filter take beta from one batched ``_betas`` call.
    f is evaluated nowhere: both samples carry their values.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    B, boundary_vals = boundary.points, boundary.values
    feasible = sample.values < 0.0
    Z, fz = sample.points[feasible], sample.values[feasible]
    near = np.zeros(Z.shape[0], dtype=int)
    for k in range(0, Z.shape[0], QC_BLOCK):
        near[k:k + QC_BLOCK] = np.argmin(
            np.linalg.norm(Z[k:k + QC_BLOCK, None] - B, axis=2), axis=1)
    dist = np.linalg.norm(Z - B[near], axis=1)
    apart = dist >= 1e-12
    ratio = (fz - boundary_vals[near]) / np.where(apart, dist, 1.0)
    flagged = np.flatnonzero(apart & (np.abs(ratio) < flag_threshold * tau))
    witnesses = [QCWitness(z=Z[i], x=B[near[i]], ratio=float(ratio[i]),
                           beta_z=float(bz))
                 for i, bz in zip(flagged, _betas(f, Z[flagged]))
                 if abs(bz) <= tau]
    witnesses.sort(key=lambda w: abs(w.ratio))
    return witnesses


def classify_local_stability(f: ConvexExpr, xbar,
                             cert: BetaCertificate | None = None
                             ) -> StabilityVerdict:
    """Local error-bound stability at a boundary point: stable exactly when
    beta is nonzero at the certificate's tolerance; instability comes with
    the explicit destabilizing direction h0 (unit, with f'(xbar, h0) = 0).

    A caller that already holds the beta certificate at xbar passes it as
    cert, and the verdict is built from it (at its own tolerance) instead
    of computing beta again at ZERO_TOL.
    """
    xbar = boundary_point(f, xbar)
    if cert is None:
        cert = beta(f, xbar)
    unstable = cert.is_zero
    return StabilityVerdict(
        scope="local",
        verdict="unstable" if unstable else "stable",
        beta_inf=abs(cert.beta),
        perturbation_direction=np.asarray(cert.witness) if unstable else None,
        reference_point=xbar,
        notes=(
            "beta = 0: the linear perturbation along the attached direction "
            "drives the local modulus to infinity as eps shrinks" if unstable
            else f"beta = {cert.beta:.12g} is nonzero at tolerance "
                 f"{cert.origin_location.tolerance:g}"
        ),
    )


def classify_global_stability(f: ConvexExpr, tau: float, sample: BoxSample,
                              modulus: ModulusReport) -> StabilityVerdict:
    """Global stability verdict over a box sample of n points and its
    modulus = ``eta_global(f, sample)``: one boundary sample of
    max(16, n // 8) points, searched from the box sample, serves condition
    (3.9) and the witness search over the box sample's feasible points.
    beta_inf is the least of its |beta| and 1/ratio, a bound over bd S,
    not bd S in the box: the projection p of the ratio's witness x onto S
    lies in B(x, ub(x)), and x - p is a multiple of a subgradient g at p
    (Rockafellar, Convex Analysis, Cor. 23.7.1), so |beta(p)| <= ||g|| <=
    f(x) / lb(x).  Stable requires beta_inf to clear tau by DECISION_MARGIN
    and the witness search to come back empty; a witness or a beta_inf
    below tau by that margin is unstable; the band in between is
    undetermined.  The notes say what set beta_inf; only a boundary
    sample's carries a perturbation direction.
    """
    boundary = boundary_sample(f, sample, max(16, sample.points.shape[0] // 8))
    cond = check_condition_3_9(f, tau, boundary)
    witnesses = qc_witness_search(f, tau, boundary, sample)
    x, lb, ub = modulus.ratio_witness
    inf_beta, extra = min(cond.inf_abs_beta, 1.0 / modulus.empirical_ratio), {}
    by_ratio = inf_beta < cond.inf_abs_beta
    source = "the boundary sample"
    if by_ratio:
        inside = np.all(x - ub >= sample.box[0]) and np.all(x + ub <= sample.box[1])
        source = (f"1/ratio at x = {np.array2string(x)}, lb(x) = {lb:.6g}, a bound "
                  "over bd S; B(x, ub(x)) " + ("lies in the box" if inside else
                  "leaves the box, so the boundary point may lie outside it"))
    if witnesses:
        verdict, why = "unstable", "; qualification condition fails at the witnesses"
        extra["qc_witnesses"] = witnesses
    elif inf_beta <= tau * (1.0 - DECISION_MARGIN):
        verdict, why = "unstable", "; boundary point with |beta| below tau"
        if not by_ratio:
            extra["perturbation_direction"] = np.asarray(
                beta(f, cond.worst_point).witness)
    elif inf_beta > tau * (1.0 + DECISION_MARGIN):
        verdict, why = "stable", ""
    else:
        verdict = "undetermined"
        why = f"; within the {DECISION_MARGIN:.0%} decision margin"
    return StabilityVerdict(
        scope="global", verdict=verdict, beta_inf=inf_beta, tau=tau,
        box=sample.box, notes=(f"verdict is relative to the sampled box; boundary "
                             f"inf |beta| = {inf_beta:.6g} vs tau = {tau:g}, set by "
                             f"{source}{why}"),
        **extra)
