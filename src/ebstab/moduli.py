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
from .expressions import ConvexExpr, as_point, subdifferential
from .geometry import min_norm_point
from .sampling import ball_points, box_points
from .sphere import ZERO_TOL, beta

FEAS_TOL = 1e-10
BOUNDARY_VALUE_TOL = 1e-9


@dataclass
class ModulusReport:
    """eta / tau estimates with sampling provenance.

    eta_estimate may be +inf (vacuous: no infeasible sample seen), in which
    case tau_estimate is 0; tau_estimate may be +inf when eta collapses to
    zero.  empirical_ratio is the sampled sup of d(x, S) / f(x) over
    infeasible points (global reports only).
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
    """Points on the zero level set, each found by segment bisection."""

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
    """Zero crossings on k segments, each from an infeasible point (row of
    pos_pts) to a feasible one (row of neg_pts), bisected in lock-step.

    Row i runs at most max_iter[i] steps (a scalar applies to every row)
    and stops early once its bracket is no wider than rel_width times one
    plus its initial length.  Returns (points, steps): each point has |f|
    within bisection resolution and sits on the feasible side; steps is
    the total number of midpoint evaluations.
    """
    lo = np.asarray(pos_pts, dtype=float)
    hi = np.asarray(neg_pts, dtype=float)
    left = np.broadcast_to(np.asarray(max_iter, dtype=int), lo.shape[:1]).copy()
    tol = rel_width * (1.0 + np.linalg.norm(hi - lo, axis=1))
    out = hi.copy()
    rows = np.flatnonzero(left > 0)
    lo, hi, tol, left = lo[rows], hi[rows], tol[rows], left[rows]
    steps = 0
    while rows.size:
        mid = 0.5 * (lo + hi)
        up = (f._value_batch(mid) > 0.0)[:, None]
        lo = np.where(up, mid, lo)
        hi = np.where(up, hi, mid)
        left -= 1
        steps += rows.size
        done = (left == 0) | (np.linalg.norm(hi - lo, axis=1) <= tol)
        if done.any():
            out[rows[done]] = hi[done]
            keep = ~done
            rows, lo, hi, tol, left = (
                rows[keep], lo[keep], hi[keep], tol[keep], left[keep])
    return out, steps


def distance_to_solution_set(f: ConvexExpr, x, slater=None, box=None,
                             seed: int = 0) -> float:
    """Upper-bounding estimate of d(x, {f <= 0}).

    Bisection along the segment to a strictly feasible anchor gives a first
    feasible point; subgradient-projection steps (Polyak) pull toward the
    nearest part of the solution set, with a tangential polish that stops
    once successive estimates agree to 1e-8.  Always an overestimate by
    construction.  The slater point is validated when given, else found by
    scanning the box.  This is the one-point case of ``_distances``, which
    runs the same algorithm for many points with their bisections batched
    in lock-step; the answer for a point does not depend on the others.
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
    anchor s.  Each row runs as a ``_distance_steps`` generator; every
    round sends all pending bisection requests through one lock-step
    ``_bisect_to_boundary`` call."""
    out = np.zeros(X.shape[0])
    waiting = []

    def advance(i, run, sent):
        try:
            waiting.append((i, run, run.send(sent)))
        except StopIteration as stop:
            out[i] = stop.value

    for i, x in enumerate(X):
        advance(i, _distance_steps(f, x, s), None)
    while waiting:
        batch, waiting = waiting, []
        pos, neg, max_iter = zip(*(request for _, _, request in batch))
        points, _ = _bisect_to_boundary(f, pos, neg, max_iter)
        for (i, run, _), point in zip(batch, points):
            advance(i, run, point)
    return out


def _distance_steps(f: ConvexExpr, x: np.ndarray, s: np.ndarray):
    """The distance algorithm for one point as a generator: each bisection
    is yielded as (infeasible point, feasible point, max_iter) and its
    boundary point is sent back; the distance is the return value."""
    if f._value(x) <= 0.0:
        return 0.0
    y = _pull_to_solution_set(f, x)
    if f._value(y) <= FEAS_TOL:
        anchor = y if f._value(y) <= 0.0 else (yield y, s, 100)
        best_pt = yield x, anchor, 100
    else:
        best_pt = yield x, s, 100
    best = float(np.linalg.norm(x - best_pt))

    if f.dim == 1 or _projection_certified(f, x, best_pt):
        return best

    # tangential polish around the best boundary point; infeasible probes
    # are pulled back through a strictly feasible point close to the current
    # boundary point so the search stays local
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


def _pull_to_solution_set(f: ConvexExpr, x: np.ndarray) -> np.ndarray:
    """Drive f below FEAS_TOL by subgradient-projection steps.

    Plain Polyak steps zigzag slowly between two nearly-antipodal active
    pieces, so when two distinct linearizations are available the step
    solves both cut constraints at once (a two-plane Newton step), falling
    back to the Polyak step unless that halves the violation.
    """
    y = x.copy()
    prev = None
    for _ in range(400):
        fy = f._value(y)
        if fy <= FEAS_TOL:
            break
        g = min_norm_point(subdifferential(f, y)).point
        gg = float(g @ g)
        if gg < 1e-28:
            break
        stepped = False
        if prev is not None:
            g0, y0, f0 = prev
            a_mat = np.vstack([g0, g])
            gram = a_mat @ a_mat.T
            det = gram[0, 0] * gram[1, 1] - gram[0, 1] ** 2
            if det > 1e-12 * max(1e-30, gram[0, 0] * gram[1, 1]):
                resid = np.array([f0 + float(g0 @ (y - y0)), fy])
                delta = a_mat.T @ np.linalg.solve(gram, resid)
                cand = y - delta
                if f._value(cand) < 0.5 * fy:
                    prev = (g, y.copy(), fy)
                    y = cand
                    stepped = True
        if not stepped:
            prev = (g, y.copy(), fy)
            y = y - (fy / gg) * g
    return y


def _nnls_residual(gens: np.ndarray, target: np.ndarray, iters: int = 200) -> float:
    """Residual of min over lam >= 0 of ||gens.T lam - target||, by projected
    gradient; tests membership of target in the cone of the generators."""
    gram = gens @ gens.T
    lip = float(np.max(np.sum(np.abs(gram), axis=1)))
    if lip <= 0.0:
        return float(np.linalg.norm(target))
    rhs = gens @ target
    lam = np.zeros(gens.shape[0])
    for _ in range(iters):
        grad = gram @ lam - rhs
        lam = np.maximum(0.0, lam - grad / lip)
    return float(np.linalg.norm(gens.T @ lam - target))


def _projection_certified(f: ConvexExpr, x: np.ndarray, z: np.ndarray) -> bool:
    """True when z provably is the projection of x onto the solution set:
    the ray from z back to x lies in the normal cone at z, which is the
    cone spanned by the subdifferential there."""
    ray = x - z
    span = float(np.linalg.norm(ray))
    if span < 1e-15:
        return True
    s = subdifferential(f, z)
    if s.ball_radius != 0.0:
        return False
    from .geometry import dedupe_rows

    gens = dedupe_rows(s.generators)
    unit = ray / span
    if gens.shape[0] == 1:
        g = gens[0]
        gn = float(np.linalg.norm(g))
        return gn > 1e-15 and float(unit @ g) / gn >= 1.0 - 1e-10
    return _nnls_residual(gens, unit) <= 1e-8


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
    """n points on the boundary of the solution set via segment bisection
    between sampled infeasible and strictly feasible points."""
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


def eta_local(f: ConvexExpr, xbar, levels: int = 8,
              samples_per_level: int = 256, seed: int = 0,
              delta0: float = 1.0) -> ModulusReport:
    """liminf estimate of d(0, subdifferential) over infeasible points
    approaching xbar, via geometrically shrinking sampling balls."""
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
            dists = [
                _subdiff_dist(f, p) for p in pts if f._value(p) > 0.0
            ]
            recs.append((radius, min(dists) if dists else None))
        return recs

    recorded = run(samples_per_level, seed)
    notes = "estimates are relative to sampled shrinking balls"
    # liminf semantics: finer nested levels should not sit above coarser ones
    finite = [(r, d) for r, d in recorded if d is not None]
    if finite:
        coarse_min = min(d for _, d in finite)
        fine = finite[-1][1]
        if fine > coarse_min + 1e-9:
            recorded = run(2 * samples_per_level, seed + 1000)
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
        sample_count=levels * samples_per_level,
        reference_point=xbar,
        shrink_levels=recorded,
        vacuous=vacuous,
        seed=seed,
        notes=notes,
    )


def eta_global(f: ConvexExpr, box, n: int, seed: int = 0,
               slater=None, ratio_samples: int | None = None) -> ModulusReport:
    """Box-truncated estimate of inf d(0, subdifferential) over infeasible
    points, with the empirical sup of d(x, S)/f(x) over the same samples."""
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
    dists = np.array([_subdiff_dist(f, p) for p in infeas])
    eta = float(np.min(dists))

    if slater is None:
        feas_vals = vals[vals < 0.0]
        if feas_vals.shape[0] > 0:
            slater = pts[vals < 0.0][int(np.argmin(feas_vals))]
    ratio = None
    if slater is not None:
        s = _strictly_feasible(f, slater)
        sub, sub_vals = infeas, infeas_vals
        if ratio_samples is not None and infeas.shape[0] > ratio_samples:
            idx = np.linspace(0, infeas.shape[0] - 1, ratio_samples).astype(int)
            sub, sub_vals = infeas[idx], sub_vals[idx]
        ratio = float(np.max(_distances(f, sub, s) / sub_vals))
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


def classify_local_stability(f: ConvexExpr, xbar,
                             zero_tol: float = ZERO_TOL) -> StabilityVerdict:
    """Local error-bound stability at a boundary point: stable exactly when
    beta is nonzero at tolerance zero_tol; instability comes with the
    explicit destabilizing direction h0 (unit, with f'(xbar, h0) = 0)."""
    xbar = as_point(xbar, f.dim)
    if abs(f._value(xbar)) > BOUNDARY_VALUE_TOL:
        raise PreconditionError(
            f"reference point must satisfy f = 0 within {BOUNDARY_VALUE_TOL:g}"
        )
    cert = beta(f, xbar, zero_tol=zero_tol)
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
