"""Built-in end-to-end reproductions of the worked counterexamples.

Each scenario builds its problem from scratch, runs the relevant analysis,
and checks the documented inequality.  All checks are deterministic for a
fixed seed; the CLI maps a failed scenario to exit code 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import (
    AbsCoord,
    Affine,
    Const,
    Exp1D,
    Max,
    PosPartSquare,
    Sum,
    directional_derivative,
    evaluate,
)
from .moduli import (
    boundary_sample,
    box_sample,
    classify_local_stability,
    distance_to_solution_set,
    eta_global,
    eta_local,
    find_slater_point,
    qc_witness_search,
)
from .sphere import beta, linear_perturbation
from .systems import FiniteFamily, check_active_set_hypotheses, materialize_sup

@dataclass
class CheckResult:
    label: str
    passed: bool
    observed: object
    expected: object


@dataclass
class ScenarioReport:
    scenario: str
    seed: int
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, passed: bool, observed, expected):
        self.checks.append(CheckResult(label, bool(passed), observed, expected))

    def payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "passed": self.passed,
            "checks": self.checks,
        }


def reproduce(scenario: str, seed: int = 0) -> ScenarioReport:
    name = scenario.upper()
    if name not in SCENARIO_NAMES:
        raise ValueError(
            f"unknown scenario '{scenario}'; choose one of {SCENARIO_NAMES}"
        )
    report = ScenarioReport(scenario=name, seed=seed)
    _RUNNERS[name](report, seed)
    return report


def _rem8(report: ScenarioReport, seed: int) -> None:
    """exp(x) - 1: stable locally (beta = -1), globally fragile: the tilted
    version g_eps = f - eps*x grows a second root and the far-negative tail
    drives the ratio to 1/eps; the qualification condition fails."""
    f = Exp1D(0, -1.0, 1)
    b0 = beta(f, [0.0]).beta
    report.add("beta at 0 equals -1 exactly", b0 == -1.0, b0, -1.0)
    for eps in (0.1, 0.01):
        g = linear_perturbation(f, [-1.0], eps, [0.0])
        x_far = -1e3 / eps
        dist = distance_to_solution_set(g, [x_far], slater=[-1.0])
        ratio = dist / evaluate(g, [x_far])
        bound = 1.0 / (2.0 * eps)
        report.add(
            f"perturbed ratio at x={x_far:g} (eps={eps}) >= 1/(2 eps)",
            ratio >= bound, ratio, bound,
        )
    box = (np.array([-50.0]), np.array([2.0]))
    boundary = boundary_sample(f, box_sample(f, box, 256, seed + 1), 50)
    witnesses = qc_witness_search(f, 0.5, boundary, box_sample(f, box, 400, seed))
    report.add("qualification-condition witnesses over [-50, 2]",
               len(witnesses) >= 1, len(witnesses), ">= 1")


def _rem10(report: ScenarioReport, seed: int) -> None:
    """Interior points far inside the exp tail: |beta| = e^z vanishes."""
    f = Exp1D(0, -1.0, 1)
    for k in (1, 5, 10, 20):
        b = beta(f, [-float(k)]).beta
        want = -math.exp(-float(k))
        report.add(f"beta at -{k} equals -e^-{k}",
                   abs(b - want) <= 1e-9, b, want)


def _tilt_checks(report: ScenarioReport, families, side: str) -> None:
    """The per-eps checks of REM12A and REM12B, for base, tilted =
    families(eps): the tilted family breaks the active-set inclusion on
    side, its solution set is the singleton origin, and its modulus is at
    least 1/eps."""
    for eps in (0.1, 0.01):
        base, tilted = families(eps)
        hc = check_active_set_hypotheses(base, tilted, [0.0, 0.0])
        report.add(
            f"active-set hypothesis violated (eps={eps})",
            (not hc.ok) and hc.violated_side == side, hc.violated_side, side,
        )
        g = materialize_sup(tilted)
        bg = beta(g, [0.0, 0.0]).beta
        report.add(f"perturbed solution set is the singleton origin (eps={eps})",
                   bg > 0.0, bg, "> 0")
        delta = eps / 2.0
        modulus_lb = delta / evaluate(g, [0.0, delta])
        bound = (1.0 / eps) * (1.0 - 1e-9)
        report.add(f"modulus lower bound >= 1/eps (eps={eps})",
                   modulus_lb >= bound, modulus_lb, 1.0 / eps)


def _rem12a_families(eps: float):
    base = FiniteFamily([AbsCoord(0, 2), AbsCoord(1, 2)])
    tilted = FiniteFamily([
        Sum([(1.0, AbsCoord(0, 2)), (eps, AbsCoord(1, 2))]),
        Sum([(1.0, AbsCoord(1, 2)), (1.0, Const(-eps, 2))]),
    ])
    return base, tilted


def _rem12a(report: ScenarioReport, seed: int) -> None:
    """max(|x1|, |x2|): beta = sqrt(2)/2 at the origin, yet the modified
    family (not a shared linear tilt) breaks the active-set inclusion and
    its modulus blows up like 1/eps."""
    base, _ = _rem12a_families(0.1)
    b0 = beta(materialize_sup(base), [0.0, 0.0]).beta
    want = math.sqrt(2.0) / 2.0
    report.add("beta at origin equals sqrt(2)/2",
               abs(b0 - want) <= 1e-12, b0, want)
    _tilt_checks(report, _rem12a_families, "I_f not subset I_g")


def _rem12b_families(eps: float):
    f2 = Sum([(1.0, Affine([-1.0, 0.0], -1.0)), (1.0, AbsCoord(1, 2))])
    base = FiniteFamily([Affine([1.0, 0.0], 0.0), f2])
    tilted = FiniteFamily([
        Sum([(1.0, Affine([1.0, 0.0], 0.0)), (eps, AbsCoord(1, 2))]),
        Sum([(1.0, Affine([-1.0, 0.0], 0.0)), (eps, AbsCoord(1, 2))]),
    ])
    return base, tilted


def _rem12b(report: ScenarioReport, seed: int) -> None:
    """{x1, -x1 + |x2| - 1}: only the first member is active at the origin
    and beta = -1; the modified family activates both members and collapses
    the solution set to the singleton origin."""
    base, _ = _rem12b_families(0.1)
    b0 = beta(materialize_sup(base), [0.0, 0.0]).beta
    report.add("beta at origin equals -1 exactly", b0 == -1.0, b0, -1.0)
    _tilt_checks(report, _rem12b_families, "I_g not subset I_f")


def _polyhedron_distances(pts: np.ndarray, mats: np.ndarray,
                          rhs: np.ndarray) -> np.ndarray:
    """Exact distances from each row of pts to {u : A u <= b} in the plane,
    by enumerating facet projections and vertices.  Independent of the
    sampling machinery under test."""
    k = mats.shape[0]
    vals = pts @ mats.T - rhs
    best = np.where(np.all(vals <= 1e-12, axis=1), 0.0, np.inf)
    for i in range(k):
        ai = mats[i]
        proj = pts - (vals[:, i] / (ai @ ai))[:, None] * ai
        feasible = np.all(proj @ mats.T - rhs <= 1e-9, axis=1)
        d = np.linalg.norm(pts - proj, axis=1)
        best = np.where(feasible & (d < best), d, best)
    for i in range(k):
        for j in range(i + 1, k):
            a_pair = mats[[i, j]]
            if abs(np.linalg.det(a_pair)) < 1e-12:
                continue
            v = np.linalg.solve(a_pair, rhs[[i, j]])
            if np.all(mats @ v - rhs <= 1e-9):
                d = np.linalg.norm(pts - v, axis=1)
                best = np.minimum(best, d)
    return best


def _hoffman(report: ScenarioReport, seed: int) -> None:
    """Affine inequalities: the modulus is 1/||a|| exactly for one
    inequality, and for small unit-normal systems the sampled estimate must
    agree with a brute-force grid oracle of the worst distance-to-violation
    ratio over the same box."""
    rng = np.random.default_rng(seed)
    worst_single = 0.0
    for _ in range(20):
        a = rng.normal(size=2)
        a = a / np.linalg.norm(a) * (0.5 + 1.5 * rng.random())
        b = rng.uniform(-1.0, 1.0)
        f = Affine(a, -b)
        xbar = b * a / float(a @ a)
        want = 1.0 / float(np.linalg.norm(a))
        local = eta_local(f, xbar, levels=4, samples_per_level=64, seed=seed)
        glob = eta_global(f, box_sample(f, (xbar - 2.0, xbar + 2.0), 256, seed))
        err = max(abs(local.tau_estimate - want), abs(glob.tau_estimate - want))
        worst_single = max(worst_single, err)
    report.add("20 single affine: tau estimates equal 1/||a||",
               worst_single <= 1e-10, worst_single, "<= 1e-10")

    worst_rel = 0.0
    for _ in range(10):
        while True:
            k = int(rng.integers(2, 6))
            mats = rng.normal(size=(k, 2))
            mats = mats / np.linalg.norm(mats, axis=1, keepdims=True)
            # near-antipodal normal pairs create razor-thin infeasible
            # wedges whose ratio never matures inside the box
            dots = mats @ mats.T
            if float(np.min(dots)) > -0.8:
                break
        rhs = rng.uniform(0.1, 1.0, size=k)
        f = Max([Affine(mats[i], -rhs[i]) for i in range(k)])
        box = (np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
        est = eta_global(f, box_sample(f, box, 2048, seed), slater=np.zeros(2))

        # cell-centered oracle grid at the sampler's mean spacing, so both
        # estimators resolve the box at comparable density
        grid_n = 45
        spacing = 4.0 / grid_n
        axis = np.linspace(-2.0 + spacing / 2, 2.0 - spacing / 2, grid_n)
        gx, gy = np.meshgrid(axis, axis)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        fvals = np.max(grid @ mats.T - rhs, axis=1)
        infeasible = grid[fvals > 1e-9]
        dists = _polyhedron_distances(infeasible, mats, rhs)
        sup_ratio = float(np.max(dists / fvals[fvals > 1e-9]))
        rel = abs(est.tau_estimate - sup_ratio) / sup_ratio
        worst_rel = max(worst_rel, rel)
    report.add("10 polyhedral systems: tau estimate within 10% of grid oracle",
               worst_rel <= 0.10, worst_rel, "<= 0.10")


def _t32_zero_beta(report: ScenarioReport, seed: int) -> None:
    """(x+)^2 has beta = 0 at the origin: locally unstable, and the attached
    destabilizing direction drives the perturbed ratio to 1/eps."""
    f = PosPartSquare(0, 1)
    verdict = classify_local_stability(f, [0.0])
    report.add("verdict unstable", verdict.verdict == "unstable",
               verdict.verdict, "unstable")
    h0 = verdict.perturbation_direction
    dd = directional_derivative(f, [0.0], h0)
    report.add("witness direction has zero directional derivative",
               abs(dd) <= 1e-12, dd, 0.0)
    eps = 0.01
    g = linear_perturbation(f, h0, eps, [0.0])
    x_test = 1e-6 * h0
    slater = find_slater_point(
        box_sample(g, (np.array([-1.0]), np.array([1.0])), 1024, seed))
    dist = distance_to_solution_set(g, x_test, slater)
    ratio = dist / evaluate(g, x_test)
    bound = 1.0 / (2.0 * eps)
    report.add("perturbed ratio at 1e-6 >= 1/(2 eps)",
               ratio >= bound, ratio, bound)
    local = eta_local(g, [0.0], levels=10, samples_per_level=128, seed=seed)
    report.add("perturbed local tau estimate >= 1/(2 eps)",
               local.tau_estimate >= bound, local.tau_estimate, bound)


_RUNNERS = {
    "REM8": _rem8,
    "REM10": _rem10,
    "REM12A": _rem12a,
    "REM12B": _rem12b,
    "HOFFMAN": _hoffman,
    "T32-ZERO-BETA": _t32_zero_beta,
}
SCENARIO_NAMES = tuple(_RUNNERS)
