"""Perturbation sweeps: re-analyze a problem under eps-linear tilts.

Each row perturbs the function by eps * <u, . - xbar>, recomputes beta
and the modulus estimates, and records the stability verdict.  The beta
shift obeys |beta_after - beta_before| <= eps * ||u|| because the
subdifferential translates by eps * u.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .expressions import as_point
from .moduli import (
    BOUNDARY_VALUE_TOL,
    classify_local_stability,
    eta_global,
    eta_local,
)
from .problems import ProblemFile
from .sphere import beta, linear_perturbation
from .systems import materialize_sup, perturb_system


@dataclass
class SweepRow:
    epsilon: float
    u_star: np.ndarray
    beta_before: float
    beta_after: float
    tau_local: float
    tau_global: float | None
    verdict: str

    def payload(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "u_star": list(map(float, self.u_star)),
            "beta_before": self.beta_before,
            "beta_after": self.beta_after,
            "tau_local": self.tau_local,
            "tau_global": self.tau_global,
            "verdict": self.verdict,
        }


@dataclass
class SweepResult:
    problem: str
    seed: int
    rows: list = field(default_factory=list)

    def payload(self) -> dict:
        return {
            "problem": self.problem,
            "seed": self.seed,
            "rows": [r.payload() for r in self.rows],
        }


def run_perturbation_sweep(problem: ProblemFile, xbar, directions, eps_list,
                           box=None, seed: int = 0, levels: int = 4,
                           samples_per_level: int = 128,
                           global_samples: int = 256) -> SweepResult:
    """Sweep over (direction, eps) pairs, rows ordered by eps."""
    f = problem.function_expr()
    xbar = as_point(xbar, problem.dim)
    if abs(f._value(xbar)) > BOUNDARY_VALUE_TOL:
        raise PreconditionError("sweep reference point must satisfy f = 0")
    if box is None:
        box = problem.box
    directions = [np.asarray(u, dtype=float) for u in directions]
    for u in directions:
        if np.linalg.norm(u) > 1.0 + 1e-12:
            raise ValueError("perturbation directions must satisfy ||u|| <= 1")

    beta_before = beta(f, xbar).beta
    result = SweepResult(problem=problem.name, seed=seed)
    for eps in sorted(float(e) for e in eps_list):
        for u in directions:
            if problem.family is not None:
                fam_g = perturb_system(problem.family, u, eps, xbar)
                g = materialize_sup(fam_g)
            else:
                g = linear_perturbation(f, u, eps, xbar)
            beta_after = beta(g, xbar).beta
            local = eta_local(g, xbar, levels=levels,
                              samples_per_level=samples_per_level, seed=seed)
            tau_global = None
            if box is not None:
                tau_global = eta_global(g, box, global_samples,
                                        seed=seed).tau_estimate
            verdict = classify_local_stability(g, xbar).verdict
            result.rows.append(SweepRow(
                epsilon=eps,
                u_star=u,
                beta_before=beta_before,
                beta_after=beta_after,
                tau_local=local.tau_estimate,
                tau_global=tau_global,
                verdict=verdict,
            ))
    return result
