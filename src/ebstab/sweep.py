"""Perturbation sweeps: re-analyze a problem under eps-linear tilts.

Each row perturbs the function by eps * <u, . - xbar>, recomputes beta
and the modulus estimates (the local one from that beta, at most
1/|beta_after|), and records the stability verdict.  The beta
shift obeys |beta_after - beta_before| <= eps * ||u|| because the
subdifferential translates by eps * u.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .moduli import (
    boundary_point,
    box_sample,
    classify_local_stability,
    eta_global,
    local_modulus,
)
from .problems import ProblemFile
from .sphere import beta, linear_perturbation


@dataclass
class SweepRow:
    epsilon: float
    u_star: np.ndarray
    beta_before: float
    beta_after: float
    tau_local: float
    tau_global: float | None
    verdict: str


@dataclass
class SweepResult:
    problem: str
    seed: int
    rows: list = field(default_factory=list)


def run_perturbation_sweep(problem: ProblemFile, xbar, directions, eps_list,
                           box=None, seed: int = 0, levels: int = 4,
                           samples_per_level: int = 128,
                           global_samples: int = 256) -> SweepResult:
    """Sweep over (direction, eps) pairs, rows ordered by eps.  The box is
    drawn once, and each row's tilted function is evaluated on those
    points."""
    f = problem.function_expr()
    xbar = boundary_point(f, xbar)
    if box is None:
        box = problem.box
    directions = [np.asarray(u, dtype=float) for u in directions]
    for u in directions:
        if np.linalg.norm(u) > 1.0 + 1e-12:
            raise ValueError("perturbation directions must satisfy ||u|| <= 1")

    sample = None if box is None else box_sample(f, box, global_samples, seed)
    beta_before = beta(f, xbar).beta
    result = SweepResult(problem=problem.name, seed=seed)
    for eps in sorted(float(e) for e in eps_list):
        for u in directions:
            g = linear_perturbation(f, u, eps, xbar)
            cert = beta(g, xbar)
            local = local_modulus(g, xbar, cert, levels=levels,
                                  samples_per_level=samples_per_level, seed=seed)
            tau_global = None
            if sample is not None:
                tau_global = eta_global(g, replace(
                    sample, values=g._value_batch(sample.points))).tau_estimate
            verdict = classify_local_stability(g, xbar, cert=cert).verdict
            result.rows.append(SweepRow(
                epsilon=eps,
                u_star=u,
                beta_before=beta_before,
                beta_after=cert.beta,
                tau_local=local.tau_estimate,
                tau_global=tau_global,
                verdict=verdict,
            ))
    return result
