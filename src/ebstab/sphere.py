"""Minimum of the directional derivative over the unit sphere.

beta(f, x) = min over unit h of f'(x, h) is the certificate quantity for
error-bound stability: its sign locates the origin relative to the
subdifferential (negative: outside, positive: interior, zero: boundary),
and its magnitude is the signed distance.  The geometric route through the
subdifferential is exact; sphere sampling provides the independent
cross-check oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import (
    Affine,
    ConvexExpr,
    Sum,
    as_point,
    directional_derivative,
    directional_derivatives,
    subdifferential,
)
from .geometry import (
    OriginLocation,
    OriginTag,
    _refine_direction_min,
    min_support_direction,
)
from .sampling import unit_directions

ZERO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class BetaCertificate:
    """beta value with a witness direction achieving it.

    beta: min over unit h of f'(x, h); values within ZERO_TOL of zero are
        reported as exactly zero.
    witness: unit direction h* with f'(x, h*) = beta.
    origin_location: where the origin sits relative to the subdifferential,
        consistent with sign(beta).
    residual: |f'(x, h*) - beta| as verified through the derivative oracle.
    """

    beta: float
    witness: np.ndarray
    origin_location: OriginLocation
    residual: float

    @property
    def is_zero(self) -> bool:
        return self.origin_location.tag is OriginTag.ON_BOUNDARY

    def payload(self) -> dict:
        return {
            "beta": self.beta,
            "witness": list(map(float, self.witness)),
            "origin": self.origin_location.tag.value,
            "residual": self.residual,
        }


def with_linear_term(f: ConvexExpr, a, b: float) -> ConvexExpr:
    """f + <a, x> + b, the building block for linear perturbations."""
    return Sum([(1.0, f), (1.0, Affine(a, b))])


def linear_perturbation(f: ConvexExpr, u, eps: float, xbar) -> ConvexExpr:
    """g(x) = f(x) + eps * <u, x - xbar>."""
    u = np.asarray(u, dtype=float)
    xbar = as_point(xbar, f.dim)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return with_linear_term(f, eps * u, -eps * float(u @ xbar))


def beta(f: ConvexExpr, x, zero_tol: float = ZERO_TOL) -> BetaCertificate:
    """Exact beta certificate via the subdifferential geometry.

    The witness comes from the minimizing support direction: the separation
    direction when the origin is outside, the nearest-facet normal when it
    is interior, an outward normal when it sits on the boundary.  The
    residual re-verifies the value through the directional derivative.
    """
    x = as_point(x, f.dim)
    s = subdifferential(f, x)
    sigma, h = min_support_direction(s)
    nrm = float(np.linalg.norm(h))
    if nrm == 0.0:
        h = np.zeros(f.dim)
        h[0] = 1.0
        nrm = 1.0
    h = h / nrm
    dd = directional_derivative(f, x, h)
    residual = abs(dd - sigma)
    if abs(sigma) <= zero_tol:
        value = 0.0
        tag = OriginTag.ON_BOUNDARY
    elif sigma < 0:
        value = sigma
        tag = OriginTag.OUTSIDE
    else:
        value = sigma
        tag = OriginTag.INTERIOR
    h = h.copy()
    h.setflags(write=False)
    return BetaCertificate(
        beta=value,
        witness=h,
        origin_location=OriginLocation(tag, zero_tol),
        residual=residual,
    )


def beta_sampled(f: ConvexExpr, x, n: int, seed: int = 0) -> float:
    """Independent sampling oracle for beta.

    Minimum of f'(x, .) over n low-discrepancy unit directions, then local
    pattern refinement on the sphere.  Always an upper bound on true beta.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    x = as_point(x, f.dim)
    hs = unit_directions(f.dim, n, seed)
    vals = directional_derivatives(f, x, hs)
    best = int(np.argmin(vals))
    _, val = _refine_direction_min(
        lambda h: directional_derivative(f, x, h), hs[best], float(vals[best]))
    return val


def beta_of_linear_perturbation(f: ConvexExpr, x, u, eps: float,
                                xbar) -> BetaCertificate:
    """beta certificate of g = f + eps * <u, . - xbar> at x.

    The perturbation translates every subdifferential generator by eps * u,
    which is exactly what the expression-level sum realizes.
    """
    u = np.asarray(u, dtype=float)
    if np.linalg.norm(u) > 1.0 + 1e-12:
        raise ValueError("perturbation direction must satisfy ||u|| <= 1")
    g = linear_perturbation(f, u, eps, xbar)
    return beta(g, x)
