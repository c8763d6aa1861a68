"""Minimum of the directional derivative over the unit sphere.

beta(f, x) = min over unit h of f'(x, h) is the certificate quantity for
error-bound stability: its sign locates the origin relative to the
subdifferential (negative: outside, positive: interior, zero: boundary),
and its magnitude is the signed distance.  It is -||grad f|| where f is
differentiable, and exact geometry of the subdifferential at kinks.  The
test suite cross-checks it against sampling over the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import (
    Affine,
    ConvexExpr,
    Sum,
    as_point,
    directional_derivative,
    subdifferential,
)
from .geometry import (MIN_NORM_TOL, OriginLocation, OriginTag, SubdiffSet,
                       _row_norm, min_support_direction)

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
    subdiff: the subdifferential at x where beta comes from its geometry,
        None where it comes from the gradient; not part of the payload.
    """

    beta: float
    witness: np.ndarray
    origin_location: OriginLocation
    residual: float
    subdiff: SubdiffSet | None = field(default=None, repr=False)

    @property
    def is_zero(self) -> bool:
        return self.origin_location.tag is OriginTag.ON_BOUNDARY

    def payload(self) -> dict:
        return {
            "beta": self.beta,
            "witness": self.witness,
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


def _gradient_screen(f: ConvexExpr, P: np.ndarray):
    """(G, n, scalar): G the minimum-norm subgradient and n its norm at
    every row of P where f is differentiable, and the rows that are not.

    There the subdifferential is the gradient alone, bit for bit; where its
    ``_row_norm`` is at most MIN_NORM_TOL, G and n are zero, as in
    min_norm_point, so n is that hull_dist.  Kink rows and rows with a
    non-finite gradient are returned by index for the scalar
    subdifferential, with its exact geometry and its errors.  Each row
    depends on that row alone.
    """
    G, kink = f._grad_batch(P)
    n = _row_norm(G)
    origin = n <= MIN_NORM_TOL
    return (np.where(origin[:, None], 0.0, G), np.where(origin, 0.0, n),
            np.flatnonzero(kink | ~np.isfinite(n)))


def _betas(f: ConvexExpr, P: np.ndarray) -> np.ndarray:
    """beta at every row of P, each row independent of the rest: -||grad f||
    by ``_row_norm`` (0 at or below ZERO_TOL) where ``_gradient_screen``
    gives the gradient, the geometric certificate at the rows it returns;
    ``eta_local`` reads d(0, subdifferential) off it where beta < 0."""
    _, d, scalar = _gradient_screen(f, P)
    out = np.where(d <= ZERO_TOL, 0.0, -d)
    for i in scalar:
        out[i] = _geometric_beta(f, P[i], ZERO_TOL).beta
    return out


def beta(f: ConvexExpr, x, zero_tol: float = ZERO_TOL) -> BetaCertificate:
    """Exact beta certificate; at ZERO_TOL, one row of ``_betas``.

    Where f is differentiable with ||grad f|| > zero_tol, beta = -||grad f||
    with witness -grad f / ||grad f||.  Elsewhere the witness is the
    minimizing support direction of the subdifferential (separation
    direction, nearest-facet normal or outward normal).  The residual
    re-verifies the value through the directional derivative.
    """
    x = as_point(x, f.dim)
    G, d, scalar = _gradient_screen(f, x[None])
    d = float(d[0])
    if scalar.size or d <= zero_tol:
        return _geometric_beta(f, x, zero_tol)
    h = G[0] / -d
    h.setflags(write=False)
    return BetaCertificate(-d, h, OriginLocation(OriginTag.OUTSIDE, zero_tol),
                           abs(directional_derivative(f, x, h) + d))


def _geometric_beta(f: ConvexExpr, x, zero_tol: float) -> BetaCertificate:
    """beta from min_support_direction of the subdifferential at x."""
    subdiff = subdifferential(f, x)
    sigma, h = min_support_direction(subdiff)
    nrm = float(np.linalg.norm(h))
    if nrm == 0.0:
        h, nrm = np.eye(f.dim)[0], 1.0
    h = h / nrm
    if abs(sigma) <= zero_tol:
        value, tag = 0.0, OriginTag.ON_BOUNDARY
    else:
        value = sigma
        tag = OriginTag.OUTSIDE if sigma < 0 else OriginTag.INTERIOR
    h.setflags(write=False)
    return BetaCertificate(value, h, OriginLocation(tag, zero_tol),
                           abs(directional_derivative(f, x, h) - sigma), subdiff)
