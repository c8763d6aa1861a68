"""Deterministic low-discrepancy sampling on boxes, balls and spheres.

A Kronecker (additive-recurrence) sequence drives all sampling.  The seed
only shifts the sequence's starting phase, so results are reproducible and
independent of evaluation order or parallelism.
"""

from __future__ import annotations

import math

import numpy as np


def _kronecker_alphas(d: int) -> np.ndarray:
    """Irrational step vector: fractional parts of square roots of primes."""
    primes = []
    n = 2
    while len(primes) < d:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return np.sqrt(np.array(primes, dtype=float)) % 1.0


def _phase(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random(d)


def low_discrepancy(d: int, n: int, seed: int = 0) -> np.ndarray:
    """n quasi-uniform points in the unit cube [0,1)^d."""
    alphas = _kronecker_alphas(d)
    idx = np.arange(1, n + 1, dtype=float)[:, None]
    return (idx * alphas[None, :] + _phase(d, seed)[None, :]) % 1.0


def unit_directions(m: int, n: int, seed: int = 0) -> np.ndarray:
    """n quasi-uniform unit vectors in R^m.

    For m = 1 the sphere is {-1, +1}; otherwise Box-Muller applied to
    quasi-random pairs, normalized to length one.
    """
    if m == 1:
        signs = np.where(low_discrepancy(1, n, seed)[:, 0] < 0.5, -1.0, 1.0)
        return signs[:, None]
    pairs = 2 * ((m + 1) // 2)
    u = low_discrepancy(pairs, n, seed)
    u1 = np.clip(u[:, 0::2], 1e-12, 1.0)
    u2 = u[:, 1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty((n, pairs))
    z[:, 0::2] = radius * np.cos(2 * math.pi * u2)
    z[:, 1::2] = radius * np.sin(2 * math.pi * u2)
    z = z[:, :m]
    norms = np.linalg.norm(z, axis=1)
    bad = norms < 1e-12
    if np.any(bad):
        z[bad] = np.eye(m)[0]
        norms[bad] = 1.0
    return z / norms[:, None]


def box_points(lo: np.ndarray, hi: np.ndarray, n: int, seed: int = 0) -> np.ndarray:
    """n quasi-uniform points in the axis-aligned box [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    u = low_discrepancy(lo.shape[0], n, seed)
    return lo[None, :] + u * (hi - lo)[None, :]


def ball_points(center: np.ndarray, radius: float, n: int, seed: int = 0) -> np.ndarray:
    """n quasi-uniform points in the closed ball around center.

    The radius takes the Kronecker coordinate just past the ones the
    directions use, so that no two share a step."""
    center = np.asarray(center, dtype=float)
    m = center.shape[0]
    dirs = unit_directions(m, n, seed)
    pairs = 2 * ((m + 1) // 2)     # unit_directions reads no more than these
    u = low_discrepancy(pairs + 1, n, seed)[:, pairs]
    radii = radius * u ** (1.0 / m)
    return center[None, :] + radii[:, None] * dirs
