"""Deterministic low-discrepancy sampling on boxes, balls and spheres.

A Kronecker (additive-recurrence) sequence drives all sampling.  The seed
only shifts the sequence's starting phase, so results are reproducible and
independent of evaluation order or parallelism.  The ball and sphere
samplers and ``low_discrepancy`` also take a sequence of seeds: they then
return the points of each seed in turn, seed-major, as one array whose
rows are bit for bit those of the one-seed calls.
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


def _seeds(seed) -> list:
    return [seed] if np.ndim(seed) == 0 else list(seed)


def _phases(d: int, seed) -> np.ndarray:
    """One starting phase in [0,1)^d per seed, as rows."""
    return np.array([np.random.default_rng(s).random(d) for s in _seeds(seed)])


def low_discrepancy(d: int, n: int, seed=0) -> np.ndarray:
    """n quasi-uniform points in the unit cube [0,1)^d.

    seed may be a sequence of seeds: then the n points of each, seed-major,
    as one (len(seed) * n, d) array."""
    steps = np.arange(1, n + 1, dtype=float)[:, None] * _kronecker_alphas(d)[None, :]
    # x - floor(x) is exact for x >= 0 and equals x % 1.0 bit for bit
    x = steps[None] + _phases(d, seed)[:, None]
    x -= np.floor(x)
    return x.reshape(-1, d)


def unit_directions(m: int, n: int, seed=0, u=None) -> np.ndarray:
    """n quasi-uniform unit vectors in R^m.

    For m = 1 the sphere is {-1, +1}; otherwise Box-Muller applied to
    quasi-random pairs, normalized to length one.  The vectors are read
    from the leading 2 * ceil(m / 2) columns of u, rows of uniforms in
    [0,1), by default the low_discrepancy draw of just those columns.
    seed may be a sequence of seeds: then the n vectors of each,
    seed-major, as one (len(seed) * n, m) array."""
    pairs = 2 * ((m + 1) // 2)
    if u is None:
        u = low_discrepancy(pairs, n, seed)
    if m == 1:
        return np.where(u[:, :1] < 0.5, -1.0, 1.0)
    u1 = np.clip(u[:, 0:pairs:2], 1e-12, 1.0)
    u2 = u[:, 1:pairs:2]
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty((u.shape[0], pairs))
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


def ball_points(center: np.ndarray, radius, n: int, seed=0) -> np.ndarray:
    """n quasi-uniform points in the closed ball around center.

    radius and seed may be equal-length sequences: then the n points of
    each (radius, seed) pair, pair-major, as one (len(seed) * n, m) array,
    each block bit for bit the one-pair call.  Each seed makes one phase:
    the directions read its leading coordinates and the radius takes the
    Kronecker coordinate just past them, so that no two share a step."""
    center = np.asarray(center, dtype=float)
    m = center.shape[0]
    pairs = 2 * ((m + 1) // 2)
    scale = np.broadcast_to(np.asarray(radius, dtype=float), (len(_seeds(seed)),))
    u = low_discrepancy(pairs + 1, n, seed)
    radii = np.repeat(scale, n) * u[:, pairs] ** (1.0 / m)
    return center[None, :] + radii[:, None] * unit_directions(m, n, u=u)
