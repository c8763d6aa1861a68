"""Semi-infinite convex constraint systems {f_i <= 0, i in I}.

A system is analyzed through its sup function f = max_i f_i and the active
index sets attaining the sup.  Index sets are compact: a finite label list,
or a closed interval realized as a uniform grid with local refinement of
the sup in the parameter.  The pointwise-max rule gives the directional
derivative and subdifferential of the sup function from the active members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import ConvexExpr, Max, as_point, directional_derivative
from .geometry import SubdiffSet, merge_active_subdiffs
from .moduli import (StabilityVerdict, box_sample, classify_global_stability,
                     classify_local_stability)
from .sphere import beta, with_linear_term

SYSTEM_ACTIVE_TOL = 1e-8


@dataclass(frozen=True)
class ActiveSet:
    """Indices attaining the sup at a point, with the tolerance used."""

    indices: tuple
    tolerance: float
    sup_value: float


class IndexedFamily:
    """Base interface: a compact index set with a convex member per index."""

    dim: int

    def grid_indices(self):
        raise NotImplementedError

    def member(self, i) -> ConvexExpr:
        raise NotImplementedError


class FiniteFamily(IndexedFamily):
    """Finitely many members with hashable labels (default 1..n)."""

    def __init__(self, members, labels=None):
        members = tuple(members)
        if not members:
            raise ValueError("family needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise ValueError("family members must share one dimension")
        if labels is None:
            labels = tuple(range(1, len(members) + 1))
        else:
            labels = tuple(labels)
            if len(labels) != len(members):
                raise ValueError("labels must match members")
        self.members = members
        self.labels = labels
        self.dim = members[0].dim
        self._by_label = dict(zip(labels, members))

    def grid_indices(self):
        return self.labels

    def member(self, i) -> ConvexExpr:
        return self._by_label[i]


class IntervalFamily(IndexedFamily):
    """Members indexed by a closed parameter interval, instantiated from a
    rule continuous in the parameter; sup computations use a uniform grid
    plus local refinement.  Grid members are cached; the off-grid members
    the refinement visits are built afresh, so the cache never holds more
    than grid_count members."""

    def __init__(self, lo: float, hi: float, grid_count: int, rule,
                 template_text: str | None = None):
        if grid_count < 2:
            raise ValueError("grid_count must be at least 2")
        if not hi > lo:
            raise ValueError("interval must have positive length")
        self.lo = float(lo)
        self.hi = float(hi)
        self.grid_count = int(grid_count)
        self.rule = rule
        self.template_text = template_text
        self._cache: dict = {}
        self._grid_keys = frozenset(map(float, self.grid_indices()))
        probe = self.member(self.lo)
        self.dim = probe.dim

    def grid_indices(self):
        return tuple(np.linspace(self.lo, self.hi, self.grid_count))

    def member(self, i) -> ConvexExpr:
        key = float(i)
        member = self._cache.get(key)
        if member is None:
            member = self.rule(key)
            if key in self._grid_keys:
                self._cache[key] = member
        return member


def _refined_argmax(family: IntervalFamily, x) -> float:
    """Parameter maximizing f_t(x): grid argmax plus ternary refinement on
    the neighboring cells."""
    grid = family.grid_indices()
    vals = [family.member(t)._value(x) for t in grid]
    j = int(np.argmax(vals))
    a = float(grid[max(0, j - 1)])
    b = float(grid[min(len(grid) - 1, j + 1)])
    for _ in range(60):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if family.member(m1)._value(x) < family.member(m2)._value(x):
            a = m1
        else:
            b = m2
    return 0.5 * (a + b)


def _sup(family: IndexedFamily, x):
    """(sup, t_star): max over the index set of f_i(x) and, for interval
    families, the refined argmax t_star (None for finite families)."""
    grid_max = max(family.member(i)._value(x) for i in family.grid_indices())
    if isinstance(family, FiniteFamily):
        return grid_max, None
    t_star = _refined_argmax(family, x)
    return max(grid_max, family.member(t_star)._value(x)), t_star


def sup_value(family: IndexedFamily, x) -> float:
    """max over the index set of f_i(x); interval families refine the grid
    maximum by a local 1-D search on the parameter."""
    return _sup(family, as_point(x, family.dim))[0]


def active_set(family: IndexedFamily, x, eps_act: float | None = None) -> ActiveSet:
    """Indices whose member value reaches the sup within tolerance.

    The default tolerance 1e-8 * (1 + |f(x)|) is looser than the expression
    level one because interval grids contribute refinement error.
    """
    x = as_point(x, family.dim)
    sup, t_star = _sup(family, x)
    if eps_act is None:
        eps_act = SYSTEM_ACTIVE_TOL * (1.0 + abs(sup))
    if eps_act <= 0:
        raise ValueError("eps_act must be positive")
    idx = [
        i for i in family.grid_indices()
        if family.member(i)._value(x) >= sup - eps_act
    ]
    if t_star is not None:
        if family.member(t_star)._value(x) >= sup - eps_act and not any(
            abs(t_star - t) <= 1e-12 for t in idx
        ):
            idx.append(t_star)
    if not idx:
        idx = [max(family.grid_indices(),
                   key=lambda i: family.member(i)._value(x))]
    return ActiveSet(indices=tuple(idx), tolerance=float(eps_act), sup_value=sup)


def dd_max_formula(family: IndexedFamily, x, h) -> float:
    """Directional derivative of the sup via the pointwise-max rule:
    max over active members of their directional derivatives."""
    x = as_point(x, family.dim)
    act = active_set(family, x)
    return max(
        directional_derivative(family.member(i), x, h) for i in act.indices
    )


def system_subdifferential(family: IndexedFamily, x) -> SubdiffSet:
    """Subdifferential of the sup: hull of the union of active members'
    subdifferentials (merged under the expression-level exactness rules)."""
    x = as_point(x, family.dim)
    act = active_set(family, x)
    return merge_active_subdiffs(
        [family.member(i)._subdiff(x) for i in act.indices]
    )


def materialize_sup(family: IndexedFamily) -> ConvexExpr:
    """The sup function as a finite max expression (grid members for
    interval families)."""
    return Max([family.member(i) for i in family.grid_indices()])


def perturb_system(family: IndexedFamily, u, eps: float, xbar) -> IndexedFamily:
    """Apply the same linear perturbation eps * <u, . - xbar> to every
    member; the sup function shifts by exactly that linear term."""
    u = np.asarray(u, dtype=float)
    if np.linalg.norm(u) > 1.0 + 1e-12:
        raise ValueError("perturbation direction must satisfy ||u|| <= 1")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    xbar = as_point(xbar, family.dim)
    a = eps * u
    b = -eps * float(u @ xbar)
    if isinstance(family, FiniteFamily):
        return FiniteFamily(
            [with_linear_term(m, a, b) for m in family.members],
            labels=family.labels,
        )
    if isinstance(family, IntervalFamily):
        rule = family.rule
        return IntervalFamily(
            family.lo, family.hi, family.grid_count,
            lambda t: with_linear_term(rule(t), a, b),
        )
    raise TypeError(f"unknown family type {type(family)!r}")


@dataclass(frozen=True)
class HypothesisCheck:
    """Result of the active-set inclusion hypotheses between a system and
    its perturbation: which inclusion the beta sign requires, and whether
    it holds."""

    ok: bool
    required: str | None        # "I_g subset I_f" | "I_f subset I_g" | None
    violated_side: str | None   # set when not ok
    beta_value: float
    active_f: tuple
    active_g: tuple

    def payload(self) -> dict:
        return {
            "ok": self.ok,
            "required": self.required,
            "violated_side": self.violated_side,
            "beta": self.beta_value,
            "active_f": [str(i) for i in self.active_f],
            "active_g": [str(i) for i in self.active_g],
        }


def check_active_set_hypotheses(family_f: IndexedFamily,
                                family_g: IndexedFamily, x) -> HypothesisCheck:
    """Check the inclusion between active sets that the stability transfer
    needs: I_g subset of I_f when beta < 0, I_f subset of I_g when beta > 0.
    """
    if tuple(family_f.grid_indices()) != tuple(family_g.grid_indices()):
        raise ValueError("families must share one index set")
    x = as_point(x, family_f.dim)
    cert = beta(materialize_sup(family_f), x)
    act_f = set(active_set(family_f, x).indices)
    act_g = set(active_set(family_g, x).indices)
    if cert.is_zero:
        return HypothesisCheck(True, None, None, cert.beta,
                               tuple(sorted(act_f)), tuple(sorted(act_g)))
    if cert.beta < 0:
        ok = act_g <= act_f
        return HypothesisCheck(
            ok, "I_g subset I_f", None if ok else "I_g not subset I_f",
            cert.beta, tuple(sorted(act_f)), tuple(sorted(act_g)),
        )
    ok = act_f <= act_g
    return HypothesisCheck(
        ok, "I_f subset I_g", None if ok else "I_f not subset I_g",
        cert.beta, tuple(sorted(act_f)), tuple(sorted(act_g)),
    )


def classify_system_stability(family: IndexedFamily, xbar=None,
                              tau: float | None = None, box=None,
                              n: int = 512, seed: int = 0) -> StabilityVerdict:
    """Stability verdict for the system through its materialized sup
    function; the verdict notes record the active set at the reference
    point (local) or at sampled boundary points (global)."""
    sup = materialize_sup(family)
    if xbar is not None:
        verdict = classify_local_stability(sup, xbar)
        act = active_set(family, xbar)
        verdict.notes += (
            f"; active indices at the reference point: "
            f"{[str(i) for i in act.indices]}"
        )
        return verdict
    if tau is None or box is None:
        raise ValueError("global scope needs tau and box")
    verdict = classify_global_stability(sup, tau, box_sample(sup, box, n, seed))
    probes = []
    for w in verdict.qc_witnesses[:3]:
        probes.append((w.x, active_set(family, w.x).indices))
    if probes:
        shown = "; ".join(
            f"{[round(float(c), 6) for c in p]} -> {[str(i) for i in idx]}"
            for p, idx in probes
        )
        verdict.notes += f"; active indices at witnesses: {shown}"
    return verdict
