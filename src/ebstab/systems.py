"""Semi-infinite convex constraint systems {f_i <= 0, i in I}.

A system is analyzed through its sup function f = max_i f_i and the active
index sets attaining the sup.  Every index set is finite: a label list, or
the uniform grid that stands for a closed parameter interval.  The sup is
the max over those members, the one function ``materialize_sup`` builds;
a finer sup in the parameter needs a larger grid.  The pointwise-max rule
gives the directional derivative and subdifferential of the sup function
from the active members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import ConvexExpr, Max, _fmt, as_point, directional_derivative
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


class FiniteFamily:
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

    def _text(self) -> str:
        """The family line of a problem file."""
        return ("family finite ["
                + ", ".join(m._text() for m in self.members) + "]")


class IntervalFamily(FiniteFamily):
    """Members indexed by a closed parameter interval [lo, hi], realized as
    its uniform grid of grid_count points: the labels are the grid points
    and the member at each is rule(t), built once.  A parameter off the
    grid is not an index (``member`` raises KeyError)."""

    def __init__(self, lo: float, hi: float, grid_count: int, rule,
                 template_text: str | None = None):
        if grid_count < 2:
            raise ValueError("grid_count must be at least 2")
        if not hi > lo:
            raise ValueError("interval must have positive length")
        self.lo = float(lo)
        self.hi = float(hi)
        self.grid_count = int(grid_count)
        self.template_text = template_text
        grid = tuple(np.linspace(self.lo, self.hi, self.grid_count))
        super().__init__([rule(float(t)) for t in grid], labels=grid)

    def _text(self) -> str:
        if self.template_text is None:
            raise ValueError("interval family without template text cannot "
                             "be serialized")
        return (f"family interval {_fmt(self.lo)} {_fmt(self.hi)} "
                f"{self.grid_count} {self.template_text}")


def sup_value(family: FiniteFamily, x) -> float:
    """max over the index set of f_i(x), the value of ``materialize_sup``."""
    return materialize_sup(family)._value(as_point(x, family.dim))


def active_set(family: FiniteFamily, x, eps_act: float | None = None) -> ActiveSet:
    """Indices whose member value reaches the sup within tolerance.

    The default tolerance is 1e-8 * (1 + |f(x)|).
    """
    x = as_point(x, family.dim)
    vals = np.array([m._value(x) for m in family.members])
    sup = float(vals.max())
    if eps_act is None:
        eps_act = SYSTEM_ACTIVE_TOL * (1.0 + abs(sup))
    if eps_act <= 0:
        raise ValueError("eps_act must be positive")
    idx = tuple(i for i, v in zip(family.labels, vals) if v >= sup - eps_act)
    return ActiveSet(indices=idx, tolerance=float(eps_act), sup_value=sup)


def dd_max_formula(family: FiniteFamily, x, h) -> float:
    """Directional derivative of the sup via the pointwise-max rule:
    max over active members of their directional derivatives."""
    x = as_point(x, family.dim)
    act = active_set(family, x)
    return max(
        directional_derivative(family.member(i), x, h) for i in act.indices
    )


def system_subdifferential(family: FiniteFamily, x) -> SubdiffSet:
    """Subdifferential of the sup: hull of the union of active members'
    subdifferentials (merged under the expression-level exactness rules)."""
    x = as_point(x, family.dim)
    act = active_set(family, x)
    return merge_active_subdiffs(
        [family.member(i)._subdiff(x) for i in act.indices]
    )


def materialize_sup(family: FiniteFamily) -> ConvexExpr:
    """The sup function as a finite max expression over the members."""
    return Max(family.members)


def perturb_system(family: FiniteFamily, u, eps: float, xbar) -> FiniteFamily:
    """Apply the same linear perturbation eps * <u, . - xbar> to every
    member, keeping the labels; the sup function shifts by exactly that
    linear term."""
    u = np.asarray(u, dtype=float)
    if np.linalg.norm(u) > 1.0 + 1e-12:
        raise ValueError("perturbation direction must satisfy ||u|| <= 1")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    xbar = as_point(xbar, family.dim)
    a = eps * u
    b = -eps * float(u @ xbar)
    return FiniteFamily([with_linear_term(m, a, b) for m in family.members],
                        labels=family.labels)


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


def check_active_set_hypotheses(family_f: FiniteFamily,
                                family_g: FiniteFamily, x) -> HypothesisCheck:
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
        required, ok = None, True
    elif cert.beta < 0:
        required, ok = "I_g subset I_f", act_g <= act_f
    else:
        required, ok = "I_f subset I_g", act_f <= act_g
    return HypothesisCheck(
        ok, required, None if ok else required.replace("subset", "not subset"),
        cert.beta, tuple(sorted(act_f)), tuple(sorted(act_g)),
    )


def classify_system_stability(family: FiniteFamily, xbar=None,
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
