"""Semi-infinite convex constraint systems {f_i <= 0, i in I}.

A system is analyzed through its sup function f = max_i f_i and the active
index sets attaining the sup.  Every index set is finite: a label list, or
the uniform grid that stands for a closed parameter interval.  The sup is
the max over those members, the one function ``materialize_sup`` builds;
a finer sup in the parameter needs a larger grid.  Its value, directional
derivative, subdifferential, active set and stability verdicts are those
of that ``Max`` node; this module labels its active set and checks the
inclusion between the active sets of a system and its perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import ConvexExpr, Max, _fmt, as_point
from .sphere import BetaCertificate, beta


@dataclass(frozen=True)
class ActiveSet:
    """Labels of the members attaining the sup at a point, and the sup."""

    indices: tuple
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


def active_set(family: FiniteFamily, x) -> ActiveSet:
    """The labels of the members that ``materialize_sup(family)`` reads as
    active at x (``Max._active``): the one active set that its directional
    derivative and subdifferential, and so beta, read."""
    idx, sup = materialize_sup(family)._active(as_point(x, family.dim))
    return ActiveSet(indices=tuple(family.labels[i] for i in idx),
                     sup_value=float(sup))


def materialize_sup(family: FiniteFamily) -> ConvexExpr:
    """The sup function as a finite max expression over the members."""
    return Max(family.members)


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
                                family_g: FiniteFamily, x,
                                cert: BetaCertificate | None = None
                                ) -> HypothesisCheck:
    """Check the inclusion between active sets that the stability transfer
    needs: I_g subset of I_f when beta < 0, I_f subset of I_g when beta > 0.

    beta is that of family_f's sup at x.  A caller that already holds its
    certificate passes it as cert, and the check reads it (at its own
    tolerance) instead of computing beta again at ZERO_TOL.
    """
    if family_f.labels != family_g.labels:
        raise ValueError("families must share one index set")
    x = as_point(x, family_f.dim)
    if cert is None:
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
