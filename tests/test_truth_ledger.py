"""The truth ledger: the exact answer to each bench problem, against what
the CLI reports at seed 0.

The exact values are derived by hand: the beta values and the corner-ray
tau = sqrt(2) in the ``bench/workloads.py`` docstring, the local tau
values from the subdifferential at the reference point (``local_modulus``),
poly3_box's tau* = 1/(1/2 + 1/sqrt(3)) as d/f along the cube diagonal, and
exp1_box's tau* = 1 as the limit of x/(e^x - 1) at 0.

- "==" rows must match to 1e-12 relative (exact paths);
- "<=" rows are sampled suprema, which may only read low:
  value <= exact * (1 + 1e-9);
- ">=" rows are sampled infima, which may only read high:
  value >= exact * (1 - 1e-9);
- verdict rows must read the verdict the exact values give.

A row the engine still gets wrong is a strict xfail naming the ROADMAP
item that would mend it, so that the mend turns it into a failure and the
mark has to go: the ledger only tightens.
"""

import contextlib
import functools
import io
import json
import math
from pathlib import Path

import pytest

from ebstab.cli import main

PROBLEMS = Path(__file__).resolve().parents[1] / "bench" / "problems"
ROOT2 = math.sqrt(2.0)
POLY3_BETA = 0.5 + 1.0 / math.sqrt(3.0)

ITEM = {4: "ROADMAP item 4, the exact global polyhedral path",
        5: "ROADMAP item 5, certified box bounds by branch and bound"}


def _wrong(item, what):
    return f"{ITEM[item]}, would give the exact {what}; the sample misses it"


@functools.cache
def _results(argv: tuple) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, "--seed", "0", "--format", "json"]) == 0
    return json.loads(out.getvalue())["results"]


def _local_tau(stem):
    return _results(("analyze-local", str(PROBLEMS / f"{stem}.eb")))["modulus"]["tau"]


def _global(stem, *extra):
    return _results(("analyze-global", str(PROBLEMS / f"{stem}.eb"), *extra))


def _row(name, read, relation, exact, reason=None):
    marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
    return pytest.param(read, relation, exact, id=name, marks=marks)


LEDGER = [
    _row("local tau exp1", lambda: _local_tau("exp1"), "==", 1.0),
    _row("local tau linf2", lambda: _local_tau("linf2"), "==", 1.0),
    _row("local tau poly3", lambda: _local_tau("poly3"), "==", 2.0 / 3.0),
    _row("local tau l1ball5", lambda: _local_tau("l1ball5"), "==", 1.0),
    _row("local tau family2", lambda: _local_tau("family2"), "==", ROOT2),
    _row("local tau norm3", lambda: _local_tau("norm3"), "==", 1.0),
    _row("local tau l1norm4", lambda: _local_tau("l1norm4"), "==", 1.0),
    _row("local tau l1norm5", lambda: _local_tau("l1norm5"), "==", 1.0),
]
for stem, tau, beta_inf, tau_item, beta_item in (
        ("exp1_box", 1.0, 1.0, 5, None),
        ("linf2_box", ROOT2, 1.0 / ROOT2, 4, 4),
        ("family2_box", ROOT2, 1.0 / ROOT2, 4, 4),
        ("poly3_box", 1.0 / POLY3_BETA, POLY3_BETA, 5, 5)):
    def tau_of(stem=stem):
        return _global(stem)["modulus"]["tau"]

    def beta_of(stem=stem):
        return _global(stem)["stability"]["beta_inf"]

    LEDGER += [
        _row(f"global tau {stem} reads low", tau_of, "<=", tau),
        _row(f"global tau {stem}", tau_of, "==", tau,
             tau_item and _wrong(tau_item, "sup of d/f")),
        _row(f"inf |beta| {stem} reads high", beta_of, ">=", beta_inf),
        _row(f"inf |beta| {stem}", beta_of, "==", beta_inf,
             beta_item and _wrong(beta_item, "boundary inf |beta|")),
    ]
for stem, tau in (("linf2_box", "0.9"), ("family2_box", "0.9"),
                  ("poly3_box", "1.2")):
    LEDGER.append(_row(
        f"verdict {stem} at tau {tau}",
        lambda stem=stem, tau=tau: _global(stem, "--tau", tau)["stability"]["verdict"],
        "verdict", "unstable"))


@pytest.mark.parametrize("read, relation, exact", LEDGER)
def test_truth_ledger(read, relation, exact):
    got = read()
    if relation == "verdict":
        assert got == exact
    elif relation == "==":
        assert abs(got - exact) <= 1e-12 * abs(exact)
    elif relation == "<=":
        assert got <= exact * (1.0 + 1e-9)
    else:
        assert got >= exact * (1.0 - 1e-9)
