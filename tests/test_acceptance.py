"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see the criterion log.
"""

import json
import math

import numpy as np

from ebstab.cli import main
from ebstab.expressions import (
    AbsCoord,
    Affine,
    Const,
    Exp1D,
    Max,
    PosPartSquare,
    Sum,
    directional_derivative,
    evaluate,
    subdifferential,
)
from ebstab.geometry import min_norm_point
from ebstab.moduli import (box_sample, classify_local_stability,
                           distance_to_solution_set, eta_local, find_slater_point)
from ebstab.scenarios import reproduce
from ebstab.sphere import beta, linear_perturbation
from ebstab.systems import FiniteFamily, materialize_sup

from conftest import (dd_quotient_scan, max_rule_dd, random_expr, random_point,
                      random_unit, support)


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_separation_identity():
    # 200 randomized expressions, m in 1..4, points with beta < 0:
    # |-beta - d(0, subdifferential)| <= 1e-8 in 100% of cases
    rng = np.random.default_rng(101)
    checked = 0
    worst = 0.0
    while checked < 200:
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m)
        x = random_point(rng, m)
        cert = beta(f, x)
        if cert.beta >= -1e-6:
            continue
        checked += 1
        dist = min_norm_point(subdifferential(f, x)).dist
        worst = max(worst, abs(-cert.beta - dist))
    _report("criterion 1: beta-distance identity suite (200 cases, 1e-8)",
            worst <= 1e-8, f"worst |beta + dist| = {worst:.2e}")


def test_criterion_2_quotients_and_support():
    # quotient monotonicity and the support identity at 1e-9 on 200 triples
    rng = np.random.default_rng(102)
    grid = [1.0, 0.5, 0.25, 0.1, 0.05]
    worst_mono = 0.0
    worst_support = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 5))
        f = random_expr(rng, m)
        x = random_point(rng, m)
        h = random_unit(rng, m)
        q = dd_quotient_scan(f, x, h, grid)
        dd = directional_derivative(f, x, h)
        for a, b in zip(q, q[1:]):
            worst_mono = max(worst_mono, b - a)
        worst_mono = max(worst_mono, dd - q[-1])
        sup = support(subdifferential(f, x), h)[0]
        worst_support = max(worst_support, abs(dd - sup) / (1.0 + abs(dd)))
    ok = worst_mono <= 1e-9 and worst_support <= 1e-9
    _report("criterion 2: quotient monotonicity + support identity (1e-9)",
            ok, f"mono residual {worst_mono:.2e}, support residual {worst_support:.2e}")


def test_criterion_3_max_formula():
    # the pointwise-max rule over the active members gives the directional
    # derivative of the materialized max, 1e-10, on 200 randomized finite
    # families
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 4))
        members = [random_expr(rng, m, depth=1, allow_ball=False)
                   for _ in range(int(rng.integers(2, 5)))]
        fam = FiniteFamily(members)
        x, h = random_point(rng, m), random_point(rng, m)
        got = max_rule_dd(fam, x, h)
        want = directional_derivative(materialize_sup(fam), x, h)
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    _report("criterion 3: sup-function max formula (200 families, 1e-10)",
            worst <= 1e-10, f"worst residual {worst:.2e}")


def test_criterion_4_rem8():
    rep = reproduce("REM8", seed=0)
    detail = "; ".join(c.label for c in rep.checks if not c.passed) or "all checks"
    _report("criterion 4: exp tail scenario (beta, ratio bound, QC witnesses)",
            rep.passed, detail)


def test_criterion_5_rem10():
    rep = reproduce("REM10", seed=0)
    f = Exp1D(0, -1.0, 1)
    worst = max(abs(beta(f, [-float(k)]).beta + math.exp(-float(k)))
                for k in (1, 5, 10, 20))
    _report("criterion 5: interior beta values (1e-9)",
            rep.passed and worst <= 1e-9, f"worst error {worst:.2e}")


def test_criterion_6_rem12a():
    rep = reproduce("REM12A", seed=0)
    b = beta(Max([AbsCoord(0, 2), AbsCoord(1, 2)]), [0.0, 0.0]).beta
    exact = abs(b - math.sqrt(2.0) / 2.0) <= 1e-12
    detail = "; ".join(c.label for c in rep.checks if not c.passed) or \
        f"beta error {abs(b - math.sqrt(2.0) / 2.0):.2e}"
    _report("criterion 6: abs-pair system scenario (beta, modulus, inclusion)",
            rep.passed and exact, detail)


def test_criterion_7_rem12b():
    rep = reproduce("REM12B", seed=0)
    f2 = Sum([(1.0, Affine([-1.0, 0.0], -1.0)), (1.0, AbsCoord(1, 2))])
    b = beta(Max([Affine([1.0, 0.0], 0.0), f2]), [0.0, 0.0]).beta
    detail = "; ".join(c.label for c in rep.checks if not c.passed) or \
        f"beta = {b}"
    _report("criterion 7: halfplane system scenario (beta, modulus, inclusion)",
            rep.passed and b == -1.0, detail)


def test_criterion_8_hoffman():
    rep = reproduce("HOFFMAN", seed=0)
    detail = "; ".join(
        f"{c.label}: {c.observed}" for c in rep.checks
    )
    _report("criterion 8: affine/polyhedral oracle agreement", rep.passed, detail)


def test_criterion_9_local_dichotomy():
    # verdict is stable exactly when |beta| > 1e-9 on the suite problems,
    # and the attached destabilizer drives the local modulus past 1/(2 eps)
    linf = Sum([(1.0, Max([AbsCoord(0, 2), AbsCoord(1, 2)])), (1.0, Const(-1.0, 2))])
    f2 = Sum([(1.0, Affine([-1.0, 0.0], -1.0)), (1.0, AbsCoord(1, 2))])
    suite = [
        (Exp1D(0, -1.0, 1), [0.0]),
        (Max([AbsCoord(0, 2), AbsCoord(1, 2)]), [0.0, 0.0]),
        (Max([Affine([1.0, 0.0], 0.0), f2]), [0.0, 0.0]),
        (PosPartSquare(0, 1), [0.0]),
        (Const(0.0, 1), [0.0]),
        (Affine([2.0, 1.0], 0.0), [0.0, 0.0]),
        (linf, [1.0, 0.0]),
    ]
    ok = True
    details = []
    for f, x in suite:
        cert = beta(f, x)
        verdict = classify_local_stability(f, x)
        want = "stable" if abs(cert.beta) > 1e-9 else "unstable"
        if verdict.verdict != want:
            ok = False
            details.append(f"{type(f).__name__}@{x}: got {verdict.verdict}")

    eps = 0.01
    v = classify_local_stability(PosPartSquare(0, 1), [0.0])
    h0 = v.perturbation_direction
    g = linear_perturbation(PosPartSquare(0, 1), h0, eps, [0.0])
    x_test = 1e-6 * h0
    slater = find_slater_point(
        box_sample(g, (np.array([-1.0]), np.array([1.0])), 1024))
    ratio = distance_to_solution_set(g, x_test, slater) / evaluate(g, x_test)
    tau_local = eta_local(g, [0.0], levels=10, samples_per_level=128,
                          seed=0).tau_estimate
    bound = 1.0 / (2.0 * eps)
    if ratio < bound or tau_local < bound:
        ok = False
        details.append(f"destabilizer ratio {ratio:.1f}, tau {tau_local:.1f}")
    _report("criterion 9: local stability dichotomy + destabilizing family",
            ok, "; ".join(details) or f"ratio {ratio:.1f} >= {bound:.0f}")


def test_criterion_10_determinism(tmp_path, capsys):
    # two runs of the full reproduction-and-analysis suite with seed 0
    # produce byte-identical json reports
    exp_file = tmp_path / "exp.eb"
    exp_file.write_text("dim 1\nexpr (exp1d 0 -1)\npoint [0.0]\n"
                        "box -10.0..2.0\ntau 0.5\n", encoding="utf-8")
    ball_file = tmp_path / "ball.eb"
    ball_file.write_text(
        "name linf-ball\ndim 2\n"
        "expr (sum 1 (max (abs 0) (abs 1)) 1 (const -1.0))\n"
        "slater [0.0, 0.0]\npoint [1.0, 0.0]\nbox -3.0..3.0 -3.0..3.0\n"
        "tau 0.5\n", encoding="utf-8")

    commands = [
        ["reproduce", name, "--seed", "0", "--format", "json"]
        for name in ("REM8", "REM10", "REM12A", "REM12B", "T32-ZERO-BETA", "HOFFMAN")
    ] + [
        ["analyze-local", str(exp_file), "--at", "0", "--seed", "0",
         "--format", "json", "--samples", "64", "--levels", "4"],
        ["analyze-global", str(ball_file), "--seed", "0", "--format", "json",
         "--samples", "128"],
        ["perturb", str(exp_file), "--at", "0", "--eps", "0.1,0.01",
         "--dir", "-1", "--seed", "0", "--format", "json",
         "--samples", "32", "--levels", "3"],
    ]

    def run_suite():
        chunks = []
        for args in commands:
            code = main(args)
            out = capsys.readouterr().out
            assert code == 0, f"command {args} exited {code}"
            json.loads(out)  # must be valid json
            chunks.append(out)
        return "".join(chunks)

    first = run_suite()
    second = run_suite()
    _report("criterion 10: byte-identical json across two seeded runs",
            first == second, f"{len(first)} bytes compared")
