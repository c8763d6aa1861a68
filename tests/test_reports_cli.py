"""Report serialization, sweeps, and the command-line interface."""

import json
import math

import numpy as np
import pytest

from ebstab.cli import build_parser, main
from ebstab.errors import MinNormNonConvergence
from ebstab.moduli import ModulusReport, QCWitness, StabilityVerdict
from ebstab.problems import parse_problem
from ebstab.reports import SWEEP_CSV_HEADER, emit_report, make_envelope
from ebstab.sweep import run_perturbation_sweep

EXP_PROBLEM = "dim 1\nexpr (exp1d 0 -1)\npoint [0.0]\nbox -10.0..2.0\ntau 0.5\n"
BALL_PROBLEM = (
    "name linf-ball\ndim 2\n"
    "expr (sum 1 (max (abs 0) (abs 1)) 1 (const -1.0))\n"
    "slater [0.0, 0.0]\npoint [1.0, 0.0]\nbox -3.0..3.0 -3.0..3.0\ntau 0.5\n"
)


@pytest.fixture
def exp_file(tmp_path):
    path = tmp_path / "exp.eb"
    path.write_text(EXP_PROBLEM, encoding="utf-8")
    return str(path)


@pytest.fixture
def ball_file(tmp_path):
    path = tmp_path / "ball.eb"
    path.write_text(BALL_PROBLEM, encoding="utf-8")
    return str(path)


def test_sweep_rows_ordered_and_bounded(exp_file):
    problem = parse_problem(EXP_PROBLEM)
    res = run_perturbation_sweep(problem, [0.0], [np.array([-1.0])],
                                 [0.1, 0.01], box=problem.box, seed=0,
                                 levels=3, samples_per_level=32,
                                 global_samples=64)
    eps_seen = [row.epsilon for row in res.rows]
    assert eps_seen == sorted(eps_seen)
    for row in res.rows:
        shift = row.epsilon * float(np.linalg.norm(row.u_star))
        assert abs(row.beta_after - row.beta_before) <= shift + 1e-9


def test_sweep_zero_eps_row_unchanged():
    problem = parse_problem(EXP_PROBLEM)
    res = run_perturbation_sweep(problem, [0.0], [np.array([-1.0])], [0.0],
                                 box=problem.box, seed=0, levels=3,
                                 samples_per_level=32, global_samples=64)
    row = res.rows[0]
    assert row.beta_after == row.beta_before
    assert row.verdict == "stable"


def test_sweep_csv_header_pinned():
    problem = parse_problem(EXP_PROBLEM)
    res = run_perturbation_sweep(problem, [0.0], [np.array([-1.0])], [0.1],
                                 box=problem.box, seed=0, levels=2,
                                 samples_per_level=16, global_samples=32)
    text = emit_report(res, "csv")
    assert text.splitlines()[0] == SWEEP_CSV_HEADER
    assert SWEEP_CSV_HEADER == "epsilon,u_star,beta_before,beta_after,tau_local,tau_global,verdict"


def test_json_encodes_infinity_as_string():
    rep = ModulusReport(kind="global", eta_estimate=math.inf, tau_estimate=0.0,
                        sample_count=10, vacuous=True)
    payload = json.loads(emit_report(rep, "json"))
    assert payload["eta"] == "inf"
    assert payload["vacuous"] is True


def test_unstable_verdict_json_has_witnesses():
    w = QCWitness(z=np.array([-20.0]), x=np.array([0.0]), ratio=-0.01,
                  beta_z=1e-9)
    v = StabilityVerdict(scope="global", verdict="unstable", beta_inf=1.0,
                         qc_witnesses=[w], tau=0.5)
    payload = json.loads(emit_report(v, "json"))
    assert payload["verdict"] == "unstable"
    assert len(payload["witnesses"]) == 1


def test_human_format_smoke():
    env = make_envelope("analyze-local", "p", 0, {"alpha": [1, 2], "beta": {"x": 1}})
    text = emit_report(env, "human")
    assert "analyze-local" in text
    assert "alpha" in text


def test_cli_analyze_local_json(exp_file, capsys):
    assert main(["analyze-local", exp_file, "--at", "0", "--format", "json",
                 "--samples", "32", "--levels", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "eb-report/1"
    assert payload["results"]["beta"]["beta"] == -1.0
    assert payload["results"]["stability"]["verdict"] == "stable"


def test_cli_analyze_local_tol_reaches_verdict(tmp_path, capsys):
    # beta = -1e-7 is zero at --tol 1e-6: the verdict must agree with the
    # on-boundary beta certificate in the same report
    path = tmp_path / "tilt.eb"
    path.write_text("dim 1\nexpr (sum 1 (pospart2 0) 1 (affine [1e-7] 0.0))\n",
                    encoding="utf-8")
    assert main(["analyze-local", str(path), "--at", "0", "--tol", "1e-6",
                 "--format", "json", "--samples", "16", "--levels", "2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["beta"]["origin"] == "on-boundary"
    assert results["stability"]["verdict"] == "unstable"


def test_cli_analyze_local_computes_beta_once(tmp_path, monkeypatch, capsys):
    # ||x||_1 at the origin of R^4: the verdict reuses the report's beta
    # certificate, so the interior-beta facet enumeration runs once
    from ebstab import geometry

    path = tmp_path / "l1norm4.eb"
    path.write_text("dim 4\nexpr (sum 1 (abs 0) 1 (abs 1) 1 (abs 2) 1 (abs 3))\n"
                    "point [0.0, 0.0, 0.0, 0.0]\n", encoding="utf-8")
    calls = []
    inradius = geometry._inradius_at_origin

    def counted(g):
        calls.append(g.shape)
        return inradius(g)

    monkeypatch.setattr(geometry, "_inradius_at_origin", counted)
    assert main(["analyze-local", str(path), "--format", "json",
                 "--samples", "16", "--levels", "2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["beta"]["beta"] == pytest.approx(1.0)
    assert results["stability"]["verdict"] == "stable"
    assert len(calls) == 1


def test_cli_analyze_local_uses_file_point(exp_file, capsys):
    assert main(["analyze-local", exp_file, "--format", "json",
                 "--samples", "16", "--levels", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["beta"]["beta"] == -1.0


def test_cli_analyze_global(ball_file, capsys):
    assert main(["analyze-global", ball_file, "--format", "json",
                 "--samples", "128"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["stability"]["verdict"] == "stable"
    assert payload["results"]["modulus"]["tau"] >= 0.9


def test_cli_perturb_csv(exp_file, capsys):
    code = main(["perturb", exp_file, "--at", "0", "--eps", "0.1,0.01",
                 "--dir", "-1", "--format", "csv", "--samples", "16",
                 "--levels", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == SWEEP_CSV_HEADER
    assert len(out.splitlines()) == 3


def test_cli_reproduce_pass(capsys):
    assert main(["reproduce", "REM10", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["passed"] is True


def test_cli_reproduce_failure_exit_code(monkeypatch, capsys):
    from ebstab.scenarios import CheckResult, ScenarioReport

    def fake(scenario, seed=0):
        rep = ScenarioReport(scenario="REM10", seed=seed)
        rep.checks.append(CheckResult("forced", False, 0, 1))
        return rep

    monkeypatch.setattr("ebstab.cli.reproduce", fake)
    assert main(["reproduce", "REM10"]) == 2


def test_cli_reproduce_unknown_scenario(capsys):
    assert main(["reproduce", "NOPE"]) == 3


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.eb"
    bad.write_text("dim 2\nexpr (sum -1 (abs 0))\n", encoding="utf-8")
    assert main(["analyze-local", str(bad), "--at", "0,0"]) == 3


@pytest.mark.parametrize("box", ["-3..3,oops", "-3..x -3..3", ","])
def test_cli_malformed_box_exit_code(ball_file, box, capsys):
    for command in (["analyze-global", ball_file],
                    ["perturb", ball_file, "--eps", "0.1", "--dir", "0,1"]):
        assert main([*command, f"--box={box}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "line" not in err


def test_cli_missing_file_exit_code(capsys):
    assert main(["analyze-local", "/nonexistent/x.eb", "--at", "0"]) == 3


def test_cli_nonconvergence_exit_code(monkeypatch, exp_file, capsys):
    def boom(*args, **kwargs):
        raise MinNormNonConvergence(np.zeros(1), 1.0, 500)

    monkeypatch.setattr("ebstab.cli.eta_local", boom)
    assert main(["analyze-local", exp_file, "--at", "0"]) == 4


def test_cli_overflow_exit_code(exp_file, capsys):
    assert main(["analyze-local", exp_file, "--at", "1000"]) == 5
    assert "numerical overflow" in capsys.readouterr().err


def test_cli_report_reformat(tmp_path, exp_file, capsys):
    assert main(["analyze-local", exp_file, "--at", "0", "--format", "json",
                 "--samples", "16", "--levels", "2"]) == 0
    saved = tmp_path / "report.json"
    saved.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["report", "--in", str(saved), "--format", "human"]) == 0
    out = capsys.readouterr().out
    assert "verdict: stable" in out


def test_cli_json_byte_determinism(exp_file, ball_file, capsys):
    def run(args):
        assert main(args) == 0
        return capsys.readouterr().out

    commands = [
        ["analyze-local", exp_file, "--at", "0", "--format", "json",
         "--samples", "32", "--levels", "3", "--seed", "0"],
        ["analyze-global", ball_file, "--format", "json", "--samples", "128",
         "--seed", "0"],
        ["perturb", exp_file, "--at", "0", "--eps", "0.1", "--dir", "-1",
         "--format", "json", "--samples", "16", "--levels", "2", "--seed", "0"],
    ]
    for args in commands:
        assert run(args) == run(args)


def test_cli_subcommands_accept_exactly_their_flags(exp_file, capsys):
    subs = build_parser()._subparsers._group_actions[0].choices
    flags = {
        name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
        for name, sub in subs.items()
    }
    assert flags == {
        "analyze-local": {"--at", "--seed", "--samples", "--levels", "--tol",
                          "--format"},
        "analyze-global": {"--tau", "--box", "--seed", "--samples", "--format"},
        "perturb": {"--at", "--eps", "--dir", "--box", "--seed", "--samples",
                    "--levels", "--format"},
        "reproduce": {"--seed", "--format"},
        "report": {"--in", "--format"},
    }
    # a flag the subcommand would ignore is a usage error, not a no-op
    with pytest.raises(SystemExit):
        main(["reproduce", "REM8", "--tol", "1e-3"])
    with pytest.raises(SystemExit):
        main(["analyze-global", exp_file, "--levels", "3"])
    capsys.readouterr()
