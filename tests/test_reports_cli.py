"""Report serialization, sweeps, and the command-line interface."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ebstab.cli import build_parser, main
from ebstab.errors import MinNormNonConvergence
from ebstab.moduli import ModulusReport, QCWitness, StabilityVerdict
from ebstab.problems import parse_problem
from ebstab.reports import SWEEP_CSV_HEADER, emit_report, make_envelope
from ebstab.sweep import run_perturbation_sweep

BENCH_PROBLEMS = Path(__file__).resolve().parents[1] / "bench" / "problems"
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
        if row.beta_after != 0.0:
            assert row.tau_local <= 1.0 / abs(row.beta_after)


def test_sweep_zero_eps_row_unchanged():
    problem = parse_problem(EXP_PROBLEM)
    res = run_perturbation_sweep(problem, [0.0], [np.array([-1.0])], [0.0],
                                 box=problem.box, seed=0, levels=3,
                                 samples_per_level=32, global_samples=64)
    row = res.rows[0]
    assert row.beta_after == row.beta_before
    assert row.verdict == "stable"


def test_sweep_direction_norm_checked():
    # a direction longer than one is refused before any row is analyzed
    problem = parse_problem(EXP_PROBLEM)
    with pytest.raises(ValueError, match=r"\|\|u\|\| <= 1"):
        run_perturbation_sweep(problem, [0.0], [np.array([1.5])], [0.1])


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


def test_cli_analyze_local_outside_at_large_scale(tmp_path, capsys):
    path = tmp_path / "big.eb"
    path.write_text("dim 2\nexpr (max (affine [1e4, 0] 0) (affine [0, 1e4] 0))\n"
                    "point [0, 0]\n", encoding="utf-8")
    assert main(["analyze-local", str(path), "--format", "json",
                 "--samples", "16", "--levels", "2"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["beta"]["origin"] == "outside"
    assert results["beta"]["beta"] == pytest.approx(-1e4 / math.sqrt(2.0), rel=1e-12)


# ||x|| - 1.3e154 sqrt(2) at (1.3e154, 1.3e154), where the squares sum
# past the largest double
FAR_NORM_LOCAL = ("dim 2\nexpr (sum 1 (norm) 1 (const -1.8384776310850236e154))\n"
                  "point [1.3e154, 1.3e154]\n")
FAR_NORM_GLOBAL = ("dim 2\nexpr (sum 1 (norm) 1 (const -1.3e154))\n"
                   "box 1.2e154..1.4e154 -1e152..1e152\ntau 0.5\n")


def test_cli_analyze_local_far_from_the_origin(tmp_path, capsys):
    path = tmp_path / "far.eb"
    path.write_text(FAR_NORM_LOCAL, encoding="utf-8")
    assert main(["analyze-local", str(path), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["modulus"]["path"] == "singleton"
    assert abs(results["beta"]["beta"] + 1.0) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_analyze_global_far_from_the_origin(tmp_path, capsys):
    path = tmp_path / "far.eb"
    path.write_text(FAR_NORM_GLOBAL, encoding="utf-8")
    assert main(["analyze-global", str(path), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["modulus"]["tau"] * results["stability"]["beta_inf"] <= 1.0 + 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_analyze_global_with_a_gradient_norm_past_1e154(tmp_path, capsys):
    # 1e155 ||x|| - 1e155: every gradient norm is 1e155, whose square
    # overflows a double, so the pull steps in units of that norm; d(x, S)
    # / f(x) is 1e-155 at every infeasible point
    path = tmp_path / "steep.eb"
    path.write_text("dim 2\nexpr (sum 1e155 (norm) 1 (const -1e155))\n"
                    "box -3.0..3.0 -3.0..3.0\ntau 0.5\n", encoding="utf-8")
    assert main(["analyze-global", str(path), "--format", "json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    tau, beta_inf = results["modulus"]["tau"], results["stability"]["beta_inf"]
    assert tau * beta_inf <= 1.0 + 1e-12
    assert tau == pytest.approx(1e-155, rel=1e-12)
    assert beta_inf == pytest.approx(1e155, rel=1e-12)


def test_cli_analyze_local_at_a_large_kink_scale(tmp_path, capsys):
    # 1e154 |x| at 0: the origin is interior to its subdifferential
    # [-1e154, 1e154], so beta is +1e154 and its residual 0
    path = tmp_path / "big.eb"
    path.write_text("dim 1\nexpr (sum 1e154 (abs 0))\npoint [0]\n",
                    encoding="utf-8")
    assert main(["analyze-local", str(path), "--format", "json"]) == 0
    cert = json.loads(capsys.readouterr().out)["results"]["beta"]
    assert (cert["beta"], cert["origin"], cert["residual"]) == (
        1e154, "interior", 0.0)


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
    # certificate, so the interior-beta facet search runs once
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
    assert results["beta"]["beta"] == 1.0
    assert results["stability"]["verdict"] == "stable"
    assert len(calls) == 1


@pytest.mark.parametrize("seed", ["0", "1001"])
def test_cli_analyze_local_l1norm5_is_exact(seed, capsys):
    # ||x||_1 at the origin of R^5: the cube [-1, 1]^5, whose 32 vertices
    # have C(32, 5) = 201,376 5-subsets; inradius 1
    path = BENCH_PROBLEMS / "l1norm5.eb"
    assert main(["analyze-local", str(path), "--format", "json",
                 "--seed", seed]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["beta"]["beta"] == 1.0
    assert results["beta"]["origin"] == "interior"
    assert results["stability"]["verdict"] == "stable"


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


BAD_BOX_PROBLEM = BALL_PROBLEM.replace("box -3.0..3.0 -3.0..3.0", "box 1..-1 -1..1")
FILE_IDS = {
    BALL_PROBLEM: "ball-file",
    BAD_BOX_PROBLEM: "bad-box-file",
    BALL_PROBLEM.replace("tau 0.5", "tau nan"): "tau-nan-file",
    BALL_PROBLEM.replace("tau 0.5", "tau inf"): "tau-inf-file",
    BALL_PROBLEM.replace("point [1.0, 0.0]", "point [nan, 0.0]"): "point-nan-file",
    BALL_PROBLEM.replace("box -3.0..3.0", "box -inf..1"): "box-inf-file",
}
NAN_TAU, INF_TAU, NAN_POINT, INF_BOX = list(FILE_IDS)[2:]


@pytest.mark.parametrize("text, argv", [
    (BALL_PROBLEM, ["analyze-global", "--samples", "0"]),
    (BALL_PROBLEM, ["analyze-global", "--samples", "-5"]),
    (BALL_PROBLEM, ["analyze-local", "--levels", "0"]),
    (BALL_PROBLEM, ["analyze-local", "--levels", "-2"]),
    (BALL_PROBLEM, ["analyze-local", "--samples", "0"]),
    (BALL_PROBLEM, ["analyze-local", "--tol", "-1"]),
    (BALL_PROBLEM, ["analyze-global", "--tau", "0"]),
    (BALL_PROBLEM, ["analyze-global", "--tau", "-1"]),
    (BALL_PROBLEM, ["perturb", "--eps", "-0.1", "--dir", "0,1"]),
    (BALL_PROBLEM, ["perturb", "--eps", ",", "--dir", "0,1"]),
    (BALL_PROBLEM, ["perturb", "--eps", "", "--dir", "0,1"]),
    (BALL_PROBLEM, ["perturb", "--eps", "0.1", "--dir", "3,0"]),
    (BALL_PROBLEM, ["perturb", "--eps", "0.1", "--dir", "1"]),
    (BALL_PROBLEM, ["analyze-global", "--box", "1..0,0..1"]),
    (BALL_PROBLEM, ["analyze-global", "--box", "0..1"]),
    (BAD_BOX_PROBLEM, ["analyze-global"]),
    (BALL_PROBLEM, ["analyze-local", "--at", "1"]),
    (BALL_PROBLEM, ["perturb", "--at", "1,0,0", "--eps", "0.1", "--dir", "0,1"]),
    # a number that is not finite, on the command line or in the file
    (BALL_PROBLEM, ["analyze-local", "--at", "nan,0"]),
    (BALL_PROBLEM, ["analyze-local", "--at", "inf,0"]),
    (BALL_PROBLEM, ["analyze-local", "--tol", "inf"]),
    (BALL_PROBLEM, ["perturb", "--eps", "inf", "--dir", "0,1"]),
    (BALL_PROBLEM, ["analyze-global", "--tau", "inf"]),
    (BALL_PROBLEM, ["analyze-global", "--box=-inf..0,0..1"]),
    (BALL_PROBLEM, ["analyze-global", "--box=0..inf,0..1"]),
    # a range whose width overflows a double
    (BALL_PROBLEM, ["analyze-global", "--box=-1e308..1e308,0..1"]),
    # a box whose squared diagonal overflows a double
    (BALL_PROBLEM, ["analyze-global", "--box=-1e300..1e300,-1e300..1e300"]),
    # a negative seed, which the random generator refuses
    (BALL_PROBLEM, ["analyze-global", "--seed", "-1"]),
    (BALL_PROBLEM, ["analyze-local", "--seed", "-1"]),
    (BALL_PROBLEM, ["perturb", "--eps", "0.1", "--dir", "0,1", "--seed", "-1"]),
    (INF_BOX, ["analyze-global"]),
    (NAN_TAU, ["analyze-global"]),
    (INF_TAU, ["analyze-global"]),
    (NAN_POINT, ["analyze-local"]),
], ids=lambda v: " ".join(v) if isinstance(v, list) else FILE_IDS[v])
def test_cli_bad_number_or_box_exits_3(tmp_path, text, argv, capsys):
    # a value that would give a vacuous answer or fail deep inside an
    # analysis is a parse error, not a traceback
    path = tmp_path / "problem.eb"
    path.write_text(text, encoding="utf-8")
    assert main([argv[0], str(path), *argv[1:]]) == 3
    assert capsys.readouterr().err.startswith("parse error: ")


def test_cli_report_missing_file_exits_3(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path / "missing.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: cannot read report file")


def test_cli_report_bad_json_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{bad", encoding="utf-8")
    assert main(["report", "--in", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("parse error: report is not valid json")


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("text", ["5", "[1, 2]", '{"a": 1}'])
def test_cli_report_not_an_envelope_exits_3(tmp_path, text, fmt, capsys):
    path = tmp_path / "other.json"
    path.write_text(text, encoding="utf-8")
    assert main(["report", "--in", str(path), "--format", fmt]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: report is not an eb-report/1")


ROUND_TRIP_COMMANDS = {
    "analyze-local": ["analyze-local", "{exp}", "--at", "0",
                      "--samples", "16", "--levels", "2"],
    "perturb": ["perturb", "{exp}", "--at", "0", "--eps", "0.1,0.01",
                "--dir=-1", "--samples", "16", "--levels", "2"],
    "reproduce": ["reproduce", "REM8"],
}


@pytest.mark.parametrize("fmt", ["json", "human", "csv"])
@pytest.mark.parametrize("command", list(ROUND_TRIP_COMMANDS))
def test_cli_report_json_round_trip(tmp_path, exp_file, command, fmt, capsys):
    # report --in saved.json --format F prints what the command printed
    # with --format F
    argv = [a.format(exp=exp_file) for a in ROUND_TRIP_COMMANDS[command]]
    assert main([*argv, "--format", "json"]) == 0
    path = tmp_path / "report.json"
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main([*argv, "--format", fmt]) == 0
    direct = capsys.readouterr().out
    assert main(["report", "--in", str(path), "--format", fmt]) == 0
    assert capsys.readouterr().out == direct


def test_record_json_keys_pinned(exp_file, capsys):
    # these eb-report/1 keys are the records' field names: renaming a field
    # must not change the schema silently
    assert main(["perturb", exp_file, "--at", "0", "--eps", "0.1", "--dir=-1",
                 "--samples", "16", "--levels", "2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]["rows"]
    assert set(rows[0]) == set(SWEEP_CSV_HEADER.split(","))
    assert main(["reproduce", "REM8", "--format", "json"]) == 0
    checks = json.loads(capsys.readouterr().out)["results"]["checks"]
    assert {frozenset(c) for c in checks} == {
        frozenset({"label", "passed", "observed", "expected"})}
    w = QCWitness(z=np.array([-20.0]), x=np.array([0.0]), ratio=-0.01,
                  beta_z=1e-9)
    v = StabilityVerdict(scope="global", verdict="unstable", beta_inf=1.0,
                         qc_witnesses=[w], tau=0.5)
    witness = json.loads(emit_report(v, "json"))["witnesses"][0]
    assert witness == {"z": [-20.0], "x": [0.0], "ratio": -0.01, "beta_z": 1e-9}


def test_analyze_global_draws_the_box_once(ball_file, monkeypatch, capsys):
    # the modulus, condition (3.9) and the witness search read one sample
    import ebstab.moduli as moduli

    calls = []
    draw = moduli.box_points

    def counted(*args):
        calls.append(args)
        return draw(*args)

    monkeypatch.setattr(moduli, "box_points", counted)
    assert main(["analyze-global", ball_file]) == 0
    assert len(calls) == 1


def test_analyze_local_sees_the_liminf_at_many_levels(capsys):
    # levels below float resolution at the point are not drawn, so they no
    # longer leave the last two levels empty and the estimate vacuous; the
    # norm's origin is a point where the local modulus is still sampled
    assert main(["analyze-local", str(BENCH_PROBLEMS / "norm3.eb"),
                 "--levels", "60", "--format", "json"]) == 0
    modulus = json.loads(capsys.readouterr().out)["results"]["modulus"]
    assert modulus["path"] == "sampled"
    assert modulus["vacuous"] is False and modulus["tau"] == 1.0
    assert len(modulus["shrink_levels"]) == 40


def test_parser_is_built_once_and_handlers_read_patched_names(
        monkeypatch, exp_file):
    parser = build_parser()
    assert build_parser() is parser

    def boom(*args, **kwargs):
        raise MinNormNonConvergence(np.zeros(1), 1.0, 500)

    monkeypatch.setattr("ebstab.cli.local_modulus", boom)
    assert main(["analyze-local", exp_file, "--at", "0"]) == 4


def test_cli_missing_file_exit_code(capsys):
    assert main(["analyze-local", "/nonexistent/x.eb", "--at", "0"]) == 3


def test_cli_nonconvergence_exit_code(monkeypatch, exp_file, capsys):
    def boom(*args, **kwargs):
        raise MinNormNonConvergence(np.zeros(1), 1.0, 500)

    monkeypatch.setattr("ebstab.cli.local_modulus", boom)
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
