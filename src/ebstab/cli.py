"""Command-line interface.

Subcommands: analyze-local, analyze-global, perturb, reproduce, report.
Exit codes: 0 success, 1 any other package error, 2 scenario-check
failure, 3 parse error, 4 numerical non-convergence, 5 numerical overflow.
All randomized paths take --seed (default 0); nothing draws entropy from
the environment.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (
    EbstabError,
    MinNormNonConvergence,
    NumericalOverflow,
    ParseError,
    UndeterminedInradius,
)
from .moduli import classify_global_stability, classify_local_stability, eta_global, eta_local
from .problems import parse_box, parse_problem
from .reports import emit_report, make_envelope
from .scenarios import SCENARIO_NAMES, reproduce
from .sphere import beta
from .sweep import run_perturbation_sweep


def _parse_vec(text: str) -> np.ndarray:
    body = text.strip().lstrip("[").rstrip("]")
    try:
        return np.array([float(p) for p in body.replace(",", " ").split()])
    except ValueError:
        raise ParseError(f"bad vector '{text}'") from None


def _load_problem(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_problem(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read problem file: {exc}") from exc


def _point_for(args, problem) -> np.ndarray:
    if args.at is not None:
        return _parse_vec(args.at)
    if problem.point is not None:
        return problem.point
    raise ParseError("no reference point: pass --at or declare 'point' "
                     "in the problem file")


def _box_for(args, problem):
    """--box, else the problem file's box, else None."""
    if args.box is not None:
        return parse_box(args.box)
    return problem.box


def _cmd_analyze_local(args) -> int:
    problem = _load_problem(args.file)
    f = problem.function_expr()
    x = _point_for(args, problem)
    cert = beta(f, x, zero_tol=args.tol)
    verdict = classify_local_stability(f, x, cert=cert)
    modulus = eta_local(f, x, levels=args.levels,
                        samples_per_level=args.samples, seed=args.seed)
    envelope = make_envelope("analyze-local", problem.name, args.seed, {
        "beta": cert,
        "stability": verdict,
        "modulus": modulus,
    })
    sys.stdout.write(emit_report(envelope, args.format))
    return 0


def _cmd_analyze_global(args) -> int:
    problem = _load_problem(args.file)
    f = problem.function_expr()
    tau = args.tau if args.tau is not None else problem.tau
    if tau is None:
        raise ParseError("no tau: pass --tau or declare 'tau' in the file")
    box = _box_for(args, problem)
    if box is None:
        raise ParseError("no box: pass --box or declare 'box' in the file")
    modulus = eta_global(f, box, args.samples, seed=args.seed,
                         slater=problem.slater)
    verdict = classify_global_stability(f, tau, box, args.samples,
                                        seed=args.seed)
    envelope = make_envelope("analyze-global", problem.name, args.seed, {
        "modulus": modulus,
        "stability": verdict,
    })
    sys.stdout.write(emit_report(envelope, args.format))
    return 0


def _cmd_perturb(args) -> int:
    problem = _load_problem(args.file)
    x = _point_for(args, problem)
    direction = _parse_vec(args.dir)
    eps_list = [float(p) for p in args.eps.replace(",", " ").split()]
    result = run_perturbation_sweep(
        problem, x, [direction], eps_list, box=_box_for(args, problem),
        seed=args.seed, levels=args.levels, samples_per_level=args.samples,
    )
    envelope = make_envelope("perturb", problem.name, args.seed, result)
    sys.stdout.write(emit_report(envelope, args.format))
    return 0


def _cmd_reproduce(args) -> int:
    try:
        report = reproduce(args.scenario, seed=args.seed)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    envelope = make_envelope("reproduce", report.scenario, args.seed, report)
    sys.stdout.write(emit_report(envelope, args.format))
    if not report.passed:
        failed = [c.label for c in report.checks if not c.passed]
        sys.stderr.write("scenario checks failed:\n")
        for label in failed:
            sys.stderr.write(f"  - {label}\n")
        return 2
    return 0


def _cmd_report(args) -> int:
    if args.infile == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.infile, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    sys.stdout.write(emit_report(data, args.format))
    return 0


def _add_common(sub, samples: int | None = None, levels: bool = False,
                tol: bool = False):
    """--seed and --format, plus those of --samples (with the given
    default), --levels and --tol that the subcommand reads."""
    sub.add_argument("--seed", type=int, default=0)
    if samples is not None:
        sub.add_argument("--samples", type=int, default=samples)
    if levels:
        sub.add_argument("--levels", type=int, default=8)
    if tol:
        sub.add_argument("--tol", type=float, default=1e-9)
    sub.add_argument("--format", choices=("human", "json", "csv"),
                     default="human")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebstab",
        description="Error-bound moduli and stability certificates for "
                    "convex inequality systems",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze-local", help="beta, verdict and local "
                        "modulus at a boundary point")
    p.add_argument("file")
    p.add_argument("--at", help="reference point, e.g. '0,0'")
    _add_common(p, samples=256, levels=True, tol=True)
    p.set_defaults(func=_cmd_analyze_local)

    p = subs.add_parser("analyze-global", help="global modulus and "
                        "stability verdict over a box")
    p.add_argument("file")
    p.add_argument("--tau", type=float)
    p.add_argument("--box", help="per-axis ranges, e.g. '-3..3,-3..3'")
    _add_common(p, samples=512)
    p.set_defaults(func=_cmd_analyze_global)

    p = subs.add_parser("perturb", help="sweep eps-linear perturbations")
    p.add_argument("file")
    p.add_argument("--at", help="reference point with f = 0")
    p.add_argument("--eps", required=True, help="eps values, e.g. '0.1,0.01'")
    p.add_argument("--dir", required=True, help="direction u with ||u|| <= 1")
    p.add_argument("--box")
    _add_common(p, samples=128, levels=True)
    p.set_defaults(func=_cmd_perturb)

    p = subs.add_parser("reproduce", help="run a built-in scenario")
    p.add_argument("scenario", type=str,
                   help=f"one of {', '.join(SCENARIO_NAMES)}")
    _add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    p = subs.add_parser("report", help="re-emit a saved json report")
    p.add_argument("--in", dest="infile", default="-",
                   help="json report file, or - for stdin")
    p.add_argument("--format", choices=("human", "json", "csv"),
                   default="human")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 3
    except (MinNormNonConvergence, UndeterminedInradius) as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return 4
    except NumericalOverflow as exc:
        sys.stderr.write(f"numerical overflow: {exc}\n")
        return 5
    except EbstabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
