"""ebstab benchmark: one closed-loop caller of the CLI.

    python3 bench/run.py --workload {local,global} --seed N \
        --seconds S --trace {0,1}

The runner imports ebstab from ``src/`` of the checkout it sits in and
calls ``ebstab.cli.main(argv)`` in-process, one op after another, with
stdout captured.  Every op of pass p gets ``--seed 1000*N+p --format
json``; its answer is checked against the hand-derived reference in
``workloads.py`` and the sha256 of its output is recorded.  An op that
exits non-zero counts as failed.  An op that exits 0 with an answer that
disagrees with its reference also counts as failed and makes the run
incorrect, as does output that is not byte-identical between repeats of
an op on one seed (the traced pass repeats pass 1).

The loop runs the whole op list once, then runs further whole passes of
it while the median pass so far still fits before ``--seconds`` have
passed.  Every op therefore runs equally often.  Each pass draws its own
CLI seed, because the sampled work of an op varies with the seed by up to
a third: a run times the op list on several seeds, not on one.
End-to-end metrics (``--trace 0``) come from that untraced loop:
``run_s`` is the time of one pass of the op list, summed over ops from
each op's median time, and ``setup_s`` the median time of importing
ebstab and parsing the workload's problem files in a fresh interpreter,
sampled five times before the loop and once after every pass.  Every CLI
call and set-up sample is scaled to a nominal host speed by the reference
kernel of ``reference.py``, timed just before and just after it; the same
medians of the raw wall times are the per-layer metrics ``wall.run_s``
and ``wall.setup_s``.  Per-op medians, not the median pass: the host's
speed swings within a pass, and each op's median discards its own slow
executions.
Pass 0 is a warm-up: its answers are checked and counted, its times are
not.  ``--trace 1`` runs the same loop, then pass 1 again with every
ebstab layer wrapped by ``tracer.py`` and reports per-layer metrics;
``trace.overhead_s`` is that pass's time minus untraced pass 1's.

The last line of stdout is the JSON result; a fuller run record goes to
``bench/out/``.
"""

from __future__ import annotations

import os

# one process drives the load; keep numerical libraries single-threaded
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from reference import HostSpeed  # noqa: E402
from workloads import WORKLOADS, check, sampled  # noqa: E402

SETUP_REPEATS = 5      # set-up samples before the loop; one more per pass

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ebstab.cli
from ebstab.problems import parse_problem
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        parse_problem(fh.read())
print(time.perf_counter() - t0)
"""


def import_ebstab():
    """Import ebstab from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "ebstab" / "__init__.py").is_file():
        sys.exit(f"bench: no ebstab package under {src}")
    sys.path.insert(0, str(src))
    import ebstab.cli

    if Path(ebstab.__file__).resolve().parent != (src / "ebstab").resolve():
        sys.exit(f"bench: ebstab imported from {ebstab.__file__}, not {src}")
    return ebstab


def measure_setup(problems) -> float:
    """Seconds a fresh interpreter takes to import ebstab and parse the
    workload's problem files."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"), *problems],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def call(main, op, seed):
    """One CLI call: (exit code, stdout bytes, seconds, stderr text).  An
    exception escaping the CLI counts as exit code 1, as it would for the
    ebstab command."""
    argv = [*op.argv, "--seed", str(seed), "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    elapsed = time.perf_counter() - t0
    return code, out.getvalue().encode(), elapsed, err.getvalue()


def pass_seed(seed: int, index: int) -> int:
    """The CLI seed of pass `index` of a run with benchmark seed `seed`."""
    return 1000 * seed + index


class OpLog:
    """Every execution of one op."""

    def __init__(self, op):
        self.op = op
        self.times: list[float] = []
        self.nominal: list[float] = []  # times at nominal host speed
        self.codes: list[int] = []
        self.digests: dict[int, set[str]] = {}    # CLI seed -> sha256s
        self.failures = 0
        self.wrong: list[str] = []      # first disagreement with the reference
        self.stderr = ""
        self.sampled: dict = {}

    def add(self, seed, code, out: bytes, elapsed, stderr):
        self.times.append(elapsed)
        self.codes.append(code)
        self.digests.setdefault(seed, set()).add(hashlib.sha256(out).hexdigest())
        wrong = []
        if code == 0:
            try:
                results = json.loads(out)["results"]
                wrong = check(self.op, results)
                self.sampled = sampled(self.op, results)
            except (ValueError, KeyError, TypeError) as exc:
                wrong = [f"unreadable results: {exc!r}"]
            self.wrong = self.wrong or wrong
        else:
            self.stderr = stderr.strip()
        self.failures += code != 0 or bool(wrong)

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def deterministic(self) -> bool:
        return all(len(d) == 1 for d in self.digests.values())

    def record(self) -> dict:
        return {
            "op": self.op.name,
            "argv": list(self.op.argv),
            "runs": len(self.times),
            "failures": self.failures,
            "median_s": self.median,
            "times_s": self.times,
            "nominal_s": self.nominal,
            "exit_codes": sorted(set(self.codes)),
            "stderr": self.stderr,
            "sha256": {str(k): sorted(d) for k, d in self.digests.items()},
            "wrong": self.wrong,
            "sampled": self.sampled,
        }


def closed_loop(main, ops, seed, seconds, first=0, after_pass=None,
                speed=None):
    """Run the op list once, then further whole passes while the median
    pass so far fits before `seconds` have passed.  Passes are numbered
    from `first`; `after_pass`, if given, is called after each, and
    `speed`, if given, samples the host between ops to give each op its
    nominal time."""
    logs = [OpLog(op) for op in ops]
    deadline = time.perf_counter() + seconds
    passes = []
    while not passes or time.perf_counter() + statistics.median(passes) <= deadline:
        cli_seed = pass_seed(seed, first + len(passes))
        t0 = time.perf_counter()
        before = speed.sample() if speed is not None else None
        for log in logs:
            log.add(cli_seed, *call(main, log.op, cli_seed))
            if speed is not None:
                after = speed.sample()
                log.nominal.append(speed.nominal(log.times[-1], before, after))
                before = after
        if after_pass is not None:
            after_pass()
        passes.append(time.perf_counter() - t0)
    return logs


def pass_time(logs, attr) -> float:
    """One pass of the op list, summed from each op's median `attr` time."""
    return sum(statistics.median(getattr(log, attr)) for log in logs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def traced_pass(ebstab, ops, seed):
    """Pass 1 of the op list again, with every ebstab layer wrapped."""
    import tracer as tracing

    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    cli = tracer.spanned("cli", ebstab.cli.main)

    def main(argv):
        tracer.op_id += 1
        return cli(argv)

    return tracer, closed_loop(main, ops, seed, 0.0, first=1)


def layer_metrics(tracer, untraced_s, traced_s, logs) -> dict:
    m = tracer.metrics()
    for command in ("reproduce", "analyze-local", "analyze-global", "perturb"):
        total = sum(log.median for log in logs if log.op.command == command)
        m[f"cli.{command.replace('-', '_')}.s"] = (total, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")   # same CLI seed
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.chdir(ROOT)

    ebstab = import_ebstab()
    problem_files = sorted({arg for op in workload.ops for arg in op.argv
                            if arg.endswith(".eb")})
    # set-up is sampled before the loop and between passes, so that both
    # see the same host
    speed = HostSpeed()
    setup_times, setup_nominal = [], []

    def sample_setup():
        before = speed.sample()
        setup_times.append(measure_setup(problem_files))
        setup_nominal.append(
            speed.nominal(setup_times[-1], before, speed.sample()))

    for _ in range(SETUP_REPEATS):
        sample_setup()

    # pass 0 warms up lazy imports and caches; it is checked, not timed
    warmup = closed_loop(ebstab.cli.main, workload.ops, args.seed, 0.0)
    logs = closed_loop(ebstab.cli.main, workload.ops, args.seed, args.seconds,
                       first=1, after_pass=sample_setup, speed=speed)
    logs_all = warmup + logs
    mismatches = [f"{log.op.name}: {w}" for log in logs_all for w in log.wrong]
    mismatches += [f"{log.op.name}: output differs between repeats"
                   for log in logs if not log.deterministic]

    if args.trace:
        tracer, traced = traced_pass(ebstab, workload.ops, args.seed)
        traced_s = sum(log.median for log in traced)
        first = pass_seed(args.seed, 1)
        for log, again in zip(logs, traced):
            if again.digests[first] != log.digests[first]:
                mismatches.append(f"{log.op.name}: traced output differs")
        table = tracer.layer_times()
        for layer in workload.layers_run:
            # a layer whose functions the program no longer has is reported
            # under absent_targets instead
            if layer in tracer.installed and table[layer]["calls"] == 0:
                sys.exit(f"bench: trace guard: layer {layer} reported no "
                         f"calls on workload {args.workload}")
        untraced_s = sum(log.times[0] for log in logs)
        metrics = layer_metrics(tracer, untraced_s, traced_s, logs)
        metrics["wall.run_s"] = (pass_time(logs, "times"), "s")
        metrics["wall.setup_s"] = (statistics.median(setup_times), "s")
        metrics["ref.kernel_s"] = (speed.median, "s")
        logs_all += traced
    else:
        metrics = {
            "run_s": (pass_time(logs, "nominal"), "s"),
            "setup_s": (statistics.median(setup_nominal), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "ok_share": (1.0 - sum(log.failures for log in logs_all)
                         / sum(len(log.times) for log in logs_all), "share"),
        }

    result = {
        "correct": not mismatches,
        "attempted": sum(len(log.times) for log in logs_all),
        "failed": sum(log.failures for log in logs_all),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "cli_seeds": sorted(logs[0].digests),
        "trace": args.trace,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "setup_times_s": setup_times,
        "setup_nominal_s": setup_nominal,
        "ref_kernel_s": speed.samples,
        "mismatches": mismatches,
        "warmup_ops": [log.record() for log in warmup],
        "ops": [log.record() for log in logs],
        "result": result,
    }
    if args.trace:
        record["traced_ops"] = [log.record() for log in traced]
        record["absent_targets"] = sorted(tracer.absent)
        tracer.save(out_dir / f"{stem}-spans.npz")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for mismatch in mismatches:
        print(f"bench: {mismatch}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
