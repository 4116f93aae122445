"""Benchmark for geomstates: four closed-loop workloads with one client.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Run it from the repository root.  Every operation goes through the README
command contract: in process through ``geomstates.cli.main(argv)`` with its
output captured, or, for cli_readme, in a fresh interpreter with ``src`` on
PYTHONPATH (cli_child.py).  Timings are scaled to a nominal machine speed
(speed.py).  Every output is checked against an
independent reference (checks.py).  The last line of stdout is the result,
``{"correct", "attempted", "failed", "metrics"}``; metric names and units come
from BENCHMARK.json (``end_to_end`` for --trace 0, ``per_layer`` for --trace 1).

With --trace 0 a run executes all four workloads in a fixed order.  The
named one gets two fifths of the S seconds and each other one a fifth, so
every run reports every end-to-end metric.  With --trace 1 a run takes a fixed,
seeded set of operations in the same proportions.  It runs them untraced,
then again with the tracer installed, and reports per-layer counts and self
times and the tracing overhead.  The spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import CHECKS, CORRUPTIONS, CheckFailed
from speed import NOMINAL_S, Calibration
from tracer import FUNCTIONS, Tracer
from workloads import BALLGRID_RESOLUTION, FLOW_STEPS, GENERATORS, warmup_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

PHASES = tuple(GENERATORS)      # run order
PRIMARY_WEIGHT = 2              # the named workload's share; each other has 1
# Rounds per unit of share in the traced run: 1.5 to 4 s of work each.
TRACE_ROUNDS = {"classify_mixed": 10, "ballgrid_qubit": 1, "dynamics": 2,
                "cli_readme": 1}
SETUP_REPEATS = 5
SUBPROCESS_GROUPS = ("cli", "constants")
CHILD_TIMEOUT_S = 120


def load_cli():
    sys.path.insert(0, str(SRC))
    try:
        import geomstates.cli as cli
    except ImportError as exc:
        sys.exit(f"cannot import geomstates from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"geomstates was imported from {cli.__file__}, not {SRC}")
    return cli


def run_child(argvs, env, traced: bool = False):
    """Run commands in one fresh interpreter (cli_child.py).  Returns the
    completed process and its report, or None if it wrote none."""
    report = OUT / "cli-child.json"
    report.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, str(HERE / "cli_child.py"), str(report),
                           "1" if traced else "0", *(json.dumps(a) for a in argvs)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc, (json.loads(report.read_text()) if report.exists() else None)


def judge(op, code, out: str, err: str = "") -> str | None:
    """Why an operation failed, or None if its output passed its check."""
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    try:
        CHECKS[op.check](op.ref, out)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"
    return None


class Runner:
    """Runs operations one at a time and tallies latency and failures.

    Operation times are scaled by machine-speed calibrations taken around
    them (speed.py); call ``finish`` after the last operation."""

    def __init__(self, cli, tracer: Tracer | None = None, spawn: bool = True):
        self.cli = cli
        self.tracer = tracer
        self.spawn = spawn
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # No calibration inside traced operations: it would land in spans.
        self.cal = Calibration(sample=tracer is None)
        self.records = []      # (group, round number, seconds, scale)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.import_s = []

    def execute(self, op):
        if self.spawn and op.group in SUBPROCESS_GROUPS:
            return self._spawn(op)
        out, err = io.StringIO(), io.StringIO()
        paused = self.cal.paused
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                self.cal.during():
            t0 = time.perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except Exception as exc:  # a traceback is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        return code, out.getvalue(), err.getvalue(), seconds - (self.cal.paused - paused), None

    def _spawn(self, op):
        """Run a command in a fresh interpreter.  Its time runs from process
        start to the command's return, and it is scaled by the kernel timed
        in that interpreter right after."""
        t0 = time.perf_counter()
        try:
            proc, data = run_child([op.argv], self.env, self.tracer is not None)
        except subprocess.TimeoutExpired:
            return "timeout", "", "", time.perf_counter() - t0, None
        if data is None:  # the child died before reporting
            return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0, None
        self.import_s.append(data["import_s"])
        if self.tracer is not None:
            self.tracer.merge(data)
        return (proc.returncode, proc.stdout, proc.stderr, data["done"] - t0,
                NOMINAL_S / data["kernel_s"])

    def finish(self) -> None:
        self.cal.take()

    def run(self, op, round_no: int = 0):
        self.cal.between()
        t0 = time.perf_counter()
        code, out, err, seconds, scale = self.execute(op)
        if scale is None:
            scale = (t0, time.perf_counter())
        self.records.append((op.group, round_no, seconds, scale))
        reason = judge(op, code, out, err)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(op.argv[:3])}: {reason}")
        return reason, out

    def _scaled(self, seconds: float, scale) -> float:
        # scale is a factor, or the (start, end) of an in-process operation.
        return seconds * (self.cal.scale(*scale) if isinstance(scale, tuple) else scale)

    def samples(self, group: str, scaled: bool = True) -> list:
        """(round number, seconds) of each operation in a group."""
        return [(r, self._scaled(t, s) if scaled else t)
                for g, r, t, s in self.records if g == group]

    def busy_s(self, scaled: bool = True) -> float:
        return sum(self._scaled(t, s) if scaled else t for _, _, t, s in self.records)


def shares(workload: str) -> dict:
    return {p: PRIMARY_WEIGHT if p == workload else 1 for p in PHASES}


def streams(seed: int) -> dict:
    return {p: GENERATORS[p](np.random.default_rng([seed, i]))
            for i, p in enumerate(PHASES)}


def inputs_digest(seed: int) -> dict:
    """Short hash of the first round of inputs of each workload."""
    return {phase: hashlib.sha256(json.dumps([op.argv for op in next(gen)]).encode())
            .hexdigest()[:12] for phase, gen in streams(seed).items()}


def measure_setup(workload: str):
    """Set-up time and peak RSS: medians over fresh interpreters that import
    geomstates.cli and, for in-process workloads, run the workload's warm-up
    commands.  No harness code runs in them, so the RSS is the program's.
    Each time is scaled by the calibration kernel timed in the same
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argvs = [] if workload == "cli_readme" else [op.argv for op in warmup_ops(workload)]
    times, rss = [], []
    for _ in range(SETUP_REPEATS):
        proc, data = run_child(argvs, env)
        if proc.returncode != 0 or data is None:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append((data["import_s"] + data["work_s"]) * NOMINAL_S / data["kernel_s"])
        rss.append(data["maxrss_mb"])
    return statistics.median(times), statistics.median(rss)


def warm_up_and_self_test(cli):
    """Run each workload's warm-up ops in process, then check that every
    corrupted variant of their outputs is flagged as a failed operation.
    Returns (warm-up runner, corrupted outputs tried, ones not flagged)."""
    warm = Runner(cli, spawn=False)
    tried, missed = 0, []
    for phase in PHASES:
        for op in warmup_ops(phase):
            reason, out = warm.run(op)
            if reason is not None:
                continue
            for corrupt in CORRUPTIONS[op.check]:
                tried += 1
                if judge(op, 0, corrupt(out)) is None:
                    missed.append(f"{op.check}: {getattr(corrupt, '__name__', corrupt)}")
    warm.finish()
    return warm, tried, missed


def end_to_end(run: Runner, setup_s: float, peak_rss_mb: float,
               scaled: bool = True) -> dict:
    def pct_ms(group, q):
        # Median over rounds of each round's percentile.  A round's
        # operations share calibrations, so a round mis-scaled during a
        # change of machine speed moves one value, not the tail.
        rounds = {}
        for r, t in run.samples(group, scaled):
            rounds.setdefault(r, []).append(t)
        return 1000.0 * statistics.median(float(np.percentile(ts, q))
                                          for ts in rounds.values())

    def rate(group, per_op):
        # Median over rounds of the work done per busy second.
        busy, count = {}, {}
        for r, t in run.samples(group, scaled):
            busy[r] = busy.get(r, 0.0) + t
            count[r] = count.get(r, 0) + 1
        return statistics.median(per_op * count[r] / busy[r] for r in busy)

    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "ops_ok_frac": (run.attempted - run.failed) / run.attempted,
        "classify.states_per_s": rate("classify", 1),
        "classify.latency_ms_p50": pct_ms("classify", 50),
        "classify.latency_ms_p90": pct_ms("classify", 90),
        "ballgrid.points_per_s": rate("ballgrid", BALLGRID_RESOLUTION ** 3),
        "eigensolve.latency_ms_p50": pct_ms("eigensolve", 50),
        "eigensolve.latency_ms_p90": pct_ms("eigensolve", 90),
        "flow.steps_per_s": rate("flow", FLOW_STEPS),
        "cli.latency_ms_p50": pct_ms("cli", 50),
        "constants.latency_ms_p50": pct_ms("constants", 50),
    }


def timed_run(cli, workload: str, seed: int, seconds: float) -> Runner:
    run = Runner(cli)
    weights = shares(workload)
    for phase, gen in streams(seed).items():
        deadline = time.perf_counter() + seconds * weights[phase] / sum(weights.values())
        for round_no in itertools.count():
            if time.perf_counter() >= deadline:
                break
            for op in next(gen):
                run.run(op, round_no)
    run.finish()
    return run


def traced_run(cli, workload: str, seed: int):
    """Returns the untraced and traced runners, the tracer, and per phase
    the traced pass's wall-clock busy seconds and self seconds by function."""
    weights = shares(workload)
    phase_ops = {phase: [op for ops in itertools.islice(gen, TRACE_ROUNDS[phase] * weights[phase])
                         for op in ops]
                 for phase, gen in streams(seed).items()}
    plain = Runner(cli)
    for ops in phase_ops.values():
        for op in ops:
            plain.run(op)
    plain.finish()
    tracer = Tracer()
    traced = Runner(cli, tracer)
    per_phase = {}
    tracer.install()
    try:
        for phase, ops in phase_ops.items():
            busy, self_s = traced.busy_s(scaled=False), list(tracer.self_s)
            for op in ops:
                traced.run(op)
            per_phase[phase] = (traced.busy_s(scaled=False) - busy,
                                [b - a for a, b in zip(self_s, tracer.self_s)])
    finally:
        tracer.uninstall()
    traced.finish()
    return plain, traced, tracer, per_phase


def per_layer(plain: Runner, traced: Runner, tracer: Tracer) -> dict:
    # Spans are wall-clock; scale them by the traced pass's mean factor.
    scale = traced.busy_s() / traced.busy_s(scaled=False)
    metrics = {}
    for name, calls, self_s in zip(FUNCTIONS, tracer.calls, tracer.self_s):
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_ms"] = 1000.0 * scale * self_s
    metrics["realified.critical_point_eigensolve.iters"] = tracer.iters
    metrics["realified.RealifiedState.constructed"] = tracer.constructed
    metrics["cli.import_ms"] = 1000.0 * scale * statistics.median(traced.import_s)
    metrics["trace.overhead_frac"] = traced.busy_s() / plain.busy_s() - 1.0
    return metrics


def top_shares(busy: float, self_s: list, k: int = 5) -> str:
    ranked = sorted(zip(self_s, FUNCTIONS), reverse=True)[:k]
    parts = [f"{name} {100 * s / busy:.1f}%" for s, name in ranked]
    parts.append(f"outside spans {100 * (busy - sum(self_s)) / busy:.1f}%")
    return ", ".join(parts)


def write_spans(tracer: Tracer, workload: str) -> Path:
    path = OUT / f"spans-{workload}.npz"
    np.savez(path, parent=np.asarray(tracer.parent), func=np.asarray(tracer.func),
             start=np.asarray(tracer.start), end=np.asarray(tracer.end),
             names=np.array(FUNCTIONS))
    return path


def _blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    return int(fn())
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": _blas_threads(), "cpu": cpu, "nproc": os.cpu_count(),
            "git_commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=PHASES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    env = environment()
    digest = inputs_digest(args.seed)
    print("env", json.dumps(env))
    print("inputs", json.dumps(digest))

    setup_s, peak_rss_mb = (None, None) if args.trace else measure_setup(args.workload)
    warm, tried, missed = warm_up_and_self_test(cli)
    print(f"warm-up: {warm.attempted} ops, {warm.failed} failed; self-test: "
          f"{tried - len(missed)} of {tried} corrupted outputs flagged")
    for line in warm.failures + missed:
        print("  self-test:", line)

    if args.trace:
        plain, traced, tracer, per_phase = traced_run(cli, args.workload, args.seed)
        runs = (plain, traced)
        metrics = per_layer(plain, traced, tracer)
        print("largest self-time shares of each phase's traced wall-clock busy time; "
              "outside spans is process start-up, untraced helpers and output capture:")
        for phase, (busy, self_s) in per_phase.items():
            print(f"  {phase} ({busy:.2f} s): {top_shares(busy, self_s)}")
        print("spans:", write_spans(tracer, args.workload).relative_to(ROOT),
              len(tracer.start))
        kind = "per_layer"
    else:
        runs = (timed_run(cli, args.workload, args.seed, args.seconds),)
        metrics = end_to_end(runs[0], setup_s, peak_rss_mb)
        wall = end_to_end(runs[0], float("nan"), float("nan"), scaled=False)
        print("unscaled wall clock:", json.dumps({k: round(v, 4) for k, v in wall.items()
                                                  if "." in k}))
        kind = "end_to_end"
    speeds = [v for r in runs for v in r.cal.speeds()]
    print(f"machine speed against nominal: median {statistics.median(speeds):.2f}, "
          f"range {min(speeds):.2f} to {max(speeds):.2f} over {len(speeds)} calibrations")

    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(units) ^ set(metrics))}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for line in r.failures:
            print("  failed:", line)
    result = {
        "correct": failed == 0 and warm.failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, inputs=digest)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
