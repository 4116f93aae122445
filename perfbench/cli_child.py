"""Run geomstates commands in a fresh interpreter, as
``python -m geomstates.cli`` does, and report on the run.

    python3 perfbench/cli_child.py REPORT.json TRACE ARGV_JSON [ARGV_JSON ...]

Each ARGV_JSON is one command's arguments as a JSON list; the commands run
one after another through ``geomstates.cli.main``.  Their output is the
process's own, and the exit code is the first non-zero one, or 0.  The
runner uses this with one command for each cli_readme operation, and with a
workload's warm-up commands as a set-up probe.

REPORT.json receives ``import_s``, what ``import geomstates.cli`` took;
``work_s``, what the commands took; ``done``, the ``perf_counter`` reading
when the last one returned (the clock is system-wide, so the parent can time
the process from its start to that point); ``maxrss_mb``, the process's peak
RSS at that point; and ``kernel_s``, the calibration kernel of speed.py
timed right afterwards in this process.  With TRACE 1 the commands run under
the tracer and the report also carries the tracer summary.  Needs ``src`` on
PYTHONPATH.
"""

import json
import resource
import sys
import time

t0 = time.perf_counter()
import geomstates.cli  # noqa: E402

import_s = time.perf_counter() - t0

if __name__ == "__main__":
    report_path, traced = sys.argv[1], sys.argv[2] == "1"
    argvs = [json.loads(arg) for arg in sys.argv[3:]]
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = 0
    t1 = time.perf_counter()
    try:
        for argv in argvs:
            rc = geomstates.cli.main(argv)
            code = code or rc
    finally:
        if tracer is not None:
            tracer.uninstall()
    sys.stdout.flush()
    done = time.perf_counter()
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from speed import kernel_s

    report = {"import_s": import_s, "work_s": done - t1, "done": done,
              "maxrss_mb": maxrss_mb,
              "kernel_s": sorted(kernel_s() for _ in range(3))[1]}
    if tracer is not None:
        report.update(tracer.summary())
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    sys.exit(code)
