"""Per-layer spans for the benchmark's traced pass.

``Tracer.install`` wraps the public functions of each geomstates module.  It
rebinds every module-level name in ``geomstates.*`` that refers to one of
them, because ``cli`` and ``states`` import functions by name.
``uninstall`` puts the original objects back.  Spans stay in memory as
columns (parent span, function, start, end) and are written out by the
caller.  Self time is accumulated as spans close: a span's duration minus
the durations of its child spans.

This module imports only the standard library, so a fresh interpreter can
load it without changing what ``import geomstates.cli`` costs.
"""

from __future__ import annotations

import sys
import time
from array import array
from importlib import import_module

LAYERS = {
    "basis": ("gellmann_basis", "structure_constants", "to_dual", "from_dual",
              "check_hermitian", "spectral_oracle"),
    "dual_tensors": ("distributions_at", "lambda_at", "riemann_jordan_at",
                     "jtilde_endo", "r_endo"),
    "states": ("certify_density", "orbit_dimension", "face_of", "weyl_reduce",
               "convex_decompose_spectral", "bloch_decompose_along"),
    "realified": ("critical_point_eigensolve", "expectation_trace_samples",
                  "flow_hamiltonian"),
    "serialize": ("operator_from_dict", "dumps", "csv_float", "constants_csv_rows"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{m}.{f}" for m, names in LAYERS.items() for f in names)
SOLVER = "realified.critical_point_eigensolve"


class Tracer:
    def __init__(self):
        self.parent = array("l")
        self.func = array("H")
        self.start = array("d")
        self.end = array("d")
        self.calls = [0] * len(FUNCTIONS)
        self.self_s = [0.0] * len(FUNCTIONS)
        self.iters = 0          # solver residual evaluations
        self.constructed = 0    # RealifiedState instances
        self._open = []         # [child seconds, span id] per open span
        self._restore = []

    def _span(self, idx: int, fn):
        parent, func, start, end = self.parent, self.func, self.start, self.end
        calls, self_s, open_ = self.calls, self.self_s, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(open_[-1][1] if open_ else -1)
            func.append(idx)
            frame = [0.0, sid]
            open_.append(frame)
            t0 = clock()
            start.append(t0)
            end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                end[sid] = t1
                open_.pop()
                calls[idx] += 1
                self_s[idx] += (t1 - t0) - frame[0]
                if open_:
                    open_[-1][0] += t1 - t0

        return traced

    def _counting_solver(self, fn):
        # The CLI passes trace=None unless --trace is given; hand the solver
        # a list so its iterations can be counted exactly.
        def solve(*args, trace=None, **kwargs):
            log = [] if trace is None else trace
            before = len(log)
            try:
                return fn(*args, trace=log, **kwargs)
            finally:
                self.iters += len(log) - before

        return solve

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "geomstates"
                                      or name.startswith("geomstates."))]
        for idx, qual in enumerate(FUNCTIONS):
            mod, name = qual.split(".")
            original = getattr(import_module(f"geomstates.{mod}"), name)
            inner = self._counting_solver(original) if qual == SOLVER else original
            wrapper = self._span(idx, inner)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))

        cls = import_module("geomstates.realified").RealifiedState
        init = cls.__init__

        def counted_init(obj, *args, **kwargs):
            self.constructed += 1
            init(obj, *args, **kwargs)

        cls.__init__ = counted_init
        self._restore.append((cls, "__init__", init))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "iters": self.iters,
                "constructed": self.constructed,
                "spans": [self.parent.tolist(), self.func.tolist(),
                          self.start.tolist(), self.end.tolist()]}

    def merge(self, other: dict) -> None:
        """Add a summary from another process (a traced CLI command)."""
        offset = len(self.start)
        parent, func, start, end = other["spans"]
        self.parent.extend(p + offset if p >= 0 else -1 for p in parent)
        self.func.extend(func)
        self.start.extend(start)
        self.end.extend(end)
        for i, (c, s) in enumerate(zip(other["calls"], other["self_s"])):
            self.calls[i] += c
            self.self_s[i] += s
        self.iters += other["iters"]
        self.constructed += other["constructed"]
