"""Seeded same-results corpus of geomstates CLI invocations.

The cases cover all six subcommands: both flow modes with --trace and with
--output, Hamiltonian flows longer than one phase slice, n = 2...12 with
rank-deficient and degenerate states, extreme scales of psi0, A and the
Bloch direction, and refused inputs (non-finite, zero, mis-shaped,
mis-typed and oversize).  Each case runs through
cli.main in process, in a temporary directory.  From the repository root,

    PYTHONPATH=src python tests/corpus.py > CORPUS.json

prints one JSON record: the numpy version and BLAS it was taken on; per
subcommand the case count, a histogram of exit codes and one SHA-256 over
the exit code, stdout, stderr and written files of its cases; and per case
its id, exit code, the first word of its stderr and its own SHA-256.

    PYTHONPATH=src python tests/corpus.py --against CORPUS.json

runs the corpus and prints the id of each case whose exit code, first
stderr word or SHA-256 differs from that record, with its exit code and
first stderr word before and after, exiting 1 if any does.  The
Tier-1 test test_corpus.py checks the exit codes and first words, which do
not depend on LAPACK's last bits, and the SHA-256 of the refusals that come
before any such bits, in the library's own words; a change that alters
bytes on purpose names the cases and the reason in CHANGES.md and updates
CORPUS.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from geomstates import cli, gellmann_basis

SEED = 20261019
# basis.MAX_BASIS_N as a literal, so that the same cases run on a tree
# without the cap
CAP_N = 32


def _op(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"dim": a.shape[0], "re": a.real.tolist(), "im": a.imag.tolist()}


def _hermitian(rng, n, w):
    """U diag(w) U^dagger for a random unitary U, exactly Hermitian."""
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    m = (u * np.asarray(w, dtype=float)) @ u.conj().T
    return (m + m.conj().T) / 2


def _spectrum(rng, n, kind):
    """A spectrum of trace 1 (or a deliberate fault) of the named kind."""
    if kind == "full":
        return rng.dirichlet(np.ones(n))
    if kind == "rank-deficient":
        k = int(rng.integers(1, n))
        return np.concatenate([rng.dirichlet(np.ones(k)), np.zeros(n - k)])
    if kind == "pure":
        return np.eye(n)[0]
    if kind == "degenerate":
        k = max(1, n // 2)
        return np.concatenate([np.full(k, 0.6 / k),
                               np.full(n - k, 0.4 / (n - k))])
    if kind == "negative":
        return np.concatenate([rng.dirichlet(np.ones(n - 1)) * 1.05, [-0.05]])
    if kind == "trace":
        return rng.dirichlet(np.ones(n)) * 1.5
    if kind == "edge":  # a smallest eigenvalue just inside tol_psd
        w = np.concatenate([rng.dirichlet(np.ones(n - 1)), [-2e-11]])
        return w / w.sum()
    raise ValueError(kind)


STATE_KINDS = ("full", "rank-deficient", "pure", "degenerate", "negative",
               "trace", "edge")


def _operator(rng, n, kind):
    if kind == "random":
        z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        return (z + z.conj().T) / 2
    if kind == "degenerate":
        return _hermitian(rng, n, rng.integers(-2, 3, size=n))
    return _hermitian(rng, n, np.where(rng.random(n) < 0.5, 0.0,
                                       rng.normal(size=n)))


def _dual(a) -> list:
    """y[mu] = Tr(b_mu A) / 2 over the fixed basis convention, computed here
    so that the payloads do not depend on to_dual."""
    b = gellmann_basis(a.shape[0]).elements
    return (np.einsum("aij,ji->a", b, a).real / 2.0).tolist()


def build_cases() -> list:
    """The corpus: dicts with id, argv, inputs (file name -> text, written
    before the run) and outputs (file names read after it)."""
    rng = np.random.default_rng(SEED)
    cases = []

    def add(cid, argv, inputs=None, outputs=()):
        cases.append({"id": f"{len(cases):04d}-{cid}", "argv": list(argv),
                      "inputs": inputs or {}, "outputs": list(outputs)})

    # -- classify ---------------------------------------------------------
    for n in range(2, 13):
        for kind in STATE_KINDS:
            rho = _hermitian(rng, n, _spectrum(rng, n, kind))
            add(f"classify-n{n}-{kind}",
                ["classify", "--json", json.dumps(_op(rho))])
        rho = _hermitian(rng, n, _spectrum(rng, n, "full"))
        add(f"classify-n{n}-input-output",
            ["--output", "out.json", "classify", "--input", "state.json"],
            {"state.json": json.dumps(_op(rho))}, ["out.json"])
        add(f"classify-n{n}-mixed", ["classify", "--json",
                                     json.dumps(_op(np.eye(n) / n))])
        for tol in ("0", "0.1"):
            rho = _hermitian(rng, n, _spectrum(rng, n, "negative"))
            add(f"classify-n{n}-tol{tol}",
                ["classify", "--tol", tol, "--json", json.dumps(_op(rho))])
    for e in (-200, -20, 20, 200):  # trace faults at extreme scales
        add(f"classify-scale1e{e}",
            ["classify", "--json", json.dumps(_op(np.eye(2) / 2 * 10.0 ** e))])
    add("classify-zero",
        ["classify", "--json", json.dumps(_op(np.zeros((3, 3))))])
    big = CAP_N + 1
    add("classify-above-cap",
        ["classify", "--json", json.dumps(_op(np.eye(big) / big))])
    add("classify-at-cap-rejected", ["classify", "--json",
                                     json.dumps(_op(np.eye(CAP_N) / 2))])
    refused = {
        "nan": '{"dim": 2, "re": [[NaN, 0], [0, 0.5]], "im": [[0, 0], '
               '[0, 0]]}',
        "inf": '{"dim": 2, "re": [[0.5, 0], [0, 0.5]], "im": [[0, Infinity], '
               '[0, 0]]}',
        "shape": '{"dim": 3, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], '
                 '[0, 0]]}',
        "ragged": '{"dim": 2, "re": [[0.5, 0], [0]], "im": [[0, 0], [0, 0]]}',
        "scalar-re": '{"dim": 2, "re": 0.5, "im": [[0, 0], [0, 0]]}',
        "dim-str": '{"dim": "2", "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], '
                   '[0, 0]]}',
        "dim-frac": '{"dim": 2.5, "re": [[0.5, 0], [0, 0.5]], "im": [[0, 0], '
                    '[0, 0]]}',
        "dim-bool": '{"dim": true, "re": [[1]], "im": [[0]]}',
        "dim-one": '{"dim": 1, "re": [[1]], "im": [[0]]}',
        "entry-str": '{"dim": 2, "re": [["a", 0], [0, 0.5]], "im": [[0, 0], '
                     '[0, 0]]}',
        "non-hermitian": '{"dim": 2, "re": [[0.5, 1], [0, 0.5]], "im": [[0, '
                         '0], [0, 0]]}',
        "missing-im": '{"dim": 2, "re": [[0.5, 0], [0, 0.5]]}',
        "list": "[1, 2]",
        "bad-json": "{",
        "empty": "{}",
    }
    for name, text in refused.items():
        add(f"classify-refused-{name}", ["classify", "--json", text])
    add("classify-refused-no-source", ["classify"])
    add("classify-refused-two-sources",
        ["classify", "--json", "{}", "--input", "state.json"],
        {"state.json": "{}"})
    add("classify-refused-missing-file", ["classify", "--input", "nope.json"])
    add("classify-refused-not-utf8", ["classify", "--input", "bad.json"],
        {"bad.json": "\udcff"})
    for tol in ("nan", "-1", "inf", "abc"):
        add(f"classify-refused-tol-{tol}", ["classify", "--tol", tol, "--json",
                                            json.dumps(_op(np.eye(2) / 2))])
    add("classify-refused-unwritable",
        ["--output", "no/such/dir.json", "classify", "--json",
         json.dumps(_op(np.eye(2) / 2))])

    # -- decompose ----------------------------------------------------------
    for n in range(2, 13):
        for kind in ("full", "rank-deficient", "pure", "degenerate",
                     "negative"):
            rho = _hermitian(rng, n, _spectrum(rng, n, kind))
            add(f"decompose-spectral-n{n}-{kind}",
                ["decompose", "--json", json.dumps(_op(rho))])
    points = [np.zeros(3), np.array([0.0, 0.0, 0.5]), np.array([0.3, 0, 0]),
              np.array([0.1, -0.2, 0.15]), np.array([0.0, 0.0, 0.6])]
    for _ in range(5):
        y = rng.normal(size=3)
        points.append(y / np.linalg.norm(y) * rng.uniform(0.0, 0.5))
    directions = ["0,0,1", "1,0,0", "0.3,-0.4,0.5", "0,0,1e-13", "0,0,1e200",
                  "0,0,5e-324", "1e308,1e308,0", "-1e-300,2e-300,0"]
    for _ in range(2):
        directions.append(",".join(repr(float(x)) for x in rng.normal(size=3)))
    for i, y in enumerate(points):
        rho = np.array([[0.5 + y[2], y[1] + 1j * y[0]],
                        [y[1] - 1j * y[0], 0.5 - y[2]]])
        for d in directions:
            add(f"decompose-bloch-p{i}-d{d}",
                ["decompose", "--mode", "bloch", f"--direction={d}",
                 "--json", json.dumps(_op(rho))])
    half = json.dumps(_op(np.eye(2) / 2))
    for d in ("0,0,0", "nan,0,0", "inf,0,1", "0,0", "1,0,0,0", "a,b,c", ""):
        add(f"decompose-bloch-refused-d{d}",
            ["decompose", "--mode", "bloch", f"--direction={d}",
             "--json", half])
    add("decompose-bloch-refused-no-direction",
        ["decompose", "--mode", "bloch", "--json", half])
    add("decompose-bloch-refused-qutrit",
        ["decompose", "--mode", "bloch", "--direction", "0,0,1", "--json",
         json.dumps(_op(np.eye(3) / 3))])
    add("decompose-bloch-line-misses",
        ["decompose", "--tol", "0.1", "--mode", "bloch", "--direction",
         "1,0,0", "--json", json.dumps(_op(np.diag([1.05, -0.05])))])
    add("decompose-output", ["--output", "dec.json", "decompose", "--json",
                             half], outputs=["dec.json"])
    add("decompose-refused-mode", ["decompose", "--mode", "x", "--json", half])

    # -- tensors ------------------------------------------------------------
    # n = 2...6, and 8 once: the indented JSON of the (n^2, n^2) output
    # dominates the run time, 25 ms at n = 8 and 0.1 s at n = 12
    for which in ("lambda", "R", "distributions"):
        for n in (2, 3, 4, 5, 6, 8) if which == "lambda" else range(2, 7):
            for kind in ("random", "degenerate", "rank-deficient"):
                if n > 6 and kind != "random":
                    continue
                y = _dual(_operator(rng, n, kind))
                add(f"tensors-{which}-n{n}-{kind}",
                    ["tensors", "--which", which, "--json",
                     json.dumps({"dim": n, "y": y})])
        for e in (-200, 200):
            y = (np.array([0.5, 0.1, 0.0, 0.2]) * 10.0 ** e).tolist()
            add(f"tensors-{which}-scale1e{e}",
                ["tensors", "--which", which, "--json",
                 json.dumps({"dim": 2, "y": y})])
        add(f"tensors-{which}-origin",
            ["tensors", "--which", which, "--json",
             json.dumps({"dim": 3, "y": [0.0] * 9})])
        add(f"tensors-{which}-above-cap",
            ["tensors", "--which", which, "--json",
             json.dumps({"dim": big, "y": [0.0] * big ** 2})])
    add("tensors-output",
        ["--output", "t.json", "tensors", "--which", "distributions", "--json",
         json.dumps({"dim": 3, "y": [1, 0, 0, 0.2, 0, 0, 0, 0, 0.1]})],
        outputs=["t.json"])
    for name, text in {
            "nan": '{"dim": 2, "y": [NaN, 0, 0, 0]}',
            "length": '{"dim": 2, "y": [0.5, 0, 0]}',
            "scalar": '{"dim": 2, "y": 0.5}',
            "dim-one": '{"dim": 1, "y": [1]}',
            "dim-str": '{"dim": "x", "y": [1, 0, 0, 0]}',
            "entry-str": '{"dim": 2, "y": ["a", 0, 0, 0]}',
            "missing-y": '{"dim": 2}'}.items():
        add(f"tensors-refused-{name}",
            ["tensors", "--which", "lambda", "--json", text])
    add("tensors-refused-which", ["tensors", "--which", "x", "--json", "{}"])
    add("tensors-refused-no-which", ["tensors", "--json", "{}"])

    # -- constants ----------------------------------------------------------
    for n in (2, 3, 4, 5):
        add(f"constants-n{n}", ["constants", "--n", str(n)])
    add("constants-output", ["--output", "c.csv", "constants", "--n", "3"],
        outputs=["c.csv"])
    for n in ("1", "0", "-2", "13", "1000000", "three", "2.0"):
        add(f"constants-refused-{n}", ["constants", "--n", n])

    # -- flow ---------------------------------------------------------------
    for n in range(2, 13):
        for kind in ("random", "degenerate", "rank-deficient"):
            a = _operator(rng, n, kind)
            psi = rng.normal(size=(2, n))
            payload = json.dumps({"A": _op(a), "psi0": {
                "dim": n, "q": psi[0].tolist(), "p": psi[1].tolist()}})
            add(f"flow-ham-n{n}-{kind}",
                ["flow", "--mode", "hamiltonian", "--t-final", "0.3",
                 "--step", "0.01", "--json", payload])
            for opt in ("ascent", "descent"):
                add(f"flow-eig-n{n}-{kind}-{opt}",
                    ["flow", "--mode", "gradient-eigensolve", "--opt-mode",
                     opt, "--max-iter", "300", "--json", payload])
        seeded = json.dumps({"A": _op(_operator(rng, n, "random"))})
        add(f"flow-ham-n{n}-seeded-trace",
            ["--output", "f.json", "flow", "--mode", "hamiltonian",
             "--t-final", "0.2", "--step", "0.02", "--trace", "tr.csv",
             "--json", seeded], outputs=["f.json", "tr.csv"])
        add(f"flow-eig-n{n}-seeded-trace",
            ["--output", "f.json", "flow", "--seed", str(n), "--mode",
             "gradient-eigensolve", "--max-iter", "200", "--trace", "tr.csv",
             "--json", seeded], outputs=["f.json", "tr.csv"])
    a2 = np.array([[0.3, 0.4 - 0.1j], [0.4 + 0.1j, -0.7]])
    for ea in (-200, -50, 0, 50, 200):
        for ep in (-300, -170, 0, 200, 300):
            payload = json.dumps({"A": _op(a2 * 10.0 ** ea), "psi0": {
                "dim": 2, "q": [0.6 * 10.0 ** ep, 0.0],
                "p": [0.0, 0.8 * 10.0 ** ep]}})
            add(f"flow-ham-scale-A1e{ea}-psi1e{ep}",
                ["flow", "--mode", "hamiltonian", "--t-final", "1",
                 "--step", "0.1", "--json", payload])
            add(f"flow-eig-scale-A1e{ea}-psi1e{ep}",
                ["flow", "--mode", "gradient-eigensolve", "--max-iter", "300",
                 "--json", payload])
    add("flow-ham-default-grid", ["flow", "--mode", "hamiltonian",
                                  "--t-final", "0.05", "--json",
                                  json.dumps({"A": _op(a2)})])
    add("flow-ham-zero-t", ["flow", "--mode", "hamiltonian", "--t-final", "0",
                            "--json", json.dumps({"A": _op(a2)})])
    add("flow-eig-identity-trace",
        ["flow", "--mode", "gradient-eigensolve", "--trace", "tr.csv",
         "--json", json.dumps({"A": _op(np.eye(3))})], outputs=["tr.csv"])
    add("flow-eig-max-iter-0", ["flow", "--mode", "gradient-eigensolve",
                                "--max-iter", "0", "--json",
                                json.dumps({"A": _op(a2)})])
    sigma3 = _op(np.diag([1.0, -1.0]))

    def flow_payload(q, p, dim=2):
        return json.dumps({"A": sigma3, "psi0": {"dim": dim, "q": q, "p": p}})

    bad_psi = {"zero": flow_payload([0, 0], [0, 0]),
               "other-dim": flow_payload([1, 0, 0], [0, 0, 0], dim=3),
               "length": flow_payload([1, 0, 0], [0, 0]),
               "nan": '{"A": %s, "psi0": {"dim": 2, "q": [NaN, 1], '
                      '"p": [0, 0]}}' % json.dumps(sigma3),
               "str": flow_payload(["a", 0], [0, 0]),
               "no-A": '{"psi0": {"dim": 2, "q": [1, 0], "p": [0, 0]}}',
               "A-list": '{"A": [1, 2]}'}
    for mode in ("hamiltonian", "gradient-eigensolve"):
        for name, payload in bad_psi.items():
            add(f"flow-{mode}-refused-{name}",
                ["flow", "--mode", mode, "--json", payload])
        for flag, value in (("--step", "0"), ("--step", "nan"),
                            ("--step", "-1e-3"), ("--step", "inf"),
                            ("--t-final", "-1"), ("--t-final", "inf"),
                            ("--max-iter", "-1"), ("--step", "x")):
            add(f"flow-{mode}-refused{flag}{value}",
                ["flow", "--mode", mode, f"{flag}={value}", "--json",
                 json.dumps({"A": sigma3})])
        add(f"flow-{mode}-refused-trace-path",
            ["flow", "--mode", mode, "--t-final", "0.01", "--trace",
             "no/such/tr.csv", "--json", json.dumps({"A": sigma3})])
    add("flow-refused-grid-cap", ["flow", "--mode", "hamiltonian",
                                  "--t-final", "1e7", "--json",
                                  json.dumps({"A": sigma3})])
    add("flow-refused-grid-inf-ratio",
        ["flow", "--mode", "hamiltonian", "--t-final", "1e300",
         "--step", "1e-300", "--json", json.dumps({"A": sigma3})])
    add("flow-refused-mode", ["flow", "--mode", "x", "--json", "{}"])
    add("flow-overflow-norm", ["flow", "--mode", "hamiltonian", "--json",
                               flow_payload([1.7e308, 1.7e308], [0, 0])])
    add("flow-overflow-phase",
        ["flow", "--mode", "hamiltonian", "--t-final", "1e308", "--step",
         "1e307", "--json", json.dumps({"A": _op(np.diag([1.0, -3.0]))})])

    # -- ballgrid -----------------------------------------------------------
    for r in (2, 3, 4, 5, 7, 9):
        add(f"ballgrid-r{r}", ["ballgrid", "--resolution", str(r)])
    for tol in ("0", "0.05"):
        add(f"ballgrid-tol{tol}", ["ballgrid", "--tol", tol, "--resolution",
                                   "5"])
    add("ballgrid-default-output", ["--output", "g.csv", "ballgrid"],
        outputs=["g.csv"])
    for r in ("1", "0", "102", "-5", "x"):
        add(f"ballgrid-refused-{r}", ["ballgrid", f"--resolution={r}"])
    add("refused-no-command", [])
    add("refused-unknown-command", ["nonsense"])

    # -- mis-typed wire entries: a bool or a numeric string is no number ----
    zeros = "[[0, 0], [0, 0]]"
    for name, argv in {
            "classify-re-str-bool": ["classify", "--json", '{"dim": 2, "re": '
                                     '[["0.5", false], [0, "5e-1"]], "im": '
                                     + zeros + "}"],
            "classify-im-bool": ["classify", "--json", '{"dim": 2, "re": '
                                 '[[0.5, 0], [0, 0.5]], "im": [[false, 0], '
                                 "[0, 0]]}"],
            "tensors-y-bool": ["tensors", "--which", "lambda", "--json",
                               '{"dim": 2, "y": [true, 0, 0, 0]}'],
            "tensors-y-str": ["tensors", "--which", "lambda", "--json",
                              '{"dim": 2, "y": ["0.5", 0, 0, 0]}'],
            "flow-q-bool": ["flow", "--mode", "hamiltonian", "--json",
                            flow_payload([True, 0], [0, 0])],
            "flow-p-str": ["flow", "--mode", "gradient-eigensolve", "--json",
                           flow_payload([1, 0], ["0", 0])],
            "flow-A-str": ["flow", "--mode", "hamiltonian", "--json",
                           '{"A": {"dim": 2, "re": [["1", 0], [0, -1]], '
                           '"im": ' + zeros + "}}"]}.items():
        add(f"wire-refused-{name}", argv)

    # -- flows longer than one phase slice (realified.FLOW_SLICE = 2048) ----
    # Last, so that every earlier case keeps its id and its random draws.
    for n, trace in ((2, ()), (4, ("--trace", "tr.csv"))):
        psi = rng.normal(size=(2, n))
        payload = json.dumps({"A": _op(_operator(rng, n, "random")), "psi0": {
            "dim": n, "q": psi[0].tolist(), "p": psi[1].tolist()}})
        add(f"flow-ham-n{n}-default-step-t10",
            ["flow", "--mode", "hamiltonian", "--t-final", "10", *trace,
             "--json", payload], outputs=trace[1:])
    # t * w overflows only past sample 8,557 of 10,001, inside the last slice:
    # neither the phase table nor a slice start forms it
    add("flow-overflow-phase-late-slice",
        ["flow", "--mode", "hamiltonian", "--t-final", "7e307", "--step",
         "7e303", "--json", json.dumps({"A": _op(np.diag([1.0, -3.0]))})])
    # finite coordinates whose operator sum_mu y[mu] b_mu overflows
    for which in ("distributions", "lambda", "R"):
        add(f"tensors-{which}-refused-operator-overflow",
            ["tensors", "--which", which, "--json",
             '{"dim": 2, "y": [1e308, 1e308, 1e308, 1e308]}'])
    # finite operators whose top eigenvalue overflows: eigh returns inf;
    # lambda and R read xi at its exact scale and print their matrix
    for which in ("distributions", "lambda", "R"):
        add(f"tensors-{which}-refused-spectrum-overflow",
            ["tensors", "--which", which, "--json",
             '{"dim": 2, "y": [8e307, 8e307, 8e307, 8e307]}'])
    huge = json.dumps({"A": _op(1.2e308 * np.ones((2, 2)))})
    for mode in ("hamiltonian", "gradient-eigensolve"):
        add(f"flow-{mode}-refused-spectrum-overflow",
            ["flow", "--mode", mode, "--json", huge])

    # -- each option only on the subcommands that read it -------------------
    sigma3_only = json.dumps({"A": sigma3})
    for name, argv in {
            "classify-tol-global": ["--tol", "0.1", "classify", "--json",
                                    half],
            "flow-seed-global": ["--seed", "3", "flow", "--mode",
                                 "gradient-eigensolve", "--json",
                                 sigma3_only],
            "tensors-tol": ["tensors", "--tol", "0", "--which", "lambda",
                            "--json", '{"dim": 2, "y": [0.5, 0, 0, 0]}'],
            "constants-seed": ["constants", "--seed", "1", "--n", "2"],
            "flow-tol": ["flow", "--tol", "0", "--mode", "hamiltonian",
                         "--json", sigma3_only],
            "decompose-tol-nan": ["decompose", "--tol", "nan", "--json",
                                  half],
            "ballgrid-tol-nan": ["ballgrid", "--tol", "nan",
                                 "--resolution", "2"]}.items():
        add(f"option-refused-{name}", argv)
    # a JSON integer beyond the float range is a payload fault
    big_int = "1" + "0" * 400
    for name, argv in {
            "classify-re": ["classify", "--json", '{"dim": 2, "re": [[%s, 0], '
                            '[0, 0.5]], "im": %s}' % (big_int, zeros)],
            "classify-dim": ["classify", "--json", '{"dim": %s, "re": [[0.5, '
                             '0], [0, 0.5]], "im": %s}' % (big_int, zeros)],
            "tensors-y": ["tensors", "--which", "lambda", "--json",
                          '{"dim": 2, "y": [%s, 0, 0, 0]}' % big_int],
            "flow-q": ["flow", "--mode", "hamiltonian", "--json",
                       flow_payload([10 ** 400, 0], [0, 0])]}.items():
        add(f"wire-refused-int-beyond-float-{name}", argv)
    # the qutrit minors of entries past 1e154 overflow; a rejection all the
    # same, as at n = 2
    add("classify-qutrit-huge-entries",
        ["classify", "--json", json.dumps(_op(
            [[0.34, 1e160, 0], [1e160, 0.33, 0], [0, 0, 0.33]]))])
    # w_i +- w_j beyond the float range
    for which in ("distributions", "lambda", "R"):
        add(f"tensors-{which}-pair-overflow",
            ["tensors", "--which", which, "--json",
             '{"dim": 2, "y": [0, 8e307, 8e307, 8e307]}'])
    add("classify-refused-coordinates-overflow",
        ["classify", "--tol", "1e308", "--json",
         json.dumps(_op([[0.5, 9e307], [9e307, 0.5]]))])
    # a finite spectrum, where Tr(xi b_mu b_nu) once overflowed in its
    # matmul: Lambda is 0
    add("tensors-lambda-refused-tensor-overflow",
        ["tensors", "--which", "lambda", "--json",
         '{"dim": 2, "y": [1.2e308, 0, 0, 0]}'])
    # e_A = 1.7e308 is representable, but not n2 * e_A at psi's scale
    add("flow-hamiltonian-e-A-near-float-max",
        ["flow", "--mode", "hamiltonian", "--t-final", "0.001", "--json",
         json.dumps({"A": _op(np.full((12, 12), 1.7e308 / 12)),
                     "psi0": {"dim": 12, "q": [1.0] * 12, "p": [0.0] * 12}})])
    # y_0 = 1.79e308 makes sum_mu y[mu] b_mu overflow, but Lambda does not
    # depend on y_0 and the distributions not on y's scale: both print
    for which in ("lambda", "distributions"):
        add(f"tensors-{which}-y0-near-float-max",
            ["tensors", "--which", which, "--json",
             '{"dim": 2, "y": [1.79e308, 0, 0, 1e306]}'])
    # a non-diagonal A at 2**+-600, where LAPACK would rescale it by a
    # factor that is not a power of two; the flow's t at 2**600 in turn
    a4, psi = _operator(rng, 4, "random"), rng.normal(size=(2, 4))
    psi0 = {"dim": 4, "q": psi[0].tolist(), "p": psi[1].tolist()}
    for mode, e, times in (("gradient-eigensolve", 600, ()),
                           ("hamiltonian", -600, ("--t-final",
                                                  repr(2.0 ** 600), "--step",
                                                  repr(2.0 ** 600 / 16)))):
        scaled = np.ldexp(a4.real, e) + 1j * np.ldexp(a4.imag, e)
        add(f"flow-{mode}-A-2e{e}", ["flow", "--mode", mode, *times,
                                     "--json", json.dumps({"A": _op(scaled),
                                                           "psi0": psi0})])
    return cases


def run_case(case) -> dict:
    """Run one case in the current directory: its exit code, stdout, stderr
    and the bytes of each output file it names (None if not written)."""
    for name, text in case["inputs"].items():
        with open(name, "w", encoding="utf-8", errors="surrogateescape") as fh:
            fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case["argv"])
    files = {}
    for name in case["outputs"]:
        try:
            with open(name, "rb") as fh:
                files[name] = fh.read()
            os.remove(name)
        except OSError:
            files[name] = None
    for name in case["inputs"]:
        os.remove(name)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


def _digest(h, result) -> None:
    h.update(f"{result['exit']}\0".encode())
    h.update(result["stdout"].encode() + b"\0")
    h.update(result["stderr"].encode() + b"\0")
    for name, data in sorted(result["files"].items()):
        h.update(name.encode() + b"\0")
        h.update(b"<absent>" if data is None else data)
        h.update(b"\0")


def case_digest(result) -> str:
    """The SHA-256 of one case's result, as CORPUS.json lists it."""
    h = hashlib.sha256()
    _digest(h, result)
    return h.hexdigest()


def first_word(stderr: str) -> str:
    return stderr.split()[0] if stderr.strip() else ""


def run_corpus(cases=None) -> list:
    """(case, result) for every case (by default the whole corpus), run in
    a fresh temporary directory."""
    cases = build_cases() if cases is None else cases
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return [(case, run_case(case)) for case in cases]
        finally:
            os.chdir(here)


def _subcommand(argv) -> str:
    for word in argv:
        if word in ("classify", "decompose", "tensors", "constants", "flow",
                    "ballgrid"):
            return word
    return "none"


def record(results) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    per, hashes, listing = {}, {}, []
    for case, result in results:
        sub = _subcommand(case["argv"])
        entry = per.setdefault(sub, {"cases": 0, "exit_codes": {}})
        entry["cases"] += 1
        codes = entry["exit_codes"]
        codes[str(result["exit"])] = codes.get(str(result["exit"]), 0) + 1
        _digest(hashes.setdefault(sub, hashlib.sha256()), result)
        listing.append({"id": case["id"], "exit": result["exit"],
                        "stderr_word": first_word(result["stderr"]),
                        "sha256": case_digest(result)})
    for sub, entry in per.items():
        entry["sha256"] = hashes[sub].hexdigest()
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": sys.version.split()[0],
            "seed": SEED, "cases": len(results), "subcommands": per,
            "case_list": listing}


def _outcome(case) -> str:
    """A case's exit code and first stderr word, "absent" for no case."""
    if case is None:
        return "absent"
    return f"{case['exit']} {case['stderr_word']}".rstrip()


def changed(old: dict, new: dict) -> list:
    """One line per case whose exit code, first stderr word or SHA-256
    differ between two records, in case order: its id and its outcome in
    each record, as in "0661-... 3 numeric -> 0"; a case only one record
    holds counts as changed."""
    keys = ("exit", "stderr_word", "sha256")
    was, now = ({c["id"]: c for c in r["case_list"]} for r in (old, new))
    return [f"{i} {_outcome(was.get(i))} -> {_outcome(now.get(i))}"
            for i in sorted(was.keys() | now.keys())
            if [was.get(i, {}).get(k) for k in keys]
            != [now.get(i, {}).get(k) for k in keys]]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--against"] and len(sys.argv) == 3:
        with open(sys.argv[2]) as fh:
            ids = changed(json.load(fh), record(run_corpus()))
        print("\n".join(ids) if ids else "no case changed")
        sys.exit(1 if ids else 0)
    if sys.argv[1:]:
        sys.exit("usage: corpus.py [--against CORPUS.json]")
    print(json.dumps(record(run_corpus()), indent=1, sort_keys=True))
