import contextlib
import hashlib
import importlib
import io
import json
import math
import pkgutil
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomstates
from geomstates import (
    DensityState,
    basis,
    certify_density,
    cli,
    face_of,
    gellmann_basis,
    orbit_dimension,
    qubit_from_bloch,
    realified,
    serialize,
    to_dual,
    weyl_reduce,
)
from geomstates.serialize import (
    csv_float,
    operator_to_dict,
    state_from_dict,
    state_to_dict,
)
from geomstates.realified import (
    RealifiedState,
    critical_point_eigensolve,
    expectation_trace_samples,
)
from geomstates.states import TOL_PSD

from conftest import random_hermitian, random_state, subprocess_env


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def op_json(a):
    return json.dumps(operator_to_dict(np.asarray(a, dtype=complex)))


def test_classify_maximally_mixed_qubit(capsys):
    code, out = run(capsys, "classify", "--json", op_json(np.eye(2) / 2))
    report = json.loads(out)
    assert code == 0
    assert report["density"] is True
    assert report["rank"] == 2
    assert report["orbit_dim"] == 0
    assert report["face_dim"] == 3


def test_classify_outside_ball(capsys):
    code, out = run(capsys, "classify", "--json",
                    op_json(qubit_from_bloch(0.0, 0.0, 0.6)))
    report = json.loads(out)
    assert code == 0
    assert report["density"] is False
    assert report["violated"] == "ball radius"


def test_classify_qutrit_maximally_mixed(capsys):
    code, out = run(capsys, "classify", "--json", op_json(np.eye(3) / 3))
    report = json.loads(out)
    assert code == 0
    assert report["rank"] == 3 and report["orbit_dim"] == 0


@pytest.mark.parametrize("n", [5, 8, 12])
def test_classify_maximally_mixed_orbit_dim_zero(capsys, n):
    report = json.loads(run(capsys, "classify", "--json",
                            op_json(np.eye(n) / n))[1])
    assert report["rank"] == n and report["orbit_dim"] == 0


def test_classify_reports_dual_coordinates(capsys):
    rho = qubit_from_bloch(0.1, -0.2, 0.15)
    _, out = run(capsys, "classify", "--json", op_json(rho))
    y = np.array(json.loads(out)["y"])
    assert np.abs(y - to_dual(rho, gellmann_basis(2))).max() < 1e-15


def _classify_states(n):
    """(kind, operator) at dimension n: full rank, rank-deficient,
    degenerate (two eigenvalues of multiplicity n // 2 and n - n // 2, so
    from n = 3), the scalar I/n, and smallest eigenvalues of
    +-0.9 TOL_PSD."""
    rng = np.random.default_rng(2600 + n)
    k, h = int(rng.integers(1, n)), max(1, n // 2)
    spectra = {
        "full": rng.dirichlet(np.ones(n)),
        "rank-deficient": np.concatenate([rng.dirichlet(np.ones(k)),
                                          np.zeros(n - k)]),
        "degenerate": np.repeat([0.6 / h, 0.4 / (n - h)], [h, n - h]),
        **{f"edge{s:+}": np.append(rng.dirichlet(np.ones(n - 1)),
                                   s * 0.9 * TOL_PSD) for s in (-1, 1)},
    }
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    for kind, w in spectra.items():
        m = (u * (w / w.sum())) @ u.conj().T
        yield kind, (m + m.conj().T) / 2
    yield "scalar", np.eye(n) / n


@pytest.mark.parametrize("n", range(2, 13))
def test_classify_prints_the_report_of_the_public_helpers(capsys, n):
    for kind, a in _classify_states(n):
        rho = certify_density(a)
        assert isinstance(rho, DensityState), kind
        want = serialize.dumps({
            "density": True,
            "rank": int(rho.rank),
            "spectrum": rho.spectrum.tolist(),
            "y": to_dual(rho.op, gellmann_basis(n)).tolist(),
            "weyl": weyl_reduce(rho).tolist(),
            "orbit_dim": int(orbit_dimension(rho)),
            "face_dim": int(face_of(rho).dimension),
        }) + "\n"
        assert run(capsys, "classify", "--json", op_json(a)) == (0, want), kind


def test_classify_checks_and_diagonalizes_once(capsys, monkeypatch):
    calls = {"check_hermitian": 0, "eigh": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    check = counted("check_hermitian", basis.check_hermitian)
    for name, module in list(sys.modules.items()):  # each that imported it
        if name.startswith("geomstates") and hasattr(module, "check_hermitian"):
            monkeypatch.setattr(module, "check_hermitian", check)
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    # a full-rank qutrit, which also takes the principal-minor cross-check
    a = np.diag([0.5, 0.3, 0.2]) + 0.05 * (np.eye(3, k=1) + np.eye(3, k=-1))
    code, out = run(capsys, "classify", "--json", op_json(a))
    assert code == 0 and json.loads(out)["rank"] == 3
    assert calls == {"check_hermitian": 1, "eigh": 1}


def test_classify_from_file(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(op_json(np.eye(2) / 2))
    code, out = run(capsys, "classify", "--input", str(path))
    assert code == 0 and json.loads(out)["density"] is True


def test_classify_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, _ = run(capsys, "--output", str(dest),
                  "classify", "--json", op_json(np.eye(2) / 2))
    assert code == 0
    assert json.loads(dest.read_text())["rank"] == 2


def _writer_cases():
    rng = np.random.default_rng(16)
    m = random_hermitian(rng, 3)
    rho = m @ m / np.trace(m @ m).real
    y = {"dim": 3, "y": to_dual(rho, gellmann_basis(3)).tolist()}
    flow = json.dumps({"A": operator_to_dict(random_hermitian(rng, 3)),
                       "psi0": state_to_dict(random_state(rng, 3))})
    return {
        "classify": ("classify", "--json", op_json(rho)),
        "decompose": ("decompose", "--json", op_json(rho)),
        "tensors": ("tensors", "--which", "lambda", "--json", json.dumps(y)),
        "constants": ("constants", "--n", "3"),
        "flow-hamiltonian": ("flow", "--mode", "hamiltonian", "--t-final",
                             "1", "--step", "0.1", "--json", flow),
        "flow-eigensolve": ("flow", "--mode", "gradient-eigensolve",
                            "--json", flow),
        "ballgrid": ("ballgrid", "--resolution", "5"),
    }


@pytest.mark.parametrize("case", sorted(_writer_cases()))
def test_output_file_holds_stdout_bytes(tmp_path, capsys, case):
    # main is the one writer: --output gets the text that stdout gets, less
    # the newline stdout adds to a text that lacks one
    argv = _writer_cases()[case]
    dest = tmp_path / "out"
    code, out = run(capsys, *argv)
    assert code == 0 and out.endswith("\n")
    assert run(capsys, "--output", str(dest), *argv) == (0, "")
    text = dest.read_bytes().decode()
    assert out == text + ("" if text.endswith("\n") else "\n")


def assert_usage_error(capsys, *argv):
    """Exit 2 with nothing on stdout and a single "error:" line on stderr,
    which it returns."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "classify")[0] == 2  # no payload source
    assert run(capsys, "classify", "--json", "{", )[0] == 2  # bad JSON
    assert run(capsys, "classify", "--json", "{}")[0] == 2  # missing keys
    assert run(capsys, "constants", "--n", "1")[0] == 2
    assert run(capsys, "ballgrid", "--resolution", "1")[0] == 2
    # refused before anything is allocated, so the oversize grid is cheap
    too_big = str(cli.MAX_BALLGRID_RESOLUTION + 1)
    assert run(capsys, "ballgrid", "--resolution", too_big)[0] == 2
    # payloads that are not objects, or have dim < 2
    assert_usage_error(capsys, "classify", "--json", "[1,2]")
    assert_usage_error(capsys, "classify", "--json", "3")
    assert_usage_error(capsys, "classify", "--json",
                       '{"dim": 1, "re": [[1]], "im": [[0]]}')
    assert_usage_error(capsys, "classify", "--json",
                       '{"dim": null, "re": [[1]], "im": [[0]]}')
    assert_usage_error(capsys, "tensors", "--which", "lambda", "--json",
                       '{"dim": 1, "y": [1]}')
    # dim must be a finite number with an integer value
    for dim in ("1e400", "2.5", "true", '"3"'):
        assert_usage_error(capsys, "classify", "--json",
                           f'{{"dim": {dim}, "re": [[1]], "im": [[0]]}}')
        assert_usage_error(capsys, "tensors", "--which", "distributions",
                           "--json", f'{{"dim": {dim}, "y": [1, 0, 0, 0]}}')
        psi0 = {"dim": "DIM", "q": [1, 0], "p": [0, 0]}
        assert_usage_error(capsys, "flow", "--mode", "hamiltonian", "--json",
                           json.dumps({"A": SIGMA3, "psi0": psi0})
                           .replace('"DIM"', dim))
    assert_usage_error(capsys, "tensors", "--which", "distributions",
                       "--json", '{"dim": 2, "y": [NaN, 0, 0, 0]}')
    assert_usage_error(capsys, "flow", "--mode", "hamiltonian",
                       "--json", '{"A": [1,2]}')
    # the Bloch line needs a nonzero finite 3-vector
    for direction in ("0,0", "0,0,0", "nan,0,0", "inf,0,1"):
        assert_usage_error(capsys, "decompose", "--json",
                           op_json(np.eye(2) / 2), "--mode", "bloch",
                           "--direction", direction)
    # refused before C and d are allocated; never run an oversize case
    assert_usage_error(capsys, "constants", "--n",
                       str(basis.MAX_CONSTANTS_N + 1))
    # argparse's own errors; it drops the "--" of "--opt=--" and would
    # store [] unparsed
    for argv in (("flow", "--mode", "hamiltonian", "--step", "x", "--json",
                  "{}"),
                 ("constants", "--n", "three"),
                 ("decompose", "--mode", "bloch", "--direction", "a,b",
                  "--json", "{}"),
                 ("tensors", "--json", "{}"),
                 ("nonsense",),
                 ("ballgrid", "--resolution=--")):
        assert_usage_error(capsys, *argv)
    for tol in (("--tol", "abc"), ("--tol=--",)):
        assert assert_usage_error(capsys, "classify", *tol, "--json", "{}"
                                  ).startswith("error: argument --tol: ")
    # re and im must each be n x n: numpy would broadcast a scalar or a row
    for re, im in (("0.5", "[[0,0],[0,0]]"), ("[[0.5,0],[0,0.5]]", "0"),
                   ("[[0.5,0],[0,0.5]]", "[[0,0]]")):
        assert_usage_error(capsys, "classify", "--json",
                           f'{{"dim": 2, "re": {re}, "im": {im}}}')


def test_help_exits_zero(capsys):
    code, out = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: geomstates")


@pytest.mark.parametrize("flag, value", [
    ("--step", "0"), ("--step", "nan"), ("--step", "-0.001"), ("--step", "inf"),
    ("--t-final", "inf"), ("--t-final", "-1"), ("--t-final", "nan"),
])
@pytest.mark.parametrize("mode", ["hamiltonian", "gradient-eigensolve"])
def test_flow_time_grid_refused(capsys, mode, flag, value):
    payload = json.dumps(
        {"A": operator_to_dict(np.diag([1.0, -1.0]).astype(complex))})
    assert_usage_error(capsys, "flow", "--mode", mode, flag, value,
                       "--json", payload)


SIGMA3 = operator_to_dict(np.diag([1.0, -1.0]).astype(complex))


@pytest.mark.parametrize("psi0", [
    {"dim": 3, "q": [1, 0, 0], "p": [0, 0, 0]},  # dim differs from A's
    {"dim": 2, "q": [0, 0], "p": [0, 0]},
    {"dim": 2, "q": [float("nan"), 1], "p": [0, 0]},
    {"dim": 2, "q": [1, 0], "p": [float("inf"), 0]},
])
@pytest.mark.parametrize("mode", ["hamiltonian", "gradient-eigensolve"])
def test_flow_bad_psi0_refused(capsys, mode, psi0):
    payload = json.dumps({"A": SIGMA3, "psi0": psi0})
    assert_usage_error(capsys, "flow", "--mode", mode, "--json", payload)


@pytest.mark.parametrize("argv", [
    # the norm of psi0, about 2.4e308, overflows
    ("--json", json.dumps({"A": SIGMA3, "psi0": {
        "dim": 2, "q": [1.7e308, 1.7e308], "p": [0, 0]}})),
    # t * eigenvalue overflows in the phase of exp(itA)
    ("--t-final", "1e308", "--step", "1e307",
     "--json", json.dumps({"A": operator_to_dict(np.diag([1.0, -3.0]))})),
    # the same, only past sample 8,557 of 10,001, inside the last slice
    ("--t-final", "7e307", "--step", "7e303",
     "--json", json.dumps({"A": operator_to_dict(np.diag([1.0, -3.0]))})),
])
def test_flow_overflow_is_numeric_failure(capsys, argv):
    code = cli.main(["flow", "--mode", "hamiltonian", *argv])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    what = ("norm overflow: |psi|" if argv[0] == "--json"
            else "phase overflow: an angle t w")
    assert captured.err == (f"numeric failure: {what} is beyond the float "
                            "range\n")


# Finite operators whose spectrum is beyond the float range: eigh returns
# inf.  tensors --which lambda and R once exited 0 with rank 0, and the
# other three exited 3 with numpy's text; the flows now refuse it in the
# library's words.  Lambda, R and the distributions read y at its exact
# scale, so at y = 8e307 (1, 1, 1, 1) they exit 0 (err None): Lambda and R
# print 2**k times the matrix at y * 2**-k, as they do at
# y = (1.2e308, 0, 0, 0), where the matmul of Tr(xi b_mu b_nu) once
# overflowed, and the distributions print the dimensions and bases at
# y * 2**-k.  R at (1.2e308, 0, 0, 0) has 2.4e308 on its diagonal, a true
# overflow.
_HUGE_A = json.dumps({"A": operator_to_dict(1.2e308 * np.ones((2, 2)))})
_SPECTRUM = "spectrum overflow: an eigenvalue is beyond the float range"


@pytest.mark.parametrize("argv, err", [
    *[pytest.param(("tensors", "--which", which, "--json",
                    json.dumps({"dim": 2, "y": [8e307] * 4})), err,
                   id=which)
      for which, err in (("lambda", None), ("R", None),
                         ("distributions", None))],
    *[pytest.param(("flow", "--mode", mode, "--json", _HUGE_A), _SPECTRUM,
                   id=mode)
      for mode in ("hamiltonian", "gradient-eigensolve")],
    *[pytest.param(("tensors", "--which", which, "--json",
                    json.dumps({"dim": 2, "y": [1.2e308, 0, 0, 0]})), err,
                   id=f"{which}-matrix")
      for which, err in (("lambda", None),
                         ("R", "tensor overflow: a Tr(xi b_mu b_nu) is "
                          "beyond the float range"))],
])
def test_spectrum_overflow_is_numeric_failure(capsys, argv, err):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    if err is not None:
        assert (code, captured.out) == (3, "")
        assert captured.err == f"numeric failure: {err}\n"
        return
    assert (code, captured.err) == (0, "")
    y = np.ldexp(json.loads(argv[-1])["y"], -8).tolist()
    small = run(capsys, *argv[:-1], json.dumps({"dim": 2, "y": y}))
    got, want = (json.loads(out) for out in (captured.out, small[1]))
    if "matrix" not in got:  # the distributions: all but y are the same
        assert got.pop("y") == np.ldexp(want.pop("y"), 8).tolist()
        assert got == want and got["dims"]["D1"] == 4
        return
    assert got["rank"] == want["rank"]
    assert np.array_equal(got["matrix"], np.ldexp(want["matrix"], 8))


def test_flow_e_a_column_at_the_float_range(capsys):
    # e_A = 1.7e308 is representable, but n2 * e_A, with n2 = |psi|^2 at
    # psi's exact scale, is not: the column once overflowed and the drift
    # exited 3 with numpy's "invalid value encountered in subtract".  It is
    # formed at A's exact scale.
    a = np.full((12, 12), 1.7e308 / 12)
    payload = json.dumps({"A": operator_to_dict(a), "psi0": {
        "dim": 12, "q": [1.0] * 12, "p": [0.0] * 12}})
    code, out = run(capsys, "flow", "--mode", "hamiltonian", "--t-final",
                    "0.001", "--json", payload)
    report = json.loads(out)
    assert code == 0
    assert report["e_A_drift"] <= 1e-12 * 1.7e308
    assert report["norm_drift"] <= 1e-12


@pytest.mark.parametrize("exp", [-565, 664])
def test_flow_eigensolve_psi0_at_any_scale(capsys, exp):
    # |psi0|^2 underflows to 0 at 2**-565 and overflows at 2**664.  psi0 is
    # zero only when no entry is nonzero, and the solver scales the start by
    # a power of two before it normalizes it, so stdout is that of the
    # unscaled start, byte for byte.
    a = operator_to_dict(np.array([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]]))
    outs = []
    for q in ([0.6, 0.8], np.ldexp([0.6, 0.8], exp).tolist()):
        payload = json.dumps({"A": a, "psi0": {"dim": 2, "q": q,
                                               "p": [0.0, 0.0]}})
        outs.append(run(capsys, "flow", "--mode", "gradient-eigensolve",
                        "--json", payload))
    assert outs[0][0] == 0 and outs[1] == outs[0]


@pytest.mark.parametrize("q", [np.ldexp([0.6, 0.8], exp)
                               for exp in (-565, 664, 997)])
def test_flow_hamiltonian_psi0_beyond_square_range(capsys, tmp_path, q):
    # |q|^2 underflows to 0 at 2**-565 (about 1e-170) and overflows at
    # 2**664 (about 1e200) and 2**997 (about 1e300), but the flow runs from
    # psi0 scaled exactly by a power of two: e_A is that of [0.6, 0.8] bit
    # for bit, and the norms are 2**exp times.
    exp = round(math.log2(q[0] / 0.6))
    outs, samples = [], []
    for x in (np.array([0.6, 0.8]), q):
        psi0 = {"dim": 2, "q": x.tolist(), "p": [0.0, 0.0]}
        trace = tmp_path / "trace.csv"
        code, out = run(capsys, "flow", "--mode", "hamiltonian",
                        "--t-final", "1", "--step", "0.01", "--trace",
                        str(trace), "--json",
                        json.dumps({"A": SIGMA3, "psi0": psi0}))
        assert code == 0
        rows = [line.split(",") for line in trace.read_text().splitlines()]
        outs.append((json.loads(out), [r[:2] for r in rows]))
        samples.append(expectation_trace_samples(
            np.diag([1.0, -1.0]), state_from_dict(psi0), 1.0, 0.01))
    (want, want_cols), (got, got_cols) = outs
    assert got_cols == want_cols  # the t and e_A columns of the trace
    assert got["e_A_drift"] == want["e_A_drift"]
    assert got["norm_drift"] == math.ldexp(want["norm_drift"], exp)
    (want_s, want_dn, want_de), (got_s, got_dn, got_de) = samples
    assert np.array_equal(got_s[:, :2], want_s[:, :2])
    assert np.array_equal(got_s[:, 2], np.ldexp(want_s[:, 2], exp))
    assert (got_dn, got_de) == (math.ldexp(want_dn, exp), want_de)


def test_flow_sample_grid_capped(capsys):
    # round(t_final / step) + 1 samples; refused before anything is allocated
    payload = json.dumps({"A": SIGMA3})
    for t_final in (str(realified.MAX_FLOW_SAMPLES), "1e300"):
        assert_usage_error(capsys, "flow", "--mode", "hamiltonian",
                           "--t-final", t_final, "--step", "1",
                           "--json", payload)
    # the grid does not limit the eigensolver
    code, _ = run(capsys, "flow", "--mode", "gradient-eigensolve",
                  "--t-final", "1e300", "--step", "1e-3", "--json", payload)
    assert code == 0


def test_flow_negative_max_iter_refused(capsys):
    assert_usage_error(capsys, "flow", "--mode", "gradient-eigensolve",
                       "--max-iter=-1", "--json", json.dumps({"A": SIGMA3}))


# The three subcommands that read --tol, each with a valid payload, so that
# the tolerance is what certify_densities refuses.
TOL_READERS = (("classify", "--json", op_json(np.eye(2) / 2)),
               ("decompose", "--json", op_json(np.eye(2) / 2)),
               ("ballgrid", "--resolution", "2"))


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "-inf"])
def test_global_tol_refused(capsys, tol):
    for argv in TOL_READERS:
        assert assert_usage_error(capsys, *argv, f"--tol={tol}") == (
            "error: tol_psd must be finite and >= 0\n")


def test_global_tol_zero_runs(capsys):
    code, out = run(capsys, "classify", "--tol", "0",
                    "--json", op_json(np.eye(2) / 2))
    assert code == 0 and json.loads(out)["density"] is True


@pytest.mark.parametrize("argv, message", [
    (("tensors", "--tol", "0", "--which", "lambda",
      "--json", '{"dim": 2, "y": [0.5, 0, 0, 0]}'), None),
    (("constants", "--seed", "1", "--n", "2"), None),
    (("flow", "--tol", "0", "--mode", "hamiltonian",
      "--json", json.dumps({"A": SIGMA3})), None),
    # before the subcommand, where the top-level parser has neither
    (("--tol", "0.1", "classify", "--json", op_json(np.eye(2) / 2)),
     "error: --tol goes after the subcommand\n"),
    (("--seed", "3", "flow", "--mode", "gradient-eigensolve",
      "--json", json.dumps({"A": SIGMA3})),
     "error: --seed goes after the subcommand\n"),
    (("--tol=0.1", "classify", "--json", "{}"),
     "error: --tol goes after the subcommand\n"),
    (("--tol", "classify", "--json", "{}"),
     "error: --tol goes after the subcommand\n"),
    (("--output", "out.json", "--seed", "3", "flow", "--json", "{}"),
     "error: --seed goes after the subcommand\n"),
    # flow's own parser, which lacks --mode, refuses the command first
    (("--seed=3", "flow", "--json", "{}"),
     "error: --seed goes after the subcommand\n"),
], ids=["tensors-tol", "constants-seed", "flow-tol", "global-tol",
        "global-seed", "global-tol-equals", "global-tol-no-value",
        "global-seed-after-output", "global-seed-subcommand-refused"])
def test_option_outside_its_subcommands_refused(capsys, argv, message):
    err = assert_usage_error(capsys, *argv)
    assert err == message if message else "goes after" not in err


@pytest.mark.parametrize("command, option", [
    ("classify", "--tol"), ("decompose", "--tol"), ("ballgrid", "--tol"),
    ("flow", "--seed")])
def test_subcommand_help_lists_its_options(capsys, command, option):
    code, out = run(capsys, command, "--help")
    assert code == 0 and f"  {option} " in out


def _odd_floats(*special):
    return st.one_of(st.floats(), st.sampled_from(special))


@st.composite
def _flow_psi0(draw):
    """A psi0 payload whose q and p mostly have the length its dim says,
    and are all zero one time in four."""
    dim = draw(st.integers(1, 4))
    entry = _odd_floats(0.0, 1.0, -0.5, float("nan"), 1e-200, 1e154, 1e200)
    if draw(st.integers(0, 3)) == 0:
        entry = st.just(0.0)
    q, p = (draw(st.lists(entry, min_size=k, max_size=k))
            for k in draw(st.sampled_from([(dim, dim), (dim, dim),
                                           (dim, dim + 1), (dim + 1, dim)])))
    return {"dim": dim, "q": q, "p": p}


def _reject_non_finite(token):
    raise AssertionError(f"non-finite number {token} in the output")


def run_contract(argv):
    """cli.main(argv) with warnings as errors: exit 0, 2 or 3 with at most
    one stderr line, and an empty stderr at exit 0.  Returns (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") <= 1
    if code == 0:
        assert err.getvalue() == ""
    return code, out.getvalue()


def assert_exit_contract(argv, tol):
    """run_contract, plus exit 2 for a --tol that is not finite and >= 0 and
    plain JSON on stdout at exit 0."""
    code, out = run_contract(argv)
    if isinstance(tol, str) or (tol is not None
                                and not 0.0 <= tol < float("inf")):
        assert code == 2
    if code == 0:
        json.loads(out, parse_constant=_reject_non_finite)


@settings(max_examples=400, deadline=None)
@given(mode=st.sampled_from(["hamiltonian", "gradient-eigensolve"]),
       opt_mode=st.sampled_from(["ascent", "descent"]),
       a=st.builds(np.multiply,
                   st.sampled_from([np.diag([1.0, -1.0]),
                                    np.diag([2.0, 0.5, -1.0]),
                                    np.array([[0.0, 1j], [-1j, 0.0]])]),
                   st.sampled_from([1.0, 1.0, 1.0, 1e-300, 1e-170, 1e150,
                                    1e300])),
       psi0=st.one_of(st.none(), _flow_psi0()),
       step=st.one_of(st.none(), _odd_floats(1e-3, 0.7, 1e-300, 1e308)),
       t_final=st.one_of(st.none(), _odd_floats(0.0, 1.0, 1e5, 1e308)),
       max_iter=st.integers(-3, 300))
def test_flow_fuzz_exit_contract(mode, opt_mode, a, psi0, step, t_final,
                                 max_iter):
    payload = {"A": operator_to_dict(a.astype(complex))}
    if psi0 is not None:
        payload["psi0"] = psi0
    argv = ["flow", "--mode", mode, "--opt-mode", opt_mode,
            f"--max-iter={max_iter}", "--json", json.dumps(payload)]
    if step is not None:
        argv.append(f"--step={step!r}")
    if t_final is not None:
        argv.append(f"--t-final={t_final!r}")
    assert_exit_contract(argv, None)


# Operator and dual-vector payloads the mutations below start from: states,
# a trace and a positivity rejection, and points of u(n)* at n = 2, 3.
_QUTRIT = np.array([[0.5, 0.1 + 0.2j, 0.0], [0.1 - 0.2j, 0.3, 0.05j],
                    [0.0, -0.05j, 0.2]])
_BASE_OPERATORS = [operator_to_dict(np.asarray(a, dtype=complex)) for a in (
    np.eye(2) / 2, np.diag([1.0, 0.0]), qubit_from_bloch(0.1, -0.2, 0.15),
    qubit_from_bloch(0.0, 0.0, 0.6), np.diag([0.7, 0.7]), np.eye(3) / 3,
    _QUTRIT, np.diag([0.6, 0.6, -0.2]))]
_BASE_DUALS = [{"dim": 2, "y": [0.5, 0.1, 0.0, 0.2]},
               {"dim": 2, "y": [0.0, 0.1, 0.2, 0.3]},
               {"dim": 3, "y": to_dual(_QUTRIT, gellmann_basis(3)).tolist()},
               {"dim": 3, "y": [1.0, -0.5, 0.0, 2.0, 0.0, 0.0, 0.3, 0.0, 0.1]}]
_ENTRY = _odd_floats(0.0, 0.5, -1.0, 1e-320, 1e154, 1e200, 1e308)
_NOT_A_NUMBER = st.sampled_from([None, "1", "x", True, [], [0.5], {}])
_DIM = st.sampled_from([2, 3, 1e400, 2.5, True, "3", None])


def _mutate(draw, value):
    """value with one JSON-level change, at a drawn depth."""
    if isinstance(value, list) and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        return value[:i] + [_mutate(draw, value[i])] + value[i + 1:]
    kind = draw(st.sampled_from(["entry", "other", "nest", "drop", "extra"]))
    if kind == "other":
        return draw(_NOT_A_NUMBER)
    if kind == "nest":
        return [value]
    if kind == "drop" and isinstance(value, list):
        return value[:-1]  # a ragged row, or a short matrix or vector
    if kind == "extra" and isinstance(value, list):
        return value + [draw(_ENTRY)]
    return draw(_ENTRY)


@st.composite
def _payload(draw, bases):
    """A base payload with up to three mutations: a drawn dim, a dropped
    key, or a changed entry, row or list."""
    payload = dict(draw(st.sampled_from(bases)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        key = draw(st.sampled_from(sorted(payload)))
        kind = draw(st.sampled_from(["dim", "drop", "value", "value"]))
        if kind == "dim":
            payload["dim"] = draw(_DIM)
        elif kind == "drop":
            del payload[key]
            if not payload:
                break
        else:
            payload[key] = _mutate(draw, payload[key])
    return payload


# Option values also come as text that is not a number: argparse's own
# errors keep to the same contract, one "error:" line and exit 2.
_NOT_NUMERIC = st.sampled_from(["abc", "", "1,2", "0x1p3", "1e", "--", "None",
                                "a,b,c"])
_DIRECTION = st.one_of(
    st.lists(_odd_floats(0.0, 1.0, -0.5, 1e-320, 1e308),
             min_size=1, max_size=4).map(lambda xs: ",".join(map(repr, xs))),
    _NOT_NUMERIC)


@settings(max_examples=300, deadline=None)
@given(data=st.data(),
       command=st.sampled_from([
           ("classify",), ("decompose", "--mode", "spectral"),
           ("decompose", "--mode", "bloch"), ("tensors", "--which", "lambda"),
           ("tensors", "--which", "R"),
           ("tensors", "--which", "distributions")]))
def test_payload_fuzz_exit_contract(data, command):
    bases = _BASE_DUALS if command[0] == "tensors" else _BASE_OPERATORS
    payload = data.draw(_payload(bases), label="payload")
    argv = [*command, "--json", json.dumps(payload)]
    tol = None  # tensors has no --tol
    if command[0] != "tensors":
        tol = data.draw(st.one_of(st.none(), st.sampled_from([0.0, 1e-10, 0.1]),
                                  _odd_floats(-1.0), _NOT_NUMERIC), label="tol")
    if tol is not None:
        argv.append(f"--tol={tol}")
    if command[-1] == "bloch":
        direction = data.draw(st.one_of(st.none(), _DIRECTION),
                              label="direction")
        if direction is not None:
            argv.append(f"--direction={direction}")
    assert_exit_contract(argv, tol)


def _int_option_text(low, high, valid_high):
    """Text for an integer option that accepts low..high: a value up to
    valid_high, bare, signed, padded or with an underscore; values out of
    range on either side, up to 31 digits; and text int() refuses, among it
    a number past its 4300-digit limit."""
    valid = st.integers(low, valid_high)
    return st.one_of(
        valid.map(str), valid.map("+{}".format), valid.map(" {} ".format),
        valid.map("0_{}".format), st.integers(-10**30, low - 1).map(str),
        st.integers(high + 1, 10**30).map(str),
        st.sampled_from(["-", "2.0", "1e3", "0x3", "\u0663", "nan", "inf",
                         "9" * 5000]),
        _NOT_NUMERIC)


# A valid n stays <= 6 and a valid resolution <= 9 to keep the test quick.
_INT_OPTIONS = {"constants": ("--n", basis.MAX_CONSTANTS_N, 6),
                "ballgrid": ("--resolution", cli.MAX_BALLGRID_RESOLUTION, 9)}


@settings(max_examples=200, deadline=None)
@given(data=st.data(), command=st.sampled_from(sorted(_INT_OPTIONS)))
def test_integer_option_fuzz_exit_contract(data, command):
    option, high, valid_high = _INT_OPTIONS[command]
    text = data.draw(_int_option_text(2, high, valid_high), label="value")
    code, out = run_contract([command, f"{option}={text}"])
    try:
        value = int(text)
    except ValueError:
        value = None
    assert code == (0 if value is not None and 2 <= value <= high else 2)
    if code == 0 and command == "ballgrid":
        assert out.count("\n") == value ** 3 + 1
    elif code == 0:
        assert out.startswith("mu,nu,rho,C,d")


NOT_UTF8 = b'{"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}\xff'


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8-file",
                                  "not-utf8-stdin"])
def test_unreadable_input_exit_two(tmp_path, capsys, monkeypatch, case):
    path = tmp_path / "op.json"
    if case == "directory":
        path = tmp_path
    elif case == "not-utf8-file":
        path.write_bytes(NOT_UTF8)
    elif case == "not-utf8-stdin":
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(NOT_UTF8), encoding="utf-8"))
        path = "-"
    assert_usage_error(capsys, "classify", "--input", str(path))


@pytest.mark.parametrize("argv", [
    ("--output", "OUT", "ballgrid", "--resolution", "3"),
    ("flow", "--mode", "hamiltonian", "--trace", "OUT"),
    ("flow", "--mode", "gradient-eigensolve", "--trace", "OUT"),
])
def test_unwritable_output_exit_two(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing" / "out.csv")
    argv = [missing if a == "OUT" else a for a in argv]
    if argv[0] == "flow":
        argv += ["--json", json.dumps({"A": SIGMA3})]
    assert_usage_error(capsys, *argv)


def test_both_payload_sources_exit_two(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(op_json(np.eye(2) / 2))
    code, _ = run(capsys, "classify", "--input", str(path),
                  "--json", op_json(np.eye(2) / 2))
    assert code == 2


def test_non_hermitian_payload_exit_two(capsys):
    payload = json.dumps({"dim": 2, "re": [[0, 1], [0, 0]],
                          "im": [[0, 0], [0, 0]]})
    assert run(capsys, "classify", "--json", payload)[0] == 2


@pytest.mark.parametrize("re00, im01", [("NaN", "0"), ("Infinity", "0"),
                                        ("-Infinity", "0"), ("0.5", "NaN"),
                                        ("0.5", "Infinity")])
def test_non_finite_payload_exit_two(capsys, re00, im01):
    payload = (f'{{"dim": 2, "re": [[{re00}, 0], [0, 0.5]],'
               f' "im": [[0, {im01}], [0, 0]]}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["classify", "--json", payload])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: matrix has non-finite entries\n"


def test_classify_rejection_details_are_plain_floats(capsys):
    _, out = run(capsys, "classify", "--json", op_json(np.diag([0.7, 0.7])))
    report = json.loads(out)
    assert report["violated"] == "trace"
    assert report["detail"] == "Tr = 1.4, expected 1"
    _, out = run(capsys, "classify", "--json",
                 op_json(np.diag([0.6, 0.6, -0.2])))
    report = json.loads(out)
    assert report["violated"] == "negative eigenvalue"
    assert report["detail"] == "min eigenvalue = -0.2"
    assert "np." not in out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_huge_trace_rejection_is_the_same_at_every_n(capsys, n):
    # At n = 3 the principal minors of diag(1e103, ...) overflow; they are
    # evaluated only for a trace-one matrix, so this is a trace rejection
    # at every n, not a numeric failure.
    code, out = run(capsys, "classify", "--json", op_json(1e103 * np.eye(n)))
    assert code == 0
    assert json.loads(out) == {"density": False, "violated": "trace",
                               "detail": f"Tr = {n * 1e103!r}, expected 1"}


_BIG_INT = "1" + "0" * 400  # a JSON integer beyond the float range


@pytest.mark.parametrize("argv", [
    ("classify", "--json", '{"dim": 2, "re": [[%s, 0], [0, 0.5]], '
     '"im": [[0, 0], [0, 0]]}' % _BIG_INT),
    ("classify", "--json", '{"dim": %s, "re": [[0.5, 0], [0, 0.5]], '
     '"im": [[0, 0], [0, 0]]}' % _BIG_INT),
    ("tensors", "--which", "lambda", "--json",
     '{"dim": 2, "y": [%s, 0, 0, 0]}' % _BIG_INT),
    ("flow", "--mode", "hamiltonian", "--json",
     '{"A": %s, "psi0": {"dim": 2, "q": [%s, 0], "p": [0, 0]}}'
     % (json.dumps(SIGMA3), _BIG_INT)),
], ids=["classify-re", "classify-dim", "tensors-y", "flow-psi0-q"])
def test_integer_beyond_float_range_exit_two(capsys, argv):
    # once exit 3, "numeric failure: int too large to convert to float"
    assert assert_usage_error(capsys, *argv).endswith(
        " payload: int too large to convert to float\n")


def test_classify_qutrit_with_huge_entries_is_a_rejection():
    # The spectrum, +-1e160, is finite; the principal-minor cross-check's
    # squares overflow, and once made this exit 3 with numpy's text.
    payload = op_json([[0.34, 1e160, 0], [1e160, 0.33, 0], [0, 0, 0.33]])
    code, out = run_contract(["classify", "--json", payload])
    assert code == 0
    assert json.loads(out) == {"density": False,
                               "violated": "negative eigenvalue",
                               "detail": "min eigenvalue = -1e+160"}


@pytest.mark.parametrize("which", ["lambda", "R", "distributions"])
def test_tensors_eigenvalue_pairs_beyond_float_range(which):
    # w_i - w_j overflows at y = (0, 8e307, 8e307, 8e307), which once made
    # this exit 3; the ranks are those at (0, 1, 1, 1)
    reports = []
    for y in ([0, 8e307, 8e307, 8e307], [0, 1, 1, 1]):
        code, out = run_contract(["tensors", "--which", which, "--json",
                                  json.dumps({"dim": 2, "y": y})])
        assert code == 0
        reports.append(json.loads(out, parse_constant=_reject_non_finite))
    key = "dims" if which == "distributions" else "rank"
    assert reports[0][key] == reports[1][key]


def test_classify_coordinates_beyond_float_range_is_numeric_failure(capsys):
    # At --tol 1e308 this matrix is a state; orbit_dimension once overflowed
    # in w_i - w_j, and einsum overflows silently in its coordinate
    # y_1 = (9e307 + 9e307) / 2, which to_dual refuses
    code = cli.main(["classify", "--tol", "1e308", "--json",
                     op_json([[0.5, 9e307], [9e307, 0.5]])])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == ("numeric failure: coordinates overflow: a "
                            "Tr(b_mu A) / 2 is beyond the float range\n")


@pytest.mark.parametrize("n, entry, words", [
    (3, 1e308, "spectrum overflow"), (4, 7e307, "spectrum overflow")])
def test_classify_accepted_spectrum_beyond_float_range_is_numeric_failure(
        capsys, n, entry, words):
    # At --tol 1.7e308, trace one and a top eigenvalue that eigh returns as
    # inf: certification refuses the spectrum, where it once accepted the
    # matrix with rank 0, never a rejection with no failed test
    a = np.full((n, n), entry)
    np.fill_diagonal(a, 1.0 / n)
    code = cli.main(["classify", "--tol", "1.7e308", "--json", op_json(a)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err.startswith(f"numeric failure: {words}: ")


def test_numeric_failure_exit_three(capsys, monkeypatch):
    def boom(op, tol_psd):
        raise ArithmeticError("criteria disagree")

    monkeypatch.setattr(cli, "certify_density", boom)
    code, _ = run(capsys, "classify", "--json", op_json(np.eye(2) / 2))
    assert code == 3


def _geomstates_exceptions():
    """Every exception class defined in a geomstates module."""
    found = {}
    for info in pkgutil.iter_modules(geomstates.__path__):
        module = importlib.import_module(f"geomstates.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


GEOMSTATES_EXCEPTIONS = _geomstates_exceptions()


def test_geomstates_exceptions_are_value_or_arithmetic_errors():
    assert {"DimensionError", "UsageError", "ZeroVectorError"} <= {
        cls.__name__ for cls in GEOMSTATES_EXCEPTIONS}
    for cls in GEOMSTATES_EXCEPTIONS:
        assert issubclass(cls, (ValueError, ArithmeticError)), cls


@pytest.mark.parametrize("exc", [*GEOMSTATES_EXCEPTIONS, ValueError,
                                 ArithmeticError, FloatingPointError,
                                 OverflowError, np.linalg.LinAlgError],
                         ids=lambda cls: cls.__name__)
def test_exit_policy(capsys, monkeypatch, exc):
    # a refused input is exit 2, a numeric failure exit 3, each with one line
    # on stderr; LinAlgError is a ValueError and still a numeric failure
    def boom(*args, **kwargs):
        raise exc("refused")

    monkeypatch.setattr(cli, "structure_constants", boom)
    code = cli.main(["constants", "--n", "3"])
    captured = capsys.readouterr()
    numeric = issubclass(exc, (ArithmeticError, np.linalg.LinAlgError))
    assert code == (3 if numeric else 2) and captured.out == ""
    prefix = "numeric failure: " if numeric else "error: "
    assert captured.err == prefix + "refused\n"


def test_decompose_bloch_center(capsys):
    code, out = run(capsys, "decompose", "--json", op_json(np.eye(2) / 2),
                    "--mode", "bloch", "--direction", "0,0,1")
    report = json.loads(out)
    assert code == 0
    assert np.allclose(report["weights"], [0.5, 0.5])
    assert report["residual"] < 1e-12


def test_decompose_spectral_pure_single_component(capsys):
    code, out = run(capsys, "decompose", "--json",
                    op_json(np.diag([1.0, 0.0])))
    report = json.loads(out)
    assert code == 0
    assert len(report["components"]) == 1
    assert report["weights"] == [1.0]


def test_decompose_spectral_qutrit_residual(capsys, rng):
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = z @ z.conj().T
    rho /= np.trace(rho).real
    code, out = run(capsys, "decompose", "--json", op_json(rho))
    assert code == 0
    assert json.loads(out)["residual"] < 1e-10


def test_decompose_bloch_requires_direction_and_qubit(capsys):
    code, _ = run(capsys, "decompose", "--json", op_json(np.eye(2) / 2),
                  "--mode", "bloch")
    assert code == 2
    code, _ = run(capsys, "decompose", "--json", op_json(np.eye(3) / 3),
                  "--mode", "bloch", "--direction", "0,0,1")
    assert code == 2


@pytest.mark.parametrize("direction", ["0,0,1e-13", "0,0,1e200",
                                       "0,0,5e-324"])
def test_decompose_bloch_direction_at_any_scale(capsys, direction):
    # the line does not depend on the length of its direction
    argv = ("decompose", "--json", op_json(qubit_from_bloch(0.1, -0.2, 0.15)),
            "--mode", "bloch", "--direction")
    want = run(capsys, *argv, "0,0,1")
    assert want[0] == 0
    assert run(capsys, *argv, direction) == want


def test_decompose_bloch_direction_near_the_float_limit(capsys):
    # its norm, 1.4e308, would overflow; the scaled direction's does not
    code, out = run(capsys, "decompose", "--json",
                    op_json(qubit_from_bloch(0.1, -0.2, 0.15)), "--mode",
                    "bloch", "--direction", "1e308,1e308,0")
    assert code == 0 and json.loads(out)["residual"] < 1e-12


@pytest.mark.parametrize("argv", [
    ("classify",), ("tensors", "--which", "lambda"),
    ("tensors", "--which", "R"), ("tensors", "--which", "distributions"),
])
def test_basis_dimension_above_the_cap_refused(capsys, argv):
    # refused before the (n^2, n, n) basis array is allocated
    n = basis.MAX_BASIS_N + 1
    if argv[0] == "classify":
        payload = op_json(np.eye(n) / n)
    else:
        payload = json.dumps({"dim": n, "y": [0.0] * (n * n)})
    assert_usage_error(capsys, *argv, "--json", payload)


def test_decompose_rejection_is_exit_zero(capsys):
    code, out = run(capsys, "decompose", "--json",
                    op_json(qubit_from_bloch(0.4, 0.4, 0.0)))
    assert code == 0
    assert json.loads(out)["density"] is False


def test_tensors_lambda_rank_zero_at_center(capsys):
    payload = json.dumps({"dim": 2, "y": [0.5, 0, 0, 0]})
    code, out = run(capsys, "tensors", "--which", "lambda", "--json", payload)
    assert code == 0 and json.loads(out)["rank"] == 0


def test_tensors_r_rank_four_at_center(capsys):
    payload = json.dumps({"dim": 2, "y": [0.5, 0, 0, 0]})
    code, out = run(capsys, "tensors", "--which", "R", "--json", payload)
    assert code == 0 and json.loads(out)["rank"] == 4


@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_tensors_ranks_at_maximally_mixed_point(capsys, rng, n):
    # xi = I/n, also written in a random basis: Lambda is round-off only,
    # and R is 2/n times the identity form
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    for xi in (np.eye(n) / n, u @ (np.eye(n) / n) @ u.conj().T):
        payload = json.dumps({"dim": n,
                              "y": to_dual(xi, gellmann_basis(n)).tolist()})
        for which, want in (("lambda", 0), ("R", n * n)):
            code, out = run(capsys, "tensors", "--which", which,
                            "--json", payload)
            assert code == 0 and json.loads(out)["rank"] == want


def test_tensors_distributions_inequalities(capsys, rng):
    payload = json.dumps({"dim": 3, "y": list(rng.normal(size=9))})
    code, out = run(capsys, "tensors", "--which", "distributions",
                    "--json", payload)
    dims = json.loads(out)["dims"]
    assert code == 0
    assert dims["D0"] <= min(dims["lambda"], dims["R"])
    assert dims["D1"] <= min(9, dims["lambda"] + dims["R"])


def test_tensors_distributions_two_small_distinct_eigenvalues(capsys):
    # 1e-6 and 0 differ, and add up, by more than 1e-9 * max|w|
    y = to_dual(np.diag([1.0, 1e-6, 0.0]), gellmann_basis(3))
    code, out = run(capsys, "tensors", "--which", "distributions", "--json",
                    json.dumps({"dim": 3, "y": y.tolist()}))
    assert code == 0
    assert json.loads(out)["dims"] == {"lambda": 6, "R": 8, "D0": 6, "D1": 8}


def test_stdout_closed_early_is_exit_zero_and_silent():
    # As in `geomstates tensors ... | head -3`: the reader takes a few bytes
    # and closes the pipe while the command is still writing (the n = 12
    # report is far larger than a pipe buffer).
    payload = json.dumps({"dim": 12, "y": [0.1, 0.3] + [0.0] * 142})
    # The with block closes stderr too, so the suite sees no ResourceWarning.
    with subprocess.Popen(
            [sys.executable, "-m", "geomstates.cli", "tensors", "--which",
             "distributions", "--json", payload], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=subprocess_env()) as proc:
        assert proc.stdout.read(64)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_tensors_distributions_traceless_qubit(capsys):
    # xi^2 is a multiple of the identity here, so D_0 is 0-dimensional
    code, out = run(capsys, "tensors", "--which", "distributions", "--json",
                    '{"dim": 2, "y": [0, 0.1, 0.2, 0.3]}')
    assert code == 0
    assert json.loads(out)["dims"] == {"lambda": 2, "R": 2, "D0": 0, "D1": 4}


def test_constants_qutrit_rows(capsys):
    code, out = run(capsys, "constants", "--n", "3")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "mu,nu,rho,C,d,check"
    assert "1,2,3,1,0,match" in lines
    assert "8,8,8,0,-0.57735026919,match" in lines
    assert not any(line.endswith(",mismatch") for line in lines)
    assert any(line.endswith(",reported") for line in lines)


def test_flow_zero_t_final_runs(capsys):
    payload = json.dumps(
        {"A": operator_to_dict(np.diag([1.0, -1.0]).astype(complex))})
    code, out = run(capsys, "flow", "--mode", "hamiltonian",
                    "--t-final", "0", "--json", payload)
    assert code == 0 and json.loads(out)["t_final"] == 0.0


def test_constants_qubit_rows(capsys):
    code, out = run(capsys, "constants", "--n", "2")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "mu,nu,rho,C,d"
    assert "1,2,3,1,0" in lines


def test_flow_hamiltonian_drift(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    payload = json.dumps({
        "A": operator_to_dict(np.diag([1.0, -1.0]).astype(complex)),
        "psi0": state_to_dict(RealifiedState([0.6, 0.8], [0.0, 0.0])),
    })
    code, out = run(capsys, "flow", "--mode", "hamiltonian",
                    "--t-final", "10.0", "--step", "1e-3",
                    "--trace", str(trace), "--json", payload)
    report = json.loads(out)
    assert code == 0
    assert report["norm_drift"] < 1e-8
    assert report["e_A_drift"] < 1e-8
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "t,e_A,norm"
    assert len(lines) > 100


@pytest.mark.parametrize("seed", range(6))
def test_flow_trace_files_keep_their_per_mode_format(tmp_path, capsys, seed):
    # The lines each mode wrote before both went through trace_csv: the
    # iteration as an integer, every float through csv_float.
    rng = np.random.default_rng(seed)
    n = 2 + seed
    a, psi0 = random_hermitian(rng, n), random_state(rng, n)
    payload = json.dumps({"A": operator_to_dict(a),
                          "psi0": state_to_dict(psi0)})
    trace = tmp_path / "trace.csv"
    run(capsys, "flow", "--mode", "hamiltonian", "--t-final", "1",
        "--step", "0.01", "--trace", str(trace), "--json", payload)
    samples = expectation_trace_samples(a, psi0, 1.0, 0.01)[0]
    want = ["t,e_A,norm"] + [",".join(csv_float(x) for x in (t, e, nrm))
                             for t, e, nrm in samples.tolist()]
    assert trace.read_text() == "\n".join(want) + "\n"
    run(capsys, "flow", "--mode", "gradient-eigensolve", "--trace",
        str(trace), "--json", payload)
    rows = []
    critical_point_eigensolve(a, psi0, trace=rows)
    want = ["iter,e_A,residual"] + [f"{it},{csv_float(e)},{csv_float(r)}"
                                    for it, e, r in rows]
    assert trace.read_text() == "\n".join(want) + "\n"


def test_flow_eigensolve_descent(capsys):
    payload = json.dumps(
        {"A": operator_to_dict(np.diag([1.0, -1.0]).astype(complex))})
    code, out = run(capsys, "flow", "--mode", "gradient-eigensolve",
                    "--opt-mode", "descent", "--json", payload)
    report = json.loads(out)
    assert code == 0 and report["converged"]
    assert abs(report["eigenvalue"] + 1.0) < 1e-8
    # result state round-trips through the state parser
    psi = state_from_dict(report["state"])
    assert abs(psi.norm() - 1.0) < 1e-8


@pytest.mark.parametrize("scale", [1e-170, 1e300])
@pytest.mark.parametrize("mode, sign", [("ascent", 1.0), ("descent", -1.0)])
def test_flow_eigensolve_extreme_scales(capsys, scale, mode, sign):
    # The solver works at an exact power-of-two scale of A: at 1e300 no dot
    # product overflows, and at 1e-170 no squared residual underflows to 0.
    payload = json.dumps({"A": operator_to_dict(
        np.diag([scale, -scale]).astype(complex))})
    code, out = run(capsys, "flow", "--mode", "gradient-eigensolve",
                    "--opt-mode", mode, "--json", payload)
    report = json.loads(out)
    assert code == 0 and report["converged"]
    eps = np.finfo(float).eps
    assert abs(report["eigenvalue"] - sign * scale) <= 16 * eps * scale


def test_flow_eigensolve_identity_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    payload = json.dumps({"A": operator_to_dict(np.eye(3).astype(complex))})
    code, out = run(capsys, "flow", "--mode", "gradient-eigensolve",
                    "--trace", str(trace), "--json", payload)
    report = json.loads(out)
    assert code == 0 and report["converged"]
    assert abs(report["eigenvalue"] - 1.0) < 1e-12
    lines = trace.read_text().strip().split("\n")
    assert lines[0] == "iter,e_A,residual" and lines[1].startswith("0,")


def test_flow_eigensolve_recovers_from_a_step_that_does_not_move(capsys):
    # At --step 1e-300 the first step leaves z unchanged in floating point;
    # the solver then takes the default step instead of spinning.
    payload = json.dumps({"A": SIGMA3})
    code, out = run(capsys, "flow", "--mode", "gradient-eigensolve",
                    "--step", "1e-300", "--max-iter", "200", "--json", payload)
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert abs(report["eigenvalue"] - 1.0) < 1e-12


def test_flow_non_convergence_is_exit_zero(capsys, rng):
    payload = json.dumps(
        {"A": operator_to_dict(np.diag([1.0, -1.0]).astype(complex))})
    code, out = run(capsys, "flow", "--seed", "3",
                    "--mode", "gradient-eigensolve",
                    "--max-iter", "1", "--json", payload)
    assert code == 0
    assert json.loads(out)["converged"] is False


def test_parser_is_built_once_and_reuse_keeps_defaults(capsys, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    steps = []
    solve = cli.critical_point_eigensolve

    def recording(*args, **kwargs):
        steps.append(kwargs["step"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(cli, "critical_point_eigensolve", recording)
    rho = op_json(qubit_from_bloch(0.1, 0.0, 0.2))
    flow = ("flow", "--mode", "gradient-eigensolve", "--json",
            json.dumps({"A": SIGMA3}))
    calls = [
        ("decompose", "--mode", "bloch", "--direction", "0,0,1", "--json", rho),
        ("decompose", "--json", rho),
        (*flow, "--seed", "3", "--step", "0.01", "--opt-mode", "descent"),
        flow,
        ("classify", "--tol", "0.5", "--json", op_json(np.diag([1.2, -0.2]))),
        ("classify", "--json", op_json(np.diag([1.2, -0.2]))),
    ]
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert json.loads(reused[1][1])["mode"] == "spectral"
    assert json.loads(reused[3][1])["opt_mode"] == "ascent"
    assert json.loads(reused[4][1])["density"] is True
    assert json.loads(reused[5][1])["density"] is False
    # --step reaches the solver only when it is given
    assert steps == [0.01, None] * 2


def test_flow_step_spellings_agree(tmp_path, capsys):
    payload = json.dumps({"A": SIGMA3})
    counts = []
    for spelling in (("--step", "0.5"), ("--step=0.5",)):
        trace = tmp_path / "trace.csv"
        code, _ = run(capsys, "flow", "--mode", "gradient-eigensolve",
                      *spelling, "--trace", str(trace), "--json", payload)
        assert code == 0
        counts.append(len(trace.read_text().splitlines()))
    assert counts[0] == counts[1]


def test_flow_seed_determinism(capsys):
    payload = json.dumps(
        {"A": operator_to_dict(np.diag([1.0, -1.0]).astype(complex))})
    argv = ["flow", "--mode", "gradient-eigensolve", "--json", payload]
    first = run(capsys, *argv, "--seed", "7")
    assert first[0] == 0
    assert run(capsys, *argv, "--seed", "7") == first  # byte-identical
    # the seed draws psi0: another seed ends at another phase of the state
    other = run(capsys, *argv, "--seed", "8")
    assert other[0] == 0 and other[1] != first[1]


def test_ballgrid_points(tmp_path, capsys):
    dest = tmp_path / "grid.csv"
    code, _ = run(capsys, "--output", str(dest),
                  "ballgrid", "--resolution", "13")
    assert code == 0
    rows = {}
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == "y1,y2,y3,is_density,rank"
    assert len(lines) == 1 + 13 ** 3
    for line in lines[1:]:
        y1, y2, y3, ok, rank = line.split(",")
        rows[(float(y1), float(y2), float(y3))] = (int(ok), int(rank))
    assert rows[(0.0, 0.0, 0.0)] == (1, 2)
    assert rows[(0.0, 0.0, 0.5)] == (1, 1)  # boundary pure state
    assert rows[(0.4, 0.4, 0.0)][0] == 0  # radius 0.32 > 0.25


# Digests of the output of the per-point implementation this CLI started
# with; the batched grid must reproduce it byte for byte.
BALLGRID_SHA256 = {
    13: "92f3c1c4ae5978d61552b198265f9c0d7f0851b768c4de6cce0cad1c847ea296",
    41: "3641ec41cce8b063016663037be0eac54e0c58c7ce2ecf12d1f11c1b1b4bc59c",
}


@pytest.mark.parametrize("resolution", sorted(BALLGRID_SHA256))
def test_ballgrid_bytes_pinned(capsys, resolution):
    code, out = run(capsys, "ballgrid", "--resolution", str(resolution))
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == BALLGRID_SHA256[resolution]


@pytest.mark.parametrize("tol", ["0", "1e-10", "0.05"])
def test_ballgrid_matches_per_point_certification(capsys, tol):
    # Resolution 2 is the smallest grid, and 6 a grid with no zero label.
    for resolution in (2, 6, 7):
        code, out = run(capsys, "ballgrid", "--tol", tol, "--resolution",
                        str(resolution))
        assert code == 0
        lines = out.splitlines()
        grid = np.linspace(-0.6, 0.6, resolution)
        points = [(a, b, c) for a in grid for b in grid for c in grid]
        assert len(lines) == 1 + len(points)
        for line, y in zip(lines[1:], points):
            ref = certify_density(qubit_from_bloch(*y), tol_psd=float(tol))
            want = (1, ref.rank) if ref else (0, 0)
            assert line.split(",") == [csv_float(v) for v in y] + [
                str(v) for v in want]


def test_ballgrid_determinism(capsys):
    _, first = run(capsys, "ballgrid", "--resolution", "5")
    _, second = run(capsys, "ballgrid", "--resolution", "5")
    assert first == second


def test_console_entry_point_exists():
    import importlib.metadata as md
    eps = md.entry_points(group="console_scripts")
    assert any(ep.name == "geomstates" for ep in eps)
