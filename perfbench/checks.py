"""Reference checks for the benchmark, independent of geomstates.

Each check parses one command's output and compares its values with
references computed here from numpy (``eigvalsh``), closed forms and
textbook Gell-Mann matrices, within the tolerances stated below.  Values
are compared numerically, never by bytes, so a last-digit change from a
reordered sum is not a failure.  A check raises ``CheckFailed``; the runner
also counts an unparseable output as a failed operation.

``CORRUPTIONS`` holds, for each check, edits of a correct output that the
check must reject; the runner's self-test applies them to warm-up outputs.
"""

from __future__ import annotations

import io
import json

import numpy as np

TOL_VALUE = 1e-9      # absolute, on spectra, weights and O(1) coordinates
TOL_PSD = 1e-10       # positivity and trace tolerance of the CLI defaults
TOL_RANK = 1e-9       # relative eigenvalue cut-off for ranks and multiplicities
TOL_EIGEN = 1e-6      # eigensolver value, relative to the operator norm
TOL_RESIDUAL = 1e-8   # ||A psi - e psi||, relative to the operator norm
TOL_DRIFT = 1e-8      # conservation drift of a 10k-step RK4 flow
TOL_SUM = 1e-9        # relative, on structure-constant sum rules


class CheckFailed(Exception):
    pass


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(got, want, tol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.abs(got - want).max()) if got.size else 0.0
    expect(err <= tol, f"{what}: off by {err:.3g} (tolerance {tol:g})")


def spectrum(a: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(a)[::-1]


def rank_of(w: np.ndarray) -> int:
    return int(np.sum(w > TOL_RANK * max(w[0], TOL_RANK)))


def multiplicities(w: np.ndarray) -> list:
    """Sizes of the clusters of equal eigenvalues (relative TOL_RANK)."""
    w = np.sort(w)
    gap = TOL_RANK * max(np.abs(w).max(), 1.0)
    sizes = [1]
    for lo, hi in zip(w[:-1], w[1:]):
        if hi - lo <= gap:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def orbit_dimension(w: np.ndarray) -> int:
    """n^2 - sum of squared multiplicities; n^2 - k - (n-k)^2 for a generic
    rank-k state."""
    return len(w) ** 2 - sum(m * m for m in multiplicities(w))


def pair_counts(w: np.ndarray):
    """Closed-form dimensions of D_lambda, D_R, D_0 and D_1 at a point whose
    operator has eigenvalues w: in its eigenbasis the (i, j) entry is moved
    by [A, xi] iff w_i != w_j and by [A, xi]_+ iff w_i + w_j != 0."""
    gap = TOL_RANK * max(np.abs(w).max(), 1.0)
    diff = np.abs(w[:, None] - w[None, :]) > gap
    summ = np.abs(w[:, None] + w[None, :]) > gap
    return (int(diff.sum()), int(summ.sum()), int((diff & summ).sum()),
            int((diff | summ).sum()))


# The textbook Gell-Mann matrices, with sqrt(2/3) I in slot 0.
_GM3 = np.zeros((9, 3, 3), dtype=complex)
_GM3[0] = np.sqrt(2.0 / 3.0) * np.eye(3)
_GM3[1][0, 1] = _GM3[1][1, 0] = 1
_GM3[2][0, 1], _GM3[2][1, 0] = -1j, 1j
_GM3[3] = np.diag([1, -1, 0])
_GM3[4][0, 2] = _GM3[4][2, 0] = 1
_GM3[5][0, 2], _GM3[5][2, 0] = -1j, 1j
_GM3[6][1, 2] = _GM3[6][2, 1] = 1
_GM3[7][1, 2], _GM3[7][2, 1] = -1j, 1j
_GM3[8] = np.diag([1, 1, -2]) / np.sqrt(3.0)


def _xi3(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    expect(y.shape == (9,), "reference basis covers n = 3 only")
    return np.einsum("a,aij->ij", y, _GM3)


# -- checks -------------------------------------------------------------------

def check_classify(a: np.ndarray, out: str) -> None:
    rep = json.loads(out)
    n = a.shape[0]
    tr = np.trace(a).real
    w = spectrum(a)
    if abs(tr - 1.0) > TOL_PSD:
        expect(rep["density"] is False and rep["violated"] == "trace",
               f"trace {tr:.6g} not rejected as 'trace': {rep.get('violated')}")
        return
    if w[-1] < -TOL_PSD:
        want = "ball radius" if n == 2 else "negative eigenvalue"
        expect(rep["density"] is False and rep["violated"] == want,
               f"min eigenvalue {w[-1]:.3g} not rejected as {want!r}")
        return
    expect(rep["density"] is True, "valid state rejected")
    k = rank_of(w)
    expect(rep["rank"] == k, f"rank {rep['rank']} != {k}")
    close(rep["spectrum"], w, TOL_VALUE, "spectrum")
    close(rep["weyl"], np.maximum(w, 0.0), TOL_VALUE, "weyl")
    expect(rep["orbit_dim"] == orbit_dimension(w),
           f"orbit_dim {rep['orbit_dim']} != {orbit_dimension(w)}")
    expect(rep["face_dim"] == k * k - 1, f"face_dim {rep['face_dim']} != {k * k - 1}")
    y = np.asarray(rep["y"], dtype=float)
    expect(y.shape == (n * n,), f"y has {y.size} coordinates")
    close(y[0], 1.0 / np.sqrt(2.0 * n), TOL_VALUE, "y[0]")
    # Tr(b_mu b_nu) = 2 delta  =>  |y|^2 = Tr(rho^2) / 2
    close(y @ y, np.trace(a @ a).real / 2.0, TOL_VALUE, "|y|^2")


def check_ballgrid(resolution: int, out: str) -> None:
    head, _, body = out.partition("\n")
    expect(head == "y1,y2,y3,is_density,rank", f"header {head!r}")
    rows = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    expect(rows.shape == (resolution ** 3, 5), f"grid shape {rows.shape}")
    g = np.linspace(-0.6, 0.6, resolution)
    want = np.stack(np.meshgrid(g, g, g, indexing="ij"), -1).reshape(-1, 3)
    close(rows[:, :3], want, 1e-11, "grid coordinates")
    # A qubit with ball point y has eigenvalues 1/2 +- |y|.
    r = np.linalg.norm(rows[:, :3], axis=1)
    lo, hi = 0.5 - r, 0.5 + r
    is_density = lo >= -TOL_PSD
    rank = np.where(is_density, np.where(lo > TOL_RANK * hi, 2, 1), 0)
    clear = np.abs(lo) > 10 * TOL_RANK   # rows on the sphere may go either way
    bad = clear & ((rows[:, 3] != is_density) | (rows[:, 4] != rank))
    expect(not bad.any(), f"{int(bad.sum())} grid rows disagree with 1/2 +- |y|, "
           f"first at y = {rows[np.argmax(bad), :3].tolist()}")


def check_eigensolve(ref, out: str) -> None:
    a, mode = ref
    rep = json.loads(out)
    w = spectrum(a)
    scale = max(abs(w[0]), abs(w[-1]))
    expect(rep["mode"] == "gradient-eigensolve" and rep["opt_mode"] == mode,
           f"mode {rep['mode']}/{rep['opt_mode']}")
    expect(rep["converged"] is True, "solver did not converge")
    target = w[0] if mode == "ascent" else w[-1]
    close(rep["eigenvalue"], target, TOL_EIGEN * scale, f"{mode} eigenvalue")
    st = rep["state"]
    z = np.asarray(st["q"], dtype=float) + 1j * np.asarray(st["p"], dtype=float)
    expect(z.shape == (a.shape[0],), "state length")
    z = z / np.linalg.norm(z)
    resid = np.linalg.norm(a @ z - rep["eigenvalue"] * z)
    expect(resid <= TOL_RESIDUAL * scale, f"state residual {resid:.3g}")


def check_hamiltonian(ref, out: str) -> None:
    a, t_final = ref
    rep = json.loads(out)
    expect(rep["mode"] == "hamiltonian", f"mode {rep['mode']}")
    close(rep["t_final"], t_final, 0.0, "t_final")
    scale = np.abs(np.linalg.eigvalsh(a)).max()
    expect(0.0 <= rep["norm_drift"] <= TOL_DRIFT, f"norm drift {rep['norm_drift']}")
    expect(0.0 <= rep["e_A_drift"] <= TOL_DRIFT * scale,
           f"e_A drift {rep['e_A_drift']}")


def check_decompose(ref, out: str) -> None:
    rho, mode = ref
    rep = json.loads(out)
    expect(rep["mode"] == mode, f"mode {rep['mode']}")
    wts = np.asarray(rep["weights"], dtype=float)
    comps = [np.asarray(c["re"]) + 1j * np.asarray(c["im"]) for c in rep["components"]]
    expect(len(comps) == len(wts) > 0, "weights and components differ in number")
    expect(wts.min() >= -TOL_VALUE, f"negative weight {wts.min()}")
    close(wts.sum(), 1.0, TOL_VALUE, "weight sum")
    for c in comps:
        close(spectrum(c), np.eye(len(c))[0], TOL_VALUE, "component spectrum (pure)")
    close(np.abs(sum(p * c for p, c in zip(wts, comps)) - rho).max(), 0.0,
          TOL_VALUE, "reconstruction")
    expect(0.0 <= rep["residual"] <= TOL_VALUE, f"residual {rep['residual']}")
    if mode == "spectral":
        w = spectrum(rho)
        close(wts, w[:rank_of(w)], TOL_VALUE, "spectral weights")
    else:
        # Along direction (0, 0, 1) only the diagonal moves.
        for c in comps:
            close(c[0, 1].real, rho[0, 1].real, TOL_VALUE, "off-diagonal (re)")
            close(c[0, 1].imag, rho[0, 1].imag, TOL_VALUE, "off-diagonal (im)")


def check_distributions(y, out: str) -> None:
    rep = json.loads(out)
    close(rep["y"], y, 0.0, "y")
    dims = pair_counts(np.linalg.eigvalsh(_xi3(y)))
    got = tuple(rep["dims"][k] for k in ("lambda", "R", "D0", "D1"))
    expect(got == dims, f"distribution dims {got} != {dims}")
    for key, d in zip(("basis_lambda", "basis_R", "basis_D0", "basis_D1"), dims):
        b = np.asarray(rep[key], dtype=float).reshape(-1, 9)
        expect(b.shape[0] == d, f"{key} has {b.shape[0]} vectors, dim {d}")
        close(b @ b.T, np.eye(d), TOL_VALUE, f"{key} orthonormality")


def check_tensor(ref, out: str) -> None:
    y, kind = ref
    rep = json.loads(out)
    expect(rep["kind"] == kind, f"kind {rep['kind']}")
    close(rep["y"], y, 0.0, "y")
    xi = _xi3(y)
    # Tr(xi b_mu b_nu): its imaginary part is Lambda, its real part R.
    p = np.einsum("ij,ajk,bki->ab", xi, _GM3, _GM3)
    close(rep["matrix"], p.imag if kind == "lambda" else p.real, TOL_VALUE, kind)
    d_lambda, d_r, _, _ = pair_counts(np.linalg.eigvalsh(xi))
    want = d_lambda if kind == "lambda" else d_r
    expect(rep["rank"] == want, f"{kind} rank {rep['rank']} != {want}")


def _gm3_constants():
    """C and d of the textbook Gell-Mann matrices, from triple traces:
    Tr([b_a, b_b] b_c) = 4i C_abc and Tr([b_a, b_b]_+ b_c) = 4 d_abc, with the
    identity part of d removed as the definition asks."""
    t = np.einsum("aij,bjk,cki->abc", _GM3, _GM3, _GM3)
    c = ((t - t.transpose(1, 0, 2)) / 4.0).imag
    d = ((t + t.transpose(1, 0, 2)) / 4.0).real
    d[np.arange(9), np.arange(9), 0] -= np.sqrt(2.0 / 3.0)
    return c, d


def check_constants(n: int, out: str) -> None:
    lines = out.splitlines()
    header = "mu,nu,rho,C,d" + (",check" if n == 3 else "")
    expect(lines[0] == header, f"header {lines[0]!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    if n == 3:
        expect(all(r[5] in ("match", "reported") for r in rows),
               "su(3) table check column reports a mismatch")
    idx = np.array([r[:3] for r in rows], dtype=int)
    m = n * n
    expect(idx.min() >= 0 and idx.max() < m, "index out of range")
    expect(len({tuple(i) for i in idx}) == len(idx), "an index triple is listed twice")
    # Unlisted entries are zero.
    c = np.zeros((m, m, m))
    d = np.zeros((m, m, m))
    c[tuple(idx.T)], d[tuple(idx.T)] = np.array([r[3:5] for r in rows], dtype=float).T
    if n == 3:
        c_ref, d_ref = _gm3_constants()
        close(c, c_ref, TOL_VALUE, "C against the Gell-Mann matrices")
        close(d, d_ref, TOL_VALUE, "d against the Gell-Mann matrices")
        return
    # b_0 = sqrt(2/n) I commutes with everything and anticommutes to
    # 2 sqrt(2/n) b_a: C vanishes on index 0, and d there is sqrt(2/n) at
    # (0, a, a) and (a, 0, a) for a > 0, and zero elsewhere.
    d0 = np.zeros((m, m, m))
    a = np.arange(1, m)
    d0[0, a, a] = d0[a, 0, a] = np.sqrt(2.0 / n)
    for got, want, name in ((c[0], 0, "C[0]"), (c[:, 0], 0, "C[:, 0]"),
                            (c[:, :, 0], 0, "C[:, :, 0]"), (d[0], d0[0], "d[0]"),
                            (d[:, 0], d0[:, 0], "d[:, 0]"),
                            (d[:, :, 0], d0[:, :, 0], "d[:, :, 0]")):
        close(got, np.broadcast_to(want, got.shape), TOL_VALUE, name)
    # On traceless indices C is totally antisymmetric and d totally symmetric.
    ct, dt = c[1:, 1:, 1:], d[1:, 1:, 1:]
    for perm, sign in (((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1),
                       ((1, 2, 0), 1), ((2, 0, 1), 1)):
        close(ct.transpose(perm), sign * ct, TOL_VALUE, f"C under permutation {perm}")
        close(dt.transpose(perm), dt, TOL_VALUE, f"d under permutation {perm}")
    # su(n) sum rules: f_abc f_abc = n (n^2 - 1), d_abc d_abc = (n^2 - 4)(n^2 - 1) / n.
    for got, want, name in ((float((ct ** 2).sum()), n * (n * n - 1), "sum C^2"),
                            (float((dt ** 2).sum()), (n * n - 4) * (n * n - 1) / n,
                             "sum d^2")):
        expect(abs(got - want) <= TOL_SUM * want, f"{name} = {got!r}, expected {want}")


CHECKS = {
    "classify": check_classify,
    "ballgrid": check_ballgrid,
    "eigensolve": check_eigensolve,
    "hamiltonian": check_hamiltonian,
    "decompose": check_decompose,
    "distributions": check_distributions,
    "tensor": check_tensor,
    "constants": check_constants,
}


# -- corrupted outputs for the self-test --------------------------------------

def _edit_json(edit):
    def corrupt(out: str) -> str:
        rep = json.loads(out)
        edit(rep)
        return json.dumps(rep)
    return corrupt


def _set(key, fn):
    return _edit_json(lambda rep: rep.__setitem__(key, fn(rep[key])))


def _edit_line(index: int, field: int, fn):
    def corrupt(out: str) -> str:
        lines = out.splitlines()
        cells = lines[index].split(",")
        cells[field] = fn(cells[field])
        lines[index] = ",".join(cells)
        return "\n".join(lines) + "\n"
    return corrupt


def _nudge_first(xs):
    return [xs[0] + 1e-6] + xs[1:]


def _classify_rank_or_verdict(rep):
    if rep["density"]:
        rep["rank"] += 1
    else:
        rep["violated"] = "trace" if rep["violated"] != "trace" else "ball radius"


def _classify_claims_density(edit):
    # Corrupts valid outputs through edit, and invalid ones by accepting them.
    def corrupt(rep):
        if rep["density"]:
            edit(rep)
        rep["density"] = True
    return _edit_json(corrupt)


def _state_q(rep):
    rep["state"]["q"][0] += 1e-3


def _dims_d1(rep):
    rep["dims"]["D1"] -= 1


def _last_nonzero_c(lines) -> int:
    return max(i for i, ln in enumerate(lines) if i and float(ln.split(",")[3]) != 0)


def _flip_sign_of_last_nonzero_c(out: str) -> str:
    i = _last_nonzero_c(out.splitlines())
    return _edit_line(i, 3, lambda v: repr(-float(v)))(out)


def _swap_c_and_d_of_last_nonzero_c(out: str) -> str:
    lines = out.splitlines()
    i = _last_nonzero_c(lines)
    cells = lines[i].split(",")
    cells[3], cells[4] = cells[4], cells[3]
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _matrix_entry(rep):
    rep["matrix"][1][2] += 1e-6


CORRUPTIONS = {
    "classify": [_edit_json(_classify_rank_or_verdict),
                 _classify_claims_density(lambda r: r.update(orbit_dim=r["orbit_dim"] + 1)),
                 _classify_claims_density(lambda r: r.update(spectrum=_nudge_first(r["spectrum"])))],
    "ballgrid": [_edit_line(1, 3, lambda v: str(1 - int(v))),
                 _edit_line(-1, 4, lambda v: str(int(v) + 1)),
                 _edit_line(2, 0, lambda v: repr(float(v) + 1e-6)),
                 lambda out: out.rsplit("\n", 2)[0] + "\n"],
    "eigensolve": [_set("converged", lambda v: False),
                   _set("eigenvalue", lambda v: v + 1e-3),
                   _edit_json(_state_q)],
    "hamiltonian": [_set("norm_drift", lambda v: 1e-3),
                    _set("e_A_drift", lambda v: 1e-3)],
    "decompose": [_set("weights", _nudge_first),
                  _set("residual", lambda v: 1e-3)],
    "distributions": [_edit_json(_dims_d1),
                      _set("basis_D1", lambda b: b[:-1])],
    "tensor": [_set("rank", lambda v: v - 1), _edit_json(_matrix_entry)],
    "constants": [_edit_line(-1, 4, lambda v: repr(float(v) + 1e-5)),
                  lambda out: "\n".join(out.splitlines()[:-1]) + "\n",
                  _flip_sign_of_last_nonzero_c,
                  _swap_c_and_d_of_last_nonzero_c],
}
