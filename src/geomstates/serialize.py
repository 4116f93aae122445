"""JSON and CSV wire formats.

JSON floats are written with 17 significant digits (exact round trip);
CSV values with 12 (readable).  All parsers accept their own output.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np

from .basis import StructureConstants, check_hermitian
from .dual_tensors import DistributionReport, TensorAtPoint
from .realified import RealifiedState
from .states import DensityState, TangencyReport

JSON_DIGITS = 17
CSV_DIGITS = 12


def _f17(x: float) -> float:
    # Round-trips exactly: 17 significant decimal digits determine a double.
    return float(format(float(x), ".17g"))


def _float_list(a) -> list:
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 1:
        return [_f17(x) for x in arr]
    return [_float_list(row) for row in arr]


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def csv_float(x: float) -> str:
    return format(float(x), f".{CSV_DIGITS}g")


# -- Hermitian operators ------------------------------------------------

def operator_to_dict(a: np.ndarray) -> dict:
    a = check_hermitian(a)
    if a.ndim != 2:
        raise ValueError(f"expected a single matrix, got shape {a.shape}")
    return {
        "dim": int(a.shape[0]),
        "re": _float_list(a.real),
        "im": _float_list(a.imag),
    }


def _dim(d: dict) -> int:
    """d["dim"], a number with an integer value >= 2 (3 or 3.0; never a
    bool, a string or a non-finite value)."""
    n = d["dim"]
    if (isinstance(n, bool) or not isinstance(n, numbers.Real)
            or not math.isfinite(n) or n != int(n)):
        raise ValueError(f"dim must be an integer, got {n!r}")
    n = int(n)
    if n < 2:
        raise ValueError(f"dim must be >= 2, got {n}")
    return n


def operator_from_dict(d: dict) -> np.ndarray:
    n = _dim(d)
    a = np.array(d["re"], dtype=float) + 1j * np.array(d["im"], dtype=float)
    if a.shape != (n, n):
        raise ValueError(f"operator payload shape {a.shape} != ({n}, {n})")
    return check_hermitian(a)


# -- Dual vectors -------------------------------------------------------

def dual_to_dict(dim: int, y: np.ndarray) -> dict:
    y = np.asarray(y, dtype=float)
    if y.shape != (dim * dim,):
        raise ValueError(f"expected {dim * dim} coordinates")
    return {"dim": int(dim), "y": _float_list(y)}


def dual_from_dict(d: dict):
    n = _dim(d)
    y = np.array(d["y"], dtype=float)
    if y.shape != (n * n,):
        raise ValueError(f"dual payload length {y.shape[0]} != {n * n}")
    if not np.isfinite(y).all():
        raise ValueError("dual payload has non-finite entries")
    return n, y


# -- Realified states ---------------------------------------------------

def state_to_dict(psi: RealifiedState) -> dict:
    return {
        "dim": psi.dim,
        "q": _float_list(psi.q),
        "p": _float_list(psi.p),
    }


def state_from_dict(d: dict) -> RealifiedState:
    n = _dim(d)
    q = np.array(d["q"], dtype=float)
    p = np.array(d["p"], dtype=float)
    if q.shape != (n,) or p.shape != (n,):
        raise ValueError("q/p length mismatch")
    if not (np.isfinite(q).all() and np.isfinite(p).all()):
        raise ValueError("state payload has non-finite entries")
    return RealifiedState(q, p)


# -- Tensor evaluations -------------------------------------------------

def tensor_to_dict(t: TensorAtPoint) -> dict:
    return {
        "y": _float_list(t.point),
        "kind": t.kind,
        "matrix": _float_list(t.matrix),
    }


def distributions_to_dict(r: DistributionReport) -> dict:
    return {
        "y": _float_list(r.point),
        "dims": {
            "lambda": r.dim_lambda,
            "R": r.dim_r,
            "D0": r.dim_0,
            "D1": r.dim_1,
        },
        "basis_lambda": _float_list(r.basis_lambda.T),
        "basis_R": _float_list(r.basis_r.T),
        "basis_D0": _float_list(r.basis_0.T),
        "basis_D1": _float_list(r.basis_1.T),
    }


# -- Density states -----------------------------------------------------

def density_to_dict(rho: DensityState) -> dict:
    out = operator_to_dict(rho.op)
    out["rank"] = int(rho.rank)
    out["spectrum"] = _float_list(rho.spectrum)
    return out


# -- CSV writers --------------------------------------------------------

def constants_csv_rows(sc: StructureConstants, expected=None,
                       cutoff: float = 1e-12):
    """Rows "mu,nu,rho,C,d" for every entry with |C|+|d| > cutoff.

    expected: optional callable (mu, nu, rho) -> (C, d, asserted) used to
    append a verification column ("match" / "mismatch" / "reported" for
    entries whose table values are recorded but not asserted).
    """
    # argwhere lists the indices in C order, the order of the rows.
    idx = np.argwhere(np.abs(sc.c) + np.abs(sc.d) > cutoff)
    rows = []
    for (mu, nu, rho), cv, dv in zip(idx.tolist(), sc.c[tuple(idx.T)].tolist(),
                                     sc.d[tuple(idx.T)].tolist()):
        row = [str(mu), str(nu), str(rho), csv_float(cv), csv_float(dv)]
        if expected is not None:
            ce, de, asserted = expected(mu, nu, rho)
            agree = abs(cv - ce) <= 1e-12 and abs(dv - de) <= 1e-12
            if not asserted:
                row.append("reported")
            else:
                row.append("match" if agree else "mismatch")
        rows.append(",".join(row))
    return rows


def trace_csv(trace) -> str:
    lines = ["iter,e_A,residual"]
    for it, e, r in trace:
        lines.append(f"{it},{csv_float(e)},{csv_float(r)}")
    return "\n".join(lines) + "\n"


def tangency_csv(report: TangencyReport) -> str:
    lines = ["t,residual"]
    for t, r in zip(report.times, report.residuals):
        lines.append(f"{csv_float(t)},{csv_float(r)}")
    return "\n".join(lines) + "\n"


def weyl_csv(spectra) -> str:
    header = "idx," + ",".join("abcdefghij"[: len(spectra[0])])
    lines = [header]
    for i, spec in enumerate(spectra):
        lines.append(f"{i}," + ",".join(csv_float(x) for x in spec))
    return "\n".join(lines) + "\n"
