"""JSON and CSV wire formats.

JSON floats are Python's shortest round-trip repr (at most 17 significant
digits, so every double reads back bit-exact); CSV values have 12
significant digits (readable).  All parsers accept their own output.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers

import numpy as np

from .basis import DimensionError, StructureConstants
from .dual_tensors import DistributionReport, TensorAtPoint
from .qutrit_tables import full_c_table, full_d_table
from .realified import RealifiedState

CSV_DIGITS = 12
# The one CSV cell: a %-format, so that a whole row formats in one call.
_CELL = f"%.{CSV_DIGITS}g"


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def csv_float(x: float) -> str:
    return _CELL % float(x)


# -- Hermitian operators ------------------------------------------------

def operator_to_dict(a: np.ndarray) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a single matrix, got shape {a.shape}")
    return {"dim": int(a.shape[0]), "re": a.real.tolist(),
            "im": a.imag.tolist()}


@functools.lru_cache(maxsize=None)  # an ABC test costs ~0.7 us per call
def _is_number(t: type) -> bool:
    """t is the type of a JSON number: int or float (or a numpy real), never
    bool or str."""
    return issubclass(t, numbers.Real) and not issubclass(t, bool)


def _dim(d: dict) -> int:
    """d["dim"], a number with an integer value >= 2 (3 or 3.0; never a
    bool, a string or a non-finite value)."""
    n = d["dim"]
    if not _is_number(type(n)) or not math.isfinite(n) or n != int(n):
        raise ValueError(f"dim must be an integer, got {n!r}")
    n = int(n)
    if n < 2:
        raise ValueError(f"dim must be >= 2, got {n}")
    return n


def _reals(d: dict, key: str, shape: tuple | None) -> np.ndarray:
    """d[key] as a float array of the given shape (any, for None), every
    entry a number by _is_number.  Only the shape the payload's dim sets is
    judged here; the values are left to their first reader."""
    a = np.array(d[key], dtype=float)
    if shape is not None and a.shape != shape:
        raise DimensionError(f"{key} must have shape {shape}, got {a.shape}")
    entries = [d[key]]
    for _ in range(a.ndim):
        entries = itertools.chain.from_iterable(entries)
    if not all(map(_is_number, set(map(type, entries)))):
        raise ValueError(f"{key} entries must be numbers")
    return a


def operator_from_dict(d: dict) -> np.ndarray:
    """The payload's (n, n) array, unchecked: its first reader judges it."""
    n = _dim(d)
    # each part on its own: numpy would broadcast a scalar or a row
    re, im = (_reals(d, key, (n, n)) for key in ("re", "im"))
    a = re.astype(complex)  # by assignment: no 0 * inf from re + 1j * im
    a.imag = im
    return a


# -- Dual vectors -------------------------------------------------------

def dual_from_dict(d: dict):
    """(n, y); cmd_tensors judges y as one point of n^2 finite coordinates."""
    return _dim(d), _reals(d, "y", None)


# -- Realified states ---------------------------------------------------

def state_to_dict(psi: RealifiedState) -> dict:
    return {
        "dim": psi.dim,
        "q": psi.q.tolist(),
        "p": psi.p.tolist(),
    }


def state_from_dict(d: dict) -> RealifiedState:
    n = _dim(d)
    return RealifiedState(_reals(d, "q", (n,)), _reals(d, "p", (n,)))


# -- Tensor evaluations -------------------------------------------------

def tensor_to_dict(t: TensorAtPoint) -> dict:
    return {
        "y": t.point.tolist(),
        "kind": t.kind,
        "matrix": t.matrix.tolist(),
        "rank": int(t.rank()),
    }


def distributions_to_dict(r: DistributionReport) -> dict:
    names = ("lambda", "R", "D0", "D1")  # of "dims" and of the bases
    bases = (r.basis_lambda, r.basis_r, r.basis_0, r.basis_1)
    return {"y": r.point.tolist(), "dims": dict(zip(names, r.dims)),
            **{f"basis_{k}": b.T.tolist() for k, b in zip(names, bases)}}


# -- CSV writers --------------------------------------------------------

def constants_csv_rows(sc: StructureConstants) -> list:
    """CSV lines, header first, "mu,nu,rho,C,d" for every entry with
    |C| + |d| > 1e-12.

    At n = 3 a check column compares each entry with the qutrit_tables
    reference: "match" or "mismatch" within 1e-12, and "reported" for an
    entry with a 0 index, whose printed value is recorded, never asserted.
    """
    # argwhere lists the indices in C order, the order of the rows.
    idx = np.argwhere(np.abs(sc.c) + np.abs(sc.d) > 1e-12)
    at = tuple(idx.T)
    fmt = f"%d,%d,%d,{_CELL},{_CELL}"
    rows = [fmt % row for row in zip(*idx.T.tolist(), sc.c[at].tolist(),
                                     sc.d[at].tolist())]
    if sc.dim != 3:
        return ["mu,nu,rho,C,d"] + rows
    agree = ((np.abs(sc.c[at] - full_c_table()[at]) <= 1e-12)
             & (np.abs(sc.d[at] - full_d_table()[at]) <= 1e-12))
    check = np.where((idx == 0).any(axis=1), "reported",
                     np.where(agree, "match", "mismatch"))
    return ["mu,nu,rho,C,d,check"] + [f"{row},{c}" for row, c
                                      in zip(rows, check.tolist())]


def trace_csv(rows, header: str = "iter,e_A,residual") -> str:
    """Flow-trace CSV: the header, then each row, one cell per header column
    and each cell as csv_float writes it, formatted in one call."""
    fmt = ",".join([_CELL] * (header.count(",") + 1))
    return "\n".join([header] + [fmt % tuple(row) for row in rows]) + "\n"
