"""Command-line front end.

Subcommands: classify, decompose, tensors, constants, flow, ballgrid.
Input is an operator / state / coordinate payload given either as a file
path (``--input``, "-" for stdin) or inline (``--json``).  Results go to
--output (default stdout).  Exit codes: 0 = ran (including negative
classifications), 2 = usage, parse or file error or any ValueError of the
library, 3 = internal numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import serialize
from .basis import gellmann_basis, real_array, structure_constants, to_dual
from .dual_tensors import distributions_at, lambda_at, riemann_jordan_at
from .realified import (
    RealifiedState,
    critical_point_eigensolve,
    expectation_trace_samples,
)
from .states import (
    TOL_PSD,
    Rejection,
    certify_densities,
    certify_density,
    bloch_decompose_along,
    convex_decompose_spectral,
    orbit_dimension,
    qubit_from_bloch,
    weyl_reduce,
)

DEFAULT_SEED = 12345
# r^3 rows are held in memory; 101 gives about 1.03 M points.
MAX_BALLGRID_RESOLUTION = 101


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Parse errors as UsageErrors, which main prints as one "error:" line
    with no usage block.  Subparsers take the parent's class."""

    def error(self, message):
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        """The top-level parse.  Before the subcommand, the top-level
        parser, which has neither, takes the value of --tol or --seed for
        the subcommand; any refusal of such a command names the option."""
        words = sys.argv[1:] if args is None else list(args)
        try:
            return super().parse_args(words, namespace)
        except UsageError:
            for word in itertools.takewhile(lambda w: w not in self.commands,
                                            words):
                if word.split("=")[0] in ("--tol", "--seed"):
                    raise UsageError(f"{word.split('=')[0]} goes after the "
                                     "subcommand") from None
            raise

    def _get_values(self, action, arg_strings):
        # argparse drops the "--" of "--tol=--" and would store [] unparsed
        if arg_strings == ["--"] and action.option_strings:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _read_payload(args, parse, noun: str):
    """parse(payload) for the JSON object from --input or --json.  A fault
    in the source, the JSON or the payload is a UsageError."""
    try:
        if args.json is not None:
            text = args.json
        elif args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input) as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read --input: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError("payload must be a JSON object")
    try:
        return parse(payload)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad {noun} payload: {exc}") from exc


def _write(path, text: str) -> None:
    """text to the file at path; to stdout, ending in a newline, when path
    is None."""
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write: {exc}") from exc


def cmd_classify(args) -> str:
    op = _read_payload(args, serialize.operator_from_dict, "operator")
    result = certify_density(op, tol_psd=args.tol)
    if isinstance(result, Rejection):
        violated = result.violated
        if op.shape[0] == 2 and violated == "negative eigenvalue":
            violated = "ball radius"
        report = {"density": False, "violated": violated, "detail": result.detail}
    else:
        basis = gellmann_basis(result.dim)
        report = {
            "density": True,
            "rank": int(result.rank),
            "spectrum": result.spectrum.tolist(),
            "y": to_dual(result, basis).tolist(),
            "weyl": weyl_reduce(result).tolist(),
            "orbit_dim": int(orbit_dimension(result)),
            "face_dim": int(result.face_dimension),
        }
    return serialize.dumps(report)


def cmd_decompose(args) -> str:
    op = _read_payload(args, serialize.operator_from_dict, "operator")
    rho = certify_density(op, tol_psd=args.tol)
    if isinstance(rho, Rejection):
        return serialize.dumps({"density": False, "violated": rho.violated})
    if args.mode == "bloch":
        dec = bloch_decompose_along(rho, args.direction)
    else:
        dec = convex_decompose_spectral(rho)
    residual = float(np.abs(dec.reconstruct() - rho.op).max())
    report = {
        "mode": args.mode,
        "weights": dec.weights.tolist(),
        "components": [serialize.operator_to_dict(c) for c in dec.components.op],
        "residual": residual,
    }
    return serialize.dumps(report)


def cmd_tensors(args) -> str:
    n, y = _read_payload(args, serialize.dual_from_dict, "dual-vector")
    basis = gellmann_basis(n)
    y = real_array(y, (basis.size,), "coordinates")  # one point
    if args.which == "distributions":
        report = serialize.distributions_to_dict(distributions_at(y, basis))
    else:
        fn = lambda_at if args.which == "lambda" else riemann_jordan_at
        report = serialize.tensor_to_dict(fn(y, basis))
    return serialize.dumps(report)


def cmd_constants(args) -> str:
    sc = structure_constants(gellmann_basis(args.n))
    return "\n".join(serialize.constants_csv_rows(sc)) + "\n"


def cmd_flow(args) -> str:
    if not (math.isfinite(args.t_final) and args.t_final >= 0):
        raise UsageError("--t-final must be finite and >= 0")
    if args.max_iter < 0:
        raise UsageError("--max-iter must be >= 0")

    def parse(payload):
        op = serialize.operator_from_dict(payload["A"])
        if "psi0" in payload:
            psi0 = serialize.state_from_dict(payload["psi0"])
        else:
            rng = np.random.default_rng(args.seed)
            psi0 = RealifiedState(rng.normal(size=op.shape[0]),
                                  rng.normal(size=op.shape[0]))
        return op, psi0

    op, psi0 = _read_payload(args, parse, "flow")

    if args.mode == "hamiltonian":
        samples, drift_norm, drift_ea = expectation_trace_samples(
            op, psi0, args.t_final, args.step)
        if args.trace:
            _write(args.trace, serialize.trace_csv(samples.tolist(),
                                                   header="t,e_A,norm"))
        report = {
            "mode": "hamiltonian",
            "t_final": args.t_final,
            "norm_drift": drift_norm,
            "e_A_drift": drift_ea,
        }
    else:
        trace = [] if args.trace else None
        e, psi, converged = critical_point_eigensolve(
            op, psi0, step=args.step, max_iter=args.max_iter,
            mode=args.opt_mode, trace=trace)
        if args.trace:
            _write(args.trace, serialize.trace_csv(trace))
        report = {
            "mode": "gradient-eigensolve",
            "opt_mode": args.opt_mode,
            "converged": bool(converged),
            "eigenvalue": e,
            "state": serialize.state_to_dict(psi),
        }
    return serialize.dumps(report)


def cmd_ballgrid(args) -> str:
    r = args.resolution
    if r < 2:
        raise UsageError("resolution must be >= 2")
    if r > MAX_BALLGRID_RESOLUTION:
        raise UsageError(f"resolution must be <= {MAX_BALLGRID_RESOLUTION}")
    grid = np.linspace(-0.6, 0.6, r)
    stack = qubit_from_bloch(grid[:, None, None], grid[None, :, None],
                             grid[None, None, :])
    rank = certify_densities(stack.reshape(-1, 2, 2), tol_psd=args.tol,
                             vectors=False).rank
    # One row per point in (y1, y2, y3) order: a (y1, y2) prefix, then the
    # tail for the point's y3 and rank; is_density is rank > 0.
    labels = [serialize.csv_float(v) + "," for v in grid]
    tails = np.array([[c3 + f"{int(k > 0)},{k}" for k in range(3)]
                      for c3 in labels], dtype=object)
    rows = tails[np.arange(r), rank.reshape(r * r, r)].tolist()
    blocks = [p + ("\n" + p).join(row) for p, row in
              zip((c1 + c2 for c1 in labels for c2 in labels), rows)]
    return "y1,y2,y3,is_density,rank\n" + "\n".join(blocks) + "\n"


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="geomstates",
        description="Geometry of finite-dimensional quantum state spaces.",
    )
    parser.add_argument("--output", help="output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    tol = dict(type=float, default=TOL_PSD, help="positivity tolerance")

    def add_payload(p):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", help="payload file path, or - for stdin")
        source.add_argument("--json", help="inline JSON payload")

    p = sub.add_parser("classify", help="certify and classify a state")
    add_payload(p)
    p.add_argument("--tol", **tol)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="convex decomposition of a state")
    add_payload(p)
    p.add_argument("--tol", **tol)
    p.add_argument("--mode", choices=["spectral", "bloch"], default="spectral")
    p.add_argument("--direction", type=lambda s: [float(x) for x in s.split(",")],
                   help="bloch-line direction as y1,y2,y3")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("tensors", help="evaluate dual-space tensors at a point")
    add_payload(p)
    p.add_argument("--which", choices=["lambda", "R", "distributions"],
                   required=True)
    p.set_defaults(func=cmd_tensors)

    p = sub.add_parser("constants", help="dump structure constants as CSV")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("flow", help="Hamiltonian flow or eigensolver run")
    add_payload(p)
    p.add_argument("--mode", choices=["hamiltonian", "gradient-eigensolve"],
                   required=True)
    p.add_argument("--step", type=float)
    p.add_argument("--t-final", type=float, default=10.0)
    p.add_argument("--max-iter", type=int, default=100000)
    p.add_argument("--opt-mode", choices=["ascent", "descent"],
                   default="ascent")
    p.add_argument("--trace", help="path for the trace CSV")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for psi0 when the payload has none")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("ballgrid", help="qubit ball membership grid CSV")
    p.add_argument("--resolution", type=int, default=21)
    p.add_argument("--tol", **tol)
    p.set_defaults(func=cmd_ballgrid)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # An overflow or an invalid operation is a numeric failure, never a
        # warning followed by inf or NaN in the output.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            text = args.func(args)
        _write(args.output, text)
        sys.stdout.flush()  # meet a closed pipe here, not at exit
        return 0
    except SystemExit:  # --help, after printing the help text
        return 0
    except BrokenPipeError:  # the reader stopped early; drop the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except ValueError as exc:  # after LinAlgError, itself a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
