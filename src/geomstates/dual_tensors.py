"""Poisson and Riemann-Jordan tensors on the dual of the unitary Lie
algebra, the associated endomorphisms, and the four tangent distributions
they generate.

Points of the dual are given by their real coordinates y (see basis.to_dual);
tensors are returned as real matrices in the coordinate-differential basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    TOL_RANK,
    DimensionError,
    OrthogonalBasis,
    check_hermitian,
    from_dual,
    numerical_rank,
    triple_traces,
)
from .realified import RealifiedState, bracket_g, bracket_omega

# Global scale between the contravariant Hermitian tensor on the realified
# Hilbert space and the pushed-forward (R + i Lambda) on the dual, fixed once
# by the n=2 calibration in calibrate_pairing_scale().
PAIRING_SCALE = 1.0


@dataclass(frozen=True)
class TensorAtPoint:
    """A bivector evaluated at a point, as a matrix over coordinate
    differentials."""

    point: np.ndarray  # y coordinates
    matrix: np.ndarray  # (n^2, n^2) real
    kind: str  # "lambda" or "R"

    def rank(self, tol: float = TOL_RANK) -> int:
        return int(numerical_rank(np.linalg.svd(self.matrix, compute_uv=False),
                                  tol))


@dataclass(frozen=True)
class DistributionReport:
    """Dimensions and orthonormal y-coordinate bases of the four tangent
    distributions at a point."""

    point: np.ndarray
    dim_lambda: int
    dim_r: int
    dim_0: int
    dim_1: int
    basis_lambda: np.ndarray  # columns are orthonormal y-vectors
    basis_r: np.ndarray
    basis_0: np.ndarray
    basis_1: np.ndarray

    @property
    def dims(self):
        return (self.dim_lambda, self.dim_r, self.dim_0, self.dim_1)

    def basis_operators(self, basis: OrthogonalBasis, which: str):
        """The chosen subspace basis as Hermitian matrices."""
        cols = getattr(self, f"basis_{which}")
        return [from_dual(cols[:, k], basis) for k in range(cols.shape[1])]


def _colspace(m: np.ndarray, tol: float = TOL_RANK):
    """Orthonormal basis (columns) of the column space of m, and the largest
    singular value of m."""
    if m.size == 0:
        return np.zeros((m.shape[0], 0)), 0.0
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, :numerical_rank(s, tol)], s[0]


def subspace_intersection(u: np.ndarray, v: np.ndarray,
                          tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis of span(u) & span(v) for orthonormal-column u, v.

    Uses the principal angles: singular vectors of u^T v with singular value
    within tol of 1 span the intersection.
    """
    if u.shape[1] == 0 or v.shape[1] == 0:
        return np.zeros((u.shape[0], 0))
    w, s, _ = np.linalg.svd(u.T @ v)
    keep = s > 1.0 - tol
    return u @ w[:, keep]


def lambda_at(y: np.ndarray, basis: OrthogonalBasis) -> TensorAtPoint:
    """Poisson tensor at the point with coordinates y:
    matrix[mu, nu] = Tr(xi [b_mu, b_nu]) / (2i)."""
    y = np.asarray(y, dtype=float)
    p = triple_traces(from_dual(y, basis), basis.elements)
    # Tr(xi b_nu b_mu) = conj(Tr(xi b_mu b_nu)) for Hermitian factors,
    # so the commutator part is just the imaginary part.
    return TensorAtPoint(y, p.imag, "lambda")


def riemann_jordan_at(y: np.ndarray, basis: OrthogonalBasis) -> TensorAtPoint:
    """Riemann-Jordan tensor at y: matrix[mu, nu] = Tr(xi [b_mu, b_nu]_+)/2."""
    y = np.asarray(y, dtype=float)
    p = triple_traces(from_dual(y, basis), basis.elements)
    return TensorAtPoint(y, p.real, "R")


def jtilde_endo(xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Hamiltonian direction at xi generated by A: (1/i)[A, xi]."""
    xi = check_hermitian(xi)
    a = check_hermitian(a)
    if xi.shape != a.shape:
        raise DimensionError("operand dimensions differ")
    return -1j * (a @ xi - xi @ a)


def r_endo(xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gradient direction at xi generated by A: [A, xi]_+."""
    xi = check_hermitian(xi)
    a = check_hermitian(a)
    if xi.shape != a.shape:
        raise DimensionError("operand dimensions differ")
    return a @ xi + xi @ a


def distributions_at(y: np.ndarray, basis: OrthogonalBasis,
                     tol: float = TOL_RANK) -> DistributionReport:
    """The four distributions at the point y.

    D_lambda and D_r are the images of the Lambda and R matrices (column nu
    holds the coordinates of jtilde/r applied to b_nu); D_0 is their
    intersection (cross-checked in dimension against the span of
    (1/i)[A, xi^2], the Lambda matrix at xi^2); D_1 is their sum.

    The Lambda matrix at xi^2 is ranked against the product of the largest
    singular values of the Lambda and R matrices at xi, which scales like
    it: where xi^2 is a multiple of the identity it is pure round-off and
    has rank 0.
    """
    y = np.asarray(y, dtype=float)
    xi = from_dual(y, basis)
    p = triple_traces(np.stack([xi, xi @ xi]), basis.elements)

    bl, s_l = _colspace(p[0].imag, tol)
    br, s_r = _colspace(p[0].real, tol)
    b0 = subspace_intersection(bl, br)
    b1, _ = _colspace(np.hstack([bl, br]), tol)
    dim0_direct = int(numerical_rank(
        np.linalg.svd(p[1].imag, compute_uv=False), tol, s_l * s_r))
    if b0.shape[1] != dim0_direct:
        raise ArithmeticError(
            "intersection dimension disagrees with the [A, xi^2] span "
            f"({b0.shape[1]} vs {dim0_direct})"
        )
    return DistributionReport(
        point=y,
        dim_lambda=bl.shape[1],
        dim_r=br.shape[1],
        dim_0=b0.shape[1],
        dim_1=b1.shape[1],
        basis_lambda=bl,
        basis_r=br,
        basis_0=b0,
        basis_1=b1,
    )


def pushforward_check(psi: RealifiedState, a: np.ndarray, b: np.ndarray):
    """Both sides of the momentum-map pushforward identity.

    lhs: (G + i Omega)(df_A, df_B) at psi, from coordinate gradients.
    rhs: PAIRING_SCALE * (R + i Lambda) at xi = |psi><psi| evaluated on the
    linear functions of A and B.
    """
    if psi.norm() == 0.0:
        raise ValueError("psi must be nonzero")
    a = check_hermitian(a)
    b = check_hermitian(b)
    lhs = complex(bracket_g(a, b, psi), bracket_omega(a, b, psi))
    z = psi.to_complex()
    xi = np.outer(z, z.conj())
    ab = a @ b
    ba = b @ a
    r_val = float(np.trace(xi @ (ab + ba)).real) / 2.0
    l_val = float((np.trace(xi @ (ab - ba)) / 2j).real)
    rhs = PAIRING_SCALE * complex(r_val, l_val)
    return lhs, rhs


def calibrate_pairing_scale(rng=None, dim: int = 2) -> float:
    """Recompute the global pairing scale from random samples at ``dim``.

    Kept as a function so tests can confirm the frozen PAIRING_SCALE value
    and that the constant does not depend on the dimension.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    ratios = []
    for _ in range(20):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (m + m.conj().T) / 2
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        b = (m + m.conj().T) / 2
        psi = RealifiedState(rng.normal(size=dim), rng.normal(size=dim))
        lhs, rhs = pushforward_check(psi, a, b)
        unscaled = rhs / PAIRING_SCALE
        if abs(unscaled) > 1e-6:
            ratios.append((lhs / unscaled).real)
    return float(np.mean(ratios))
