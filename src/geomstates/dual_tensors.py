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
    """The four distributions at the point y, read off the eigenvalues of xi.

    With xi = V diag(w) V^dagger, the directions V(E_ij + E_ji)V^dagger and
    V(iE_ij - iE_ji)V^dagger (i < j) and sqrt(2) V E_kk V^dagger are
    orthonormal in y.  jtilde turns the plane of a pair (i, j) by a quarter
    and scales it by w_j - w_i; r_endo scales it by w_i + w_j, and a
    diagonal direction by 2 w_k.  So D_lambda is spanned by the pairs with
    w_i != w_j, D_r by the pairs with w_i + w_j != 0 and the diagonal
    directions with w_k != 0, and D_0 and D_1 by the intersection and the
    union of those sets; each "!= 0" is decided against tol * max|w|.
    D_0 is cross-checked in dimension against the span of (1/i)[A, xi^2],
    the pairs with w_i^2 != w_j^2 (against tol * max|w|^2).
    """
    y = np.asarray(y, dtype=float)
    w, v = np.linalg.eigh(from_dual(y, basis))
    m = v.conj().T @ basis.elements @ v  # M[mu] = V^dagger b_mu V
    i, j = np.triu_indices(basis.dim, 1)
    # Column c holds the y-coordinates (1/2)Tr(b_mu X_c) of direction X_c.
    dirs = np.concatenate([m[:, i, j].real, m[:, i, j].imag,
                           m.diagonal(axis1=1, axis2=2).real / np.sqrt(2.0)],
                          axis=1)
    top = np.abs(w).max()
    diff = np.abs(w[i] - w[j]) > tol * top
    summ = np.abs(w[i] + w[j]) > tol * top
    in_l = np.concatenate([diff, diff, np.zeros(basis.dim, dtype=bool)])
    in_r = np.concatenate([summ, summ, np.abs(w) > tol * top])
    dim0 = int((in_l & in_r).sum())
    dim0_direct = 2 * int((np.abs(w[i] ** 2 - w[j] ** 2) > tol * top ** 2).sum())
    if dim0 != dim0_direct:
        raise ArithmeticError(
            "intersection dimension disagrees with the [A, xi^2] span "
            f"({dim0} vs {dim0_direct})"
        )
    bases = [dirs[:, s] for s in (in_l, in_r, in_l & in_r, in_l | in_r)]
    return DistributionReport(y, *(b.shape[1] for b in bases), *bases)


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
