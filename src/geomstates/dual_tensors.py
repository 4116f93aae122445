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
    OrthogonalBasis,
    check_hermitian,
    eigenpair_masks,
    exact_scale,
    finite,
    from_dual,
    pair_indices,
    real_array,
    triple_traces,
)
from .realified import RealifiedState, _complex, star_product


@dataclass(frozen=True)
class TensorAtPoint:
    """A bivector evaluated at points (...), as matrices over coordinate
    differentials."""

    point: np.ndarray  # (..., n^2) y coordinates
    matrix: np.ndarray  # (..., n^2, n^2) real
    kind: str  # "lambda" or "R"
    _rank: np.ndarray  # (...)

    def rank(self) -> np.ndarray:
        """dim D_lambda or dim D_R at each point."""
        return self._rank


@dataclass(frozen=True)
class DistributionReport:
    """Orthonormal y-coordinate bases of the four tangent distributions at a
    point; dims are their column counts."""

    point: np.ndarray
    basis_lambda: np.ndarray  # columns are orthonormal y-vectors
    basis_r: np.ndarray
    basis_0: np.ndarray
    basis_1: np.ndarray

    @property
    def dims(self) -> tuple:
        return tuple(b.shape[1] for b in (self.basis_lambda, self.basis_r,
                                          self.basis_0, self.basis_1))


def _tensor_at(y: np.ndarray, basis: OrthogonalBasis, kind: str):
    """Lambda or R at points y (..., n^2), with dim D_lambda or D_R as rank."""
    y = real_array(y, np.shape(y)[:-1] + (basis.size,), "coordinates")
    ys, k = exact_scale(y[..., None], axis=(-2, -1))  # one k per point
    xi = from_dual(ys[..., 0], basis)
    # Tr(xi b_nu b_mu) = conj(Tr(xi b_mu b_nu)): Lambda is Im, R is Re.
    p = triple_traces(xi, basis.elements)
    r = kind == "R"
    mask = eigenpair_masks(np.linalg.eigvalsh(xi))[r]
    matrix = finite(p.real if r else p.imag, "tensor",
                    "a Tr(xi b_mu b_nu) is beyond the float range", k)
    return TensorAtPoint(y, matrix, kind, mask.sum(axis=-1))


def lambda_at(y: np.ndarray, basis: OrthogonalBasis) -> TensorAtPoint:
    """Poisson tensor at y: matrix[mu, nu] = Tr(xi [b_mu, b_nu]) / (2i)."""
    return _tensor_at(y, basis, "lambda")


def riemann_jordan_at(y: np.ndarray, basis: OrthogonalBasis) -> TensorAtPoint:
    """Riemann-Jordan tensor at y: matrix[mu, nu] = Tr(xi [b_mu, b_nu]_+)/2."""
    return _tensor_at(y, basis, "R")


def _endo(xi: np.ndarray, a: np.ndarray, sign: float) -> np.ndarray:
    """A xi + sign xi A, each member of xi and A read at its exact scale."""
    xi, kx = exact_scale(check_hermitian(xi), axis=(-2, -1))
    a, ka = exact_scale(check_hermitian(a, xi.shape[-1]))
    return finite(a @ xi + sign * (xi @ a), "endomorphism",
                  "A xi +- xi A is beyond the float range", kx + ka)


def jtilde_endo(xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Hamiltonian direction at xi generated by A: (1/i)[A, xi]; at each
    point of a stack xi of shape (..., n, n)."""
    return -1j * _endo(xi, a, -1.0)


def r_endo(xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gradient direction at xi generated by A: [A, xi]_+; at each point of
    a stack xi of shape (..., n, n)."""
    return _endo(xi, a, 1.0)


def distributions_at(y: np.ndarray,
                     basis: OrthogonalBasis) -> DistributionReport:
    """The four distributions at the point y, read off the eigenvalues of xi.

    With xi = V diag(w) V^dagger, the directions V(E_ij + E_ji)V^dagger and
    V(iE_ij - iE_ji)V^dagger (i < j) and sqrt(2) V E_kk V^dagger are
    orthonormal in y.  jtilde turns the plane of a pair (i, j) by a quarter
    and scales it by w_j - w_i; r_endo scales it by w_i + w_j, and a
    diagonal direction by 2 w_k.  So D_lambda and D_r are spanned by the
    directions eigenpair_masks selects, D_0 and D_1 by their intersection
    and union.  D_0 is cross-checked in dimension against the span of
    (1/i)[A, xi^2]: the pairs with |w_i^2 - w_j^2|, the product of
    |w_i - w_j| and |w_i + w_j|, above TOL_RANK * max|w| times the larger
    factor, |w_i| + |w_j|, with xi formed from y at its exact scale.
    """
    y = real_array(y, (basis.size,), "coordinates")  # one point
    w, v = np.linalg.eigh(from_dual(exact_scale(y)[0], basis))
    m = v.conj().T @ basis.elements @ v  # M[mu] = V^dagger b_mu V
    i, j = pair_indices(basis.dim)
    # Column c holds the y-coordinates (1/2)Tr(b_mu X_c) of direction X_c.
    dirs = np.concatenate([m[:, i, j].real, m[:, i, j].imag,
                           m.diagonal(axis1=1, axis2=2).real / np.sqrt(2.0)],
                          axis=1)
    in_l, in_r = eigenpair_masks(w)
    dim0 = int((in_l & in_r).sum())
    cut = TOL_RANK * np.abs(w).max() * (np.abs(w[i]) + np.abs(w[j]))
    dim0_direct = 2 * int((np.abs(w[i] ** 2 - w[j] ** 2) > cut).sum())
    if dim0 != dim0_direct:
        raise ArithmeticError(
            "intersection dimension disagrees with the [A, xi^2] span "
            f"({dim0} vs {dim0_direct})"
        )
    return DistributionReport(y, *(dirs[:, s] for s in (
        in_l, in_r, in_l & in_r, in_l | in_r)))


def pushforward_check(psi: RealifiedState, a: np.ndarray, b: np.ndarray):
    """Both sides of the momentum-map pushforward identity.

    lhs: (G + i Omega)(df_A, df_B) at psi, the star product <A psi, B psi>.
    rhs: (R + i Lambda) at xi = |psi><psi| evaluated on the linear functions
    of A and B.
    """
    psi.unit()  # ZeroVectorError at psi = 0
    lhs = star_product(a, b, psi)  # checks A and B against psi's dimension
    (a, ka), (b, kb) = (exact_scale(np.asarray(m, dtype=complex))
                        for m in (a, b))
    x, k = psi._scaled()
    z = _complex(x)
    xi, ab, ba = np.outer(z, z.conj()), a @ b, b @ a
    r_val = float(np.trace(xi @ (ab + ba)).real) / 2.0
    l_val = float((np.trace(xi @ (ab - ba)) / 2j).real)
    return lhs, complex(finite(complex(r_val, l_val), "pushforward",
                               "(R + i Lambda)(A, B) is beyond the float "
                               "range", ka + kb + 2 * k))
