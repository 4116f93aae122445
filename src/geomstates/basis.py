"""Hermitian operators, orthogonal matrix bases, structure constants, and the
real coordinate chart on the space of Hermitian matrices.

Conventions are fixed once and for all here:

* the basis element with flat index 0 is ``sqrt(2/n) * I``;
* for n=2 the remaining elements are, in order,
  ``[[0,i],[-i,0]]``, ``[[0,1],[1,0]]``, ``diag(1,-1)``;
* for n=3 they are the eight standard Gell-Mann matrices in their usual order;
* for n > 3 the generalized Gell-Mann ordering is used: symmetric off-diagonal
  pairs, then antisymmetric pairs, then the diagonal elements.

All bases satisfy ``Tr(b[mu] @ b[nu]) == 2 * delta(mu, nu)``, and the real
coordinates of a Hermitian A are ``y[mu] = Tr(b[mu] @ A) / 2``.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

TOL_HERM = 1e-10
TOL_RANK = 1e-9
# A basis is one (n^2, n, n) complex array of 16 n^4 bytes, 16 MB at n = 32;
# there `tensors --which distributions` peaks at about 340 MB RSS.
MAX_BASIS_N = 32
# C and d are two dense real (n^2)^3 arrays, read off one complex one; 12
# gives about 48 MB for the pair (the n=20 pair alone would be 1 GB).
MAX_CONSTANTS_N = 12
# Real and imaginary parts up to DBL_MAX / sqrt(2) keep |entry| finite.
_PART_MAX = sys.float_info.max / math.sqrt(2.0)


class DimensionError(ValueError):
    """Dimension below 2 or mismatched operand dimensions."""


class HermiticityError(ValueError):
    """Matrix is not Hermitian within tolerance."""


class BasisError(ValueError):
    """Basis violates its orthogonality/normalization invariants."""


def check_hermitian(a: np.ndarray, n: int | None = None) -> np.ndarray:
    """Validate Hermiticity of a square complex matrix, or of every matrix in
    a stack of shape (..., n, n), and return it as a complex ndarray; given n,
    it must be one n x n matrix, an operator on the space of dimension n.

    The tolerance TOL_HERM is absolute after scaling each matrix by
    max(max|entry|, 1).  Raises if any matrix fails or any entry is NaN or
    infinite, or has a modulus that overflows.

    An input equal to its conjugate transpose, with no real or imaginary
    part above _PART_MAX, is accepted after that one equality pass: its
    skew is exactly 0 and every modulus finite, so the scaled test below
    could only accept it.  Any other input takes the scaled test.
    """
    a = np.asarray(a, dtype=complex)
    if n is not None and a.shape != (n, n):
        raise DimensionError(
            f"expected an operator of shape ({n}, {n}), got {a.shape}")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    ah = a.swapaxes(-2, -1).conj()
    # NaN fails the equality and inf the bound, so both reach the test below.
    if (a == ah).all():
        parts = a.ravel().view(float)  # empty for an empty stack
        if (parts.max(initial=0.0) <= _PART_MAX
                and parts.min(initial=0.0) >= -_PART_MAX):
            return a
    mag = np.abs(a)
    if not math.isfinite(mag.max()):
        raise HermiticityError("matrix has non-finite entries")
    skew = np.abs(a - ah)
    # Each matrix's threshold TOL_HERM * max(max|entry|, 1) is at least
    # TOL_HERM: the per-matrix scales matter only if some skew is larger.
    if skew.max() > TOL_HERM:
        scale = np.maximum(mag.max(axis=(-2, -1)), 1.0)
        if (skew.max(axis=(-2, -1)) > TOL_HERM * scale).any():
            raise HermiticityError("matrix is not Hermitian within tolerance")
    return a


def real_array(x, shape: tuple, what: str) -> np.ndarray:
    """x as a float ndarray of the given shape with finite entries; any
    other shape is a DimensionError, a NaN or infinite entry a ValueError,
    each naming what x is."""
    x = np.asarray(x, dtype=float)
    if x.shape != shape:
        raise DimensionError(f"{what} must have shape {shape}, got {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} must be finite")
    return x


def exact_scale(x, axis=None):
    """(x * 2**-k, k) for a real or complex array or scalar x, k the binary
    exponent of max|x| (0 for x = 0): a Python int, or one per member over
    numpy's axis, kept broadcastable.  Exact where the result is normal.

    A float x (Python or numpy) gives a Python float and an int k, by
    math.frexp and math.ldexp.  Where k = 0 the value is x itself, not a
    copy (ldexp by 0 is the identity), so callers only read it."""
    if isinstance(x, float) and axis is None:
        k = math.frexp(x)[1]
        return _ldexp(x, -k), k
    x = np.asarray(x)
    k = np.frexp(np.abs(x).max(axis=axis, keepdims=True, initial=0.0))[1]
    k = k.item() if axis is None else k
    return _ldexp(x, -k), k


def _ldexp(x, k):
    """x * 2**k, +-inf past the float range; x itself for a Python-int k of
    0, a float x by math.ldexp, a complex x part by part into one output
    (no 0 * inf)."""
    if isinstance(k, int) and k == 0:
        return x
    if isinstance(x, float):
        try:
            return math.ldexp(x, k)
        except OverflowError:
            return math.copysign(math.inf, x)
    if not np.iscomplexobj(x):
        return np.ldexp(x, k)
    out = np.empty_like(x)
    np.ldexp(x.real, k, out=out.real)
    np.ldexp(x.imag, k, out=out.imag)
    return out


@dataclass(frozen=True)
class OrthogonalBasis:
    """A trace-orthogonal Hermitian basis with the identity in slot 0."""

    dim: int
    elements: np.ndarray  # (n^2, n, n) complex, read-only

    def __post_init__(self):
        n = self.dim
        # A read-only view: the caller's array keeps its own flags.
        elements = np.asarray(self.elements, dtype=complex).view()
        if elements.shape != (n * n, n, n):
            raise BasisError(
                f"need {n * n} elements of shape ({n}, {n}), got {elements.shape}"
            )
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    @property
    def size(self) -> int:
        return self.dim * self.dim

    def verify(self) -> None:
        """Raise BasisError unless Tr(b_mu b_nu) = 2 delta_mu_nu and element 0
        is sqrt(2/n) I, each within 1e-12."""
        n = self.dim
        stack = self.elements
        gram = triple_traces(np.eye(n), stack).real / 2.0
        if np.abs(gram - np.eye(n * n)).max() > 1e-12:
            raise BasisError("basis is not trace-orthonormal")
        if np.abs(stack[0] - np.sqrt(2.0 / n) * np.eye(n)).max() > 1e-12:
            raise BasisError("element 0 must be sqrt(2/n) * identity")


# The two-level basis used throughout the qubit fixtures.  Note the
# unconventional first element: [[0, i], [-i, 0]] rather than the usual
# sigma_y, and the role swap with [[0, 1], [1, 0]].
_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1j], [-1j, 0]]),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.diag([1.0, -1.0]).astype(complex),
)

_LAMBDA3 = (
    np.sqrt(2.0 / 3.0) * np.eye(3, dtype=complex),
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]),
    np.diag([1.0, -1.0, 0.0]).astype(complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]]),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]]),
    np.diag([1.0, 1.0, -2.0]).astype(complex) / np.sqrt(3.0),
)


@functools.lru_cache(maxsize=None)
def pair_indices(n: int):
    """np.triu_indices(n, 1), built once per n; shared, so read-only."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


@functools.lru_cache(maxsize=None)
def _direction_pairs(n: int):
    """Index arrays i, j and the relative cut of each eigenbasis direction,
    in the order and with the cuts that eigenpair_masks describes."""
    k = np.arange(n)
    i, j = (np.concatenate([p, p, k]) for p in pair_indices(n))
    return i, j, np.where(i == j, 2.0 * TOL_RANK, TOL_RANK)


@functools.lru_cache(maxsize=None)
def gellmann_basis(n: int) -> OrthogonalBasis:
    """Orthogonal Hermitian basis of the n x n matrices, identity first.

    n=2 and n=3 return the fixed matrices above; larger n uses the
    generalized Gell-Mann construction.  Built once per n; n above
    MAX_BASIS_N is refused before anything is allocated.
    """
    if n < 2:
        raise DimensionError(f"dimension must be >= 2, got {n}")
    if n > MAX_BASIS_N:
        raise DimensionError(f"dimension must be <= {MAX_BASIS_N}, got {n}")
    if n == 2:
        return OrthogonalBasis(2, _SIGMA)
    if n == 3:
        return OrthogonalBasis(3, _LAMBDA3)

    elems = np.zeros((n * n, n, n), dtype=complex)
    elems[0] = np.sqrt(2.0 / n) * np.eye(n)
    j, k = pair_indices(n)
    sym = np.arange(1, 1 + j.size)
    anti = sym + j.size
    elems[sym, j, k] = elems[sym, k, j] = 1.0
    elems[anti, j, k] = -1j
    elems[anti, k, j] = 1j
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1.0
        diag[l] = -l
        elems[2 * j.size + l] = np.sqrt(2.0 / (l * (l + 1))) * np.diag(diag)
    return OrthogonalBasis(n, elems)


@dataclass(frozen=True)
class StructureConstants:
    """Antisymmetric C and symmetric-part d arrays of an orthogonal basis.

    Defined through

        [b_mu, b_nu]   = 2i C_{mu nu rho} b_rho
        [b_mu, b_nu]_+ = 2 sqrt(2/n) b_0 delta_{mu nu} + 2 d_{mu nu rho} b_rho

    C vanishes wherever an index is 0.  The explicit b_0 delta term means
    d[mu, nu, 0] = 0, while d[0, nu, rho] = d[nu, 0, rho] =
    sqrt(2/n) delta_{nu rho} for rho >= 1.
    """

    dim: int
    c: np.ndarray  # (n^2, n^2, n^2) real
    d: np.ndarray  # (n^2, n^2, n^2) real

    @property
    def d_traceless(self) -> np.ndarray:
        """The d block over traceless indices 1..n^2-1 (totally symmetric)."""
        return self.d[1:, 1:, 1:]


def triple_traces(xi: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """P[..., a, b] = Tr(xi b_a b_b) for xi of shape (..., n, n) and a basis
    stack of shape (m, n, n): one batched matmul, then one GEMM over the
    flattened leading axes (a stacked product would make one per matrix)."""
    m, n = stack.shape[0], stack.shape[-1]
    left = (xi[..., None, :, :] @ stack).reshape(-1, n * n)
    # Tr(X b) = sum_ij X_ij b_ji, so contract against the transposed stack.
    right = stack.transpose(0, 2, 1).reshape(m, n * n).T
    return (left @ right).reshape(*xi.shape[:-2], m, m)


def numerical_rank(values: np.ndarray) -> np.ndarray:
    """Numerical rank of descending PSD spectra of shape (..., k): the count
    above TOL_RANK * values[..., 0]."""
    return (values > TOL_RANK * values[..., :1]).sum(axis=-1)


def finite(x, what: str, why: str, k=None):
    """x, real or complex (times 2**k, k from exact_scale), if finite, else
    OverflowError("<what> overflow: <why>"): the one float-range refusal.

    A float x (Python or numpy) is scaled by math.ldexp to a Python float
    and checked by math.isfinite; a Python-int k of 0 hands back x itself,
    only checked."""
    if isinstance(x, float):
        x = x if k is None else _ldexp(x, k)
        ok = math.isfinite(x)
    else:
        if k is not None:
            with np.errstate(over="ignore"):
                x = _ldexp(x, k)
        ok = np.isfinite(x).all()
    if not ok:
        raise OverflowError(f"{what} overflow: {why}")
    return x


def finite_spectrum(w: np.ndarray, k=None) -> np.ndarray:
    """finite of eigenvalues (times 2**k) from eigh or eigvalsh."""
    return finite(w, "spectrum", "an eigenvalue is beyond the float range", k)


def eigenpair_masks(w: np.ndarray):
    """D_lambda and D_R masks (..., n^2) over the eigenbasis directions of
    xi = V diag(w) V^dagger, the pairs (i, j) of pair_indices(n) twice, for
    Re and Im, then the diagonal (k, k): each is in D_lambda if |w_i - w_j|,
    in D_R if |w_i + w_j| is above TOL_RANK * max|w|, a cut doubled on the
    diagonal, where w_k + w_k = 2 w_k.  A non-finite w is refused by
    finite_spectrum; each spectrum is read at its exact scale."""
    w = exact_scale(finite_spectrum(w), axis=-1)[0]
    i, j, tol = _direction_pairs(w.shape[-1])
    cut = tol * abs(w).max(axis=-1, keepdims=True)
    wi, wj = w.take(i, axis=-1), w.take(j, axis=-1)
    return abs(wi - wj) > cut, abs(wi + wj) > cut


def structure_constants(basis: OrthogonalBasis) -> StructureConstants:
    """C and d for an orthogonal basis: the parts (T -+ T[b, a, c]) / 4 of
    T[a, b, c] = Tr(b_a b_b b_c).  For Hermitian b, Tr(XYZ)* = Tr(ZYX) =
    Tr(YXZ), so T[b, a, c] = conj(T[a, b, c]) and they are Im T / 2 and
    Re T / 2 (less the b_0 delta term).  Refuses n > MAX_CONSTANTS_N first."""
    n = basis.dim
    if n > MAX_CONSTANTS_N:
        raise DimensionError(f"dimension must be <= {MAX_CONSTANTS_N}")
    basis.verify()
    stack = basis.elements
    # T[a, b, c] = Tr(b_a b_b b_c) = Tr(b_c b_a b_b) by cyclicity.
    triple = triple_traces(stack, stack).transpose(1, 2, 0)
    c = triple.imag / 2.0
    d = triple.real / 2.0
    m = n * n
    d[np.arange(m), np.arange(m), 0] -= np.sqrt(2.0 / n)
    return StructureConstants(n, c, d)


def to_dual(a, basis: OrthogonalBasis) -> np.ndarray:
    """Coordinates y[..., mu] = Tr(b_mu A) / 2 of Hermitian A (..., n, n),
    each A read at its exact scale, or of a certified states.DensityState's
    op (entries at most 1), judged by its shape alone."""
    n, op, k = basis.dim, getattr(a, "op", a), None
    if np.shape(op)[-2:] != (n, n):
        raise DimensionError(
            f"expected an operator of shape ({n}, {n}), got {np.shape(op)}")
    if op is a:
        op, k = exact_scale(check_hermitian(a), axis=(-2, -1))
        k = k[..., 0]
    return finite(np.einsum("aij,...ji->...a", basis.elements, op).real / 2.0,
                  "coordinates", "a Tr(b_mu A) / 2 is beyond the float range",
                  k)


def from_dual(y: np.ndarray, basis: OrthogonalBasis) -> np.ndarray:
    """Hermitian sum_mu y[..., mu] b_mu (..., n, n) of y (..., n^2)."""
    y = real_array(y, np.shape(y)[:-1] + (basis.size,), "coordinates")
    return finite(np.einsum("...a,aij->...ij", y, basis.elements),
                  "coordinates", "sum_mu y[mu] b_mu has a non-finite entry")


def spectral_oracle(a: np.ndarray):
    """Eigenvalues (descending) and matching orthonormal eigenvector columns.

    This is the reference decomposition every other spectral claim in the
    package is tested against.  A is read at its exact scale.
    """
    a, k = exact_scale(check_hermitian(a))
    if a.ndim != 2:
        raise DimensionError(f"expected a single matrix, got shape {a.shape}")
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    return finite_spectrum(w[order], k), v[:, order]
