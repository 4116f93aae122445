"""The convex body of density states: positivity certification, rank
strata and pure states, GL actions on the cone and on normalized states,
faces, convex decompositions, the qutrit Bloch-vector algebra, and the
tangency check for curves inside a stratum.

A DensityState is the certified record at any leading shape: certify_densities
gives it for a stack, certify_density for one matrix, PureDensity at rank 1.
weyl_reduce, orbit_dimension, face_dimension, qubit_bloch_vector and to_dual
take stacks; face_of and the decompositions take one state, not a stack."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    DimensionError,
    check_hermitian,
    eigenpair_masks,
    exact_scale,
    finite,
    finite_spectrum,
    gellmann_basis,
    numerical_rank,
    real_array,
    structure_constants,
    to_dual,
)

TOL_PSD = 1e-10


class SingularTransformError(ValueError):
    """GL action requested with a (numerically) singular matrix."""


class InvalidCurveError(ValueError):
    """Curve samples that are not all certified states of the same rank."""


class NotExtremalError(ValueError):
    """Operation defined only on rank-one (pure) states."""


@dataclass(frozen=True)
class Rejection:
    """Why a Hermitian matrix failed density-state certification."""

    violated: str
    detail: str = ""

    def __bool__(self):
        return False


@dataclass(frozen=True)
class DensityState:
    """The certified record of a stack (..., n, n), at its leading shape."""

    op: np.ndarray  # (..., n, n)
    rank: np.ndarray  # (...) int, 0 exactly where rejected
    spectrum: np.ndarray  # (..., n) descending
    eigvecs: np.ndarray | None  # (..., n, n), column k for spectrum[..., k]
    code: np.ndarray  # (...) int8: 0 certified, 1 trace, 2 negative eigenvalue
    trace: np.ndarray  # (...) real part of the trace

    @property
    def dim(self) -> int:
        return self.op.shape[-1]

    @property
    def violated(self) -> np.ndarray:
        """(...) str: "" if certified, else the failed test."""
        return _VIOLATIONS[self.code]

    @property
    def accepted(self) -> np.ndarray:
        return self.code == 0

    @property
    def face_dimension(self) -> np.ndarray:
        """(...) rank^2 - 1: the face dimension, -1 (empty) where rejected."""
        return self.rank * self.rank - 1

    def __iter__(self):
        """The members along the first axis, not certified again."""
        if not np.ndim(self.rank):
            raise DimensionError("expected a stack of states, got shape ()")
        for k in range(len(self.rank)):
            member = object.__new__(type(self))
            DensityState.__init__(member, *(None if f is None else f[k]
                                            for f in vars(self).values()))
            yield member


_MINOR_CONDITIONS = ("a >= 0", "b >= 0", "c >= 0", "|f|^2 <= bc",
                     "|g|^2 <= ca", "|h|^2 <= ab", "det >= 0")


def _qutrit_minor_conditions(a: np.ndarray, tol: float) -> np.ndarray:
    """The explicit 3x3 positivity inequalities (diagonal, 2x2 principal
    minors, determinant) over a stack of shape (..., 3, 3).  Returns a
    boolean array (..., 7), one column per entry of _MINOR_CONDITIONS.
    Entries past about 1e154 overflow the squares and products to inf or
    NaN, which fail their test; such a matrix, of trace one, has an entry
    above 1 and is never positive semidefinite."""
    d = a.diagonal(axis1=-2, axis2=-1).real  # a, b, c
    off = a[..., (2, 0, 1), (1, 2, 0)]  # f, g, h
    with np.errstate(over="ignore", invalid="ignore"):
        off2 = abs(off) ** 2
        det = (d.prod(axis=-1) + 2.0 * off.prod(axis=-1).real
               - (d * off2).sum(axis=-1))
        return np.concatenate([
            d >= -tol,
            off2 <= d[..., (1, 2, 0)] * d[..., (2, 0, 1)] + tol,
            det[..., None] >= -tol,
        ], axis=-1)


# The failed test for each DensityState.code
_VIOLATIONS = np.array(["", "trace", "negative eigenvalue"])


def certify_densities(stack: np.ndarray, tol_psd: float = TOL_PSD,
                      vectors: bool = True) -> DensityState:
    """Certify every matrix of a stack (..., n, n) as a density state, in
    one DensityState; (...) may be (), as certify_density calls it.

    A matrix is accepted iff Tr = 1 (within 1e-10) and its spectrum is
    >= -tol_psd; otherwise violated names the first failed test, "trace" or
    "negative eigenvalue".  Raises ValueError unless tol_psd is finite and
    >= 0, HermiticityError for a matrix not Hermitian and OverflowError for
    an eigenvalue beyond the float range.  For n=3 the principal-minor
    inequalities are a cross-check; a disagreement with the spectral
    criterion raises ArithmeticError, since the two are equivalent.

    An accepted matrix has Tr = 1, so a positive largest eigenvalue and a
    rank >= 1: accepted is rank > 0.  With vectors=False the spectrum comes
    from eigvalsh and eigvecs is None; the decisions are the same.
    """
    if not 0.0 <= tol_psd < np.inf:
        raise ValueError("tol_psd must be finite and >= 0")
    a = check_hermitian(stack)
    tr = a.trace(axis1=-2, axis2=-1).real
    if vectors:
        w, v = np.linalg.eigh(a)
        w, v = finite_spectrum(w)[..., ::-1], v[..., ::-1]
    else:
        w, v = finite_spectrum(np.linalg.eigvalsh(a))[..., ::-1], None
    trace_ok = abs(tr - 1.0) <= 1e-10
    psd = w[..., -1] >= -tol_psd
    if a.shape[-1] == 3:
        # An eigenvalue margin comfortably outside the minor tolerance band
        # must agree with the minor criterion.  Only a trace-one matrix with
        # such a margin can clash, so the minors wait for one.
        decisive = trace_ok & (abs(w[..., -1]) > 100.0 * tol_psd)
        if decisive.any():
            minors = _qutrit_minor_conditions(a, 10.0 * tol_psd)
            clash = decisive & (psd != minors.all(axis=-1))
            if clash.any():
                i = tuple(np.argwhere(clash)[0])
                failed = ~minors[i]
                which = (_MINOR_CONDITIONS[np.argmax(failed)] if failed.any()
                         else "passed")
                raise ArithmeticError(
                    "spectral and principal-minor positivity criteria "
                    f"disagree: min eigenvalue {float(w[i][-1])}, minor "
                    f"check {which}"
                )
    accepted = trace_ok & psd
    code = (np.int8(1) + trace_ok) * ~accepted  # 1 + trace_ok if rejected
    return DensityState(a, numerical_rank(w) * accepted, w, v, code, tr)


def _rejection(rho: DensityState, i=()):
    """The Rejection of member i: its failed test, else "rank" unless it is
    of rank 1 (a pure state); None for a pure state."""
    if rho.code[i] == 1:
        return Rejection("trace", f"Tr = {float(rho.trace[i])!r}, expected 1")
    if rho.code[i]:
        return Rejection("negative eigenvalue",
                         f"min eigenvalue = {float(rho.spectrum[i][-1])!r}")
    if rho.rank[i] != 1:
        return Rejection("rank", f"rank {rho.rank[i]}, expected 1")
    return None


def certify_density(a: np.ndarray, tol_psd: float = TOL_PSD):
    """Certify one Hermitian matrix as a density state: certify_densities
    at shape (n, n).

    Returns the DensityState on acceptance, a Rejection otherwise.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    rho = certify_densities(a, tol_psd)
    return _rejection(rho) if rho.code else rho


def require_density(a: np.ndarray) -> DensityState:
    out = certify_density(a)
    if isinstance(out, Rejection):
        raise ValueError(f"not a density state: {out.violated} ({out.detail})")
    return out


class PureDensity(DensityState):
    """Pure states: a DensityState of rank 1 throughout, from a certified
    record or from operators (..., n, n) certified in one call; otherwise
    NotExtremalError names the first impure member's failed test or rank."""

    def __init__(self, op):
        rho = op if isinstance(op, DensityState) else certify_densities(op)
        impure = rho.rank != 1
        if impure.any():
            why = _rejection(rho, tuple(np.argwhere(impure)[0]))
            what = {"trace": "trace must be 1"}.get(why.violated, why.violated)
            raise NotExtremalError(f"not a pure state: {what} ({why.detail})")
        super().__init__(**vars(rho))


def gl_act_cone(t: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Action (T, xi) -> T xi T^dagger of the general linear group on the cone.

    Preserves the signature (number of positive/negative eigenvalues) of xi.
    Raises ValueError for a non-finite T, SingularTransformError for an
    ill-conditioned one; T is read at its exact scale.
    """
    t, k = exact_scale(np.asarray(t, dtype=complex))
    xi = check_hermitian(xi)
    if t.shape != xi.shape or t.ndim != 2:
        raise DimensionError("transform and operand dimensions differ: need "
                             f"one n x n matrix each, got {t.shape} and "
                             f"{xi.shape}")
    if not np.isfinite(t).all():
        raise ValueError("transform entries must be finite")
    if np.linalg.cond(t) > 1e12:
        raise SingularTransformError("transform is singular or ill-conditioned")
    return finite(t @ xi @ t.conj().T, "action",
                  "T xi T^dagger is beyond the float range", 2 * k)


def gl_act_states(t: np.ndarray, rho: DensityState) -> DensityState:
    """Normalized GL action (T, rho) -> T rho T^dagger / Tr(T rho T^dagger).

    Preserves the rank stratum.  T is read at its exact scale, so the trace
    test reads relative to max|T_ij|^2.
    """
    out = gl_act_cone(exact_scale(t)[0], rho.op)
    tr = np.trace(out).real
    if tr < 1e-14:
        raise SingularTransformError("image trace vanished")
    return require_density(out / tr)


@dataclass(frozen=True)
class FaceDescriptor:
    """The face of the convex body through a given state: the density
    states supported on the image of the base state."""

    base: DensityState
    image_basis: np.ndarray  # (n, k) orthonormal columns spanning Im rho
    dimension: int  # k^2 - 1

    def projector(self) -> np.ndarray:
        return self.image_basis @ self.image_basis.conj().T


def _one(rho: DensityState) -> DensityState:
    """rho if it is one state; DimensionError for a stacked record."""
    if np.ndim(rho.rank):
        raise DimensionError(f"expected one state, got shape {rho.rank.shape}")
    return rho


def face_of(rho: DensityState) -> FaceDescriptor:
    return FaceDescriptor(rho, _one(rho).eigvecs[:, :rho.rank],
                          rho.face_dimension)


def face_contains(face: FaceDescriptor, candidate: DensityState,
                  mode: str = "image") -> bool:
    """Membership of a state in a face, to 1e-9 in the largest entry.

    mode "image": candidate supported on the image of the base state,
    i.e. Ker(base) contained in Ker(candidate).  This is the predicate that
    satisfies the face axioms (any segment of states with an interior point
    in the face lies in it).

    mode "kernel": the literal reversed inclusion Ker(candidate) contained
    in Ker(base), exposed so tests can demonstrate it fails the axioms.
    """
    if mode == "image":
        p, x = face.projector(), candidate.op
    elif mode == "kernel":
        p, x = face_of(candidate).projector(), face.base.op
    else:
        raise ValueError(f"unknown mode {mode!r}")
    x = check_hermitian(x, len(p))
    return bool(np.abs((np.eye(len(p)) - p) @ x).max() <= 1e-9)


@dataclass(frozen=True)
class ConvexDecomposition:
    """rho = sum_i weights[i] * components[i] with extremal components."""

    weights: np.ndarray
    components: tuple  # PureDensity instances

    def reconstruct(self) -> np.ndarray:
        return sum(w * c.op for w, c in zip(self.weights, self.components))


def convex_decompose_spectral(rho: DensityState) -> ConvexDecomposition:
    """Eigen-decomposition of a state into orthogonal pure components."""
    v = _one(rho).eigvecs.T[:rho.rank]
    comps = PureDensity(v[:, :, None] * v.conj()[:, None, :])
    return ConvexDecomposition(rho.spectrum[:rho.rank], tuple(comps))


def qubit_from_bloch(y1, y2, y3) -> np.ndarray:
    """The 2x2 Hermitian trace-one matrix with ball coordinates (y1,y2,y3).

    The coordinates broadcast against each other; array arguments give a
    stack of shape (..., 2, 2).  NaN or inf is a ValueError.
    """
    y1, y2, y3 = (real_array(y, np.shape(y), "ball coordinates")
                  for y in (y1, y2, y3))
    # parts by assignment, broadcast; 0.0 +- y1 is +0 at y1 = -0 or +0
    out = np.zeros(np.broadcast(y1, y2, y3).shape + (2, 2), dtype=complex)
    out.real[..., 0, 0], out.real[..., 1, 1] = 0.5 + y3, 0.5 - y3
    out.real[..., 0, 1] = out.real[..., 1, 0] = y2
    out.imag[..., 0, 1], out.imag[..., 1, 0] = 0.0 + y1, 0.0 - y1
    return out


def qubit_bloch_vector(rho: DensityState) -> np.ndarray:
    """Ball coordinates (..., 3), (y1, y2, y3), of qubit states (...)."""
    if rho.dim != 2:
        raise DimensionError("Bloch coordinates need a 2-level state")
    return to_dual(rho, gellmann_basis(2))[..., 1:]


def bloch_decompose_along(rho: DensityState,
                          direction) -> ConvexDecomposition:
    """Decompose a qubit state along a line through the Bloch ball.

    The line through the state's ball point in the given direction meets the
    pure-state sphere of radius 1/2 in two points; they are the components
    and the weights are the unique convex coefficients.  A tangency (pure
    state, tangent direction) collapses to a single term.
    """
    v = qubit_bloch_vector(_one(rho))
    d = exact_scale(real_array(direction, (3,), "direction"))[0]
    if not d.any():
        raise ValueError("direction must be nonzero")
    d = d / np.linalg.norm(d)
    vd = float(v @ d)
    disc = vd * vd - float(v @ v) + 0.25
    if disc < -1e-12:
        raise ValueError("line misses the pure-state sphere")
    root = np.sqrt(max(disc, 0.0))
    t_plus = -vd + root
    t_minus = -vd - root
    if t_plus - t_minus < 1e-10:
        weights, t = np.array([1.0]), np.array([t_plus])
    else:
        p = -t_minus / (t_plus - t_minus)
        weights, t = np.array([p, 1.0 - p]), np.array([t_plus, t_minus])
    ends = qubit_from_bloch(*(v + t[:, None] * d).T)
    return ConvexDecomposition(weights, tuple(PureDensity(ends)))


def qutrit_star(a, b) -> np.ndarray:
    """Symmetric product on 8-vectors: (a * b)_l = sqrt(3) d_ljk a_j b_k."""
    (a, ka), (b, kb) = (exact_scale(real_array(x, (8,), name))
                        for x, name in ((a, "a"), (b, "b")))
    d8 = structure_constants(gellmann_basis(3)).d_traceless
    return finite(np.sqrt(3.0) * np.einsum("ljk,j,k->l", d8, a, b), "product",
                  "a sqrt(3) d_ljk a_j b_k is beyond the float range", ka + kb)


def qutrit_pure_from_bloch(n_vec):
    """Build the rank-one qutrit state (1/3)(I + sqrt(3) n^a lambda_a).

    Accepts iff |n| = 1 and n * n = n under the d-symbol product, to 1e-8,
    and the state is one PureDensity accepts; returns a PureDensity, or a
    Rejection naming the failed condition: "norm", "idempotency", or the
    certification's verdict ("rank" for a state not of rank one).
    """
    n_vec = real_array(n_vec, (8,), "n")
    x, k = exact_scale(n_vec)
    nrm = finite(np.linalg.norm(x), "norm", "|n| is beyond the float range", k)
    if abs(nrm - 1.0) > 1e-8:
        return Rejection("norm", f"|n| = {float(nrm)!r}, expected 1")
    star = qutrit_star(n_vec, n_vec)
    err = np.abs(star - n_vec).max()
    if err > 1e-8:
        return Rejection("idempotency", f"max |n*n - n| = {float(err)!r}")
    traceless = np.einsum("a,aij->ij", n_vec, gellmann_basis(3).elements[1:])
    rho = certify_density((np.eye(3) + np.sqrt(3.0) * traceless) / 3.0)
    why = _rejection(rho) if rho else rho
    return PureDensity(rho) if why is None else why


def weyl_reduce(rho: DensityState) -> np.ndarray:
    """Sorted (descending) spectra (..., n): the unitary-orbit labels.

    Eigenvalues within tolerance below zero are clipped to zero.
    """
    return np.maximum(rho.spectrum, 0.0)


def orbit_dimension(rho: DensityState) -> np.ndarray:
    """Dimensions (...) of the unitary (coadjoint) orbits through the
    states, the rank of the Poisson distribution there: n^2 - sum_k m_k^2
    for eigenvalue multiplicities m_k, counted as the directions that
    basis.eigenpair_masks puts in D_lambda."""
    return np.count_nonzero(eigenpair_masks(rho.spectrum)[0], axis=-1)


@dataclass(frozen=True)
class TangencyReport:
    times: np.ndarray
    residuals: np.ndarray
    max_residual: float


def _stratum_residuals(v: np.ndarray, x: np.ndarray, k: int,
                       floor: float) -> np.ndarray:
    """Relative residuals of Hermitian velocities x (..., n, n) against the
    rank-k stratum at states with eigenvectors v (..., n, n), image first:
    the closed form of tangency_check with the norm floor `floor` in place
    of sqrt(2).  The residual is homogeneous in x above the floor, so for
    x = X * 2**-e the floor sqrt(2) * 2**-e gives the residuals of X."""
    m = v.conj().swapaxes(-2, -1) @ x @ v
    along_p = np.trace(m[..., :k, :k], axis1=-2, axis2=-1).real ** 2 / k
    kernel = (np.abs(m[..., k:, k:]) ** 2).sum(axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(x, axis=(-2, -1)), floor)
    return np.sqrt(along_p + kernel) / scale


def tangency_check(samples, k: int) -> TangencyReport:
    """Verify that a sampled curve of rank-k states is tangent to its
    stratum.

    samples: list of (t, operator) with uniform t spacing, certified in one
    certify_densities call.  At a rank-k state with eigenvectors W = V[:, :k]
    (image) and U = V[:, k:] (kernel) the stratum's tangent space is
    {X Hermitian : Tr X = 0, U^dagger X U = 0}; its orthogonal complement is
    span{P} + {Q Y Q} (P, Q the image and kernel projectors).  So the
    relative residual of the central-difference velocity X at an interior
    sample (of its y-coordinates, over max(|y|, 1)), in Frobenius norms, is
        sqrt(Tr(W^dagger X W)^2 / k + ||U^dagger X U||^2) / max(||X||, sqrt 2).
    """
    if len(samples) < 3:
        raise InvalidCurveError("need at least 3 samples")
    ts = np.array([t for t, _ in samples], dtype=float)
    # A zero, NaN or infinite step fails the test: NaN and inf - inf
    # compare false.
    with np.errstate(invalid="ignore", over="ignore"):
        hs = np.diff(ts)
        uniform = (hs[0] != 0
                   and np.abs(hs - hs[0]).max() <= 1e-9 * abs(hs[0]))
    if not uniform:
        raise InvalidCurveError("samples must be uniformly spaced")
    ops = [np.asarray(op, dtype=complex) for _, op in samples]
    shapes = {op.shape for op in ops}
    if len(shapes) != 1 or ops[0].ndim != 2:
        raise InvalidCurveError(
            f"samples must be matrices of one shape, got {sorted(shapes)}")
    stack = np.stack(ops)
    cert = certify_densities(stack)
    bad = ~cert.accepted | (cert.rank != k)
    if bad.any():
        i = int(np.argmax(bad))
        t = samples[i][0]
        if cert.violated[i]:
            raise InvalidCurveError(
                f"sample at t={t} is not a state: {cert.violated[i]}")
        raise InvalidCurveError(
            f"sample at t={t} has rank {cert.rank[i]}, expected {k}")
    # X = d / (2 h) is read as d' / h' = X * 2**-e at exact scales; past
    # e = -1000 the floor stays sqrt(2) * 2**1000, so a residual of X below
    # 2**-999 reads below n * 2**-999 instead of its smaller exact value.
    d, kd = exact_scale(stack[2:] - stack[:-2])
    h, kh = exact_scale(hs[0])
    floor = math.ldexp(math.sqrt(2.0), min(kh + 1 - kd, 1000))
    residuals = _stratum_residuals(cert.eigvecs[1:-1], d / h, k, floor)
    return TangencyReport(ts[1:-1], residuals, float(residuals.max()))
