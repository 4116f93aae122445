"""The convex body of density states: positivity certification, rank
strata, GL actions on the cone and on normalized states, faces, convex
decompositions, the qutrit Bloch-vector algebra, and the tangency check
for curves inside a stratum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import (
    DimensionError,
    check_hermitian,
    eigenpair_masks,
    exact_scale,
    gellmann_basis,
    numerical_rank,
    structure_constants,
    to_dual,
)
from .projective import PureDensity

TOL_PSD = 1e-10


class SingularTransformError(ValueError):
    """GL action requested with a (numerically) singular matrix."""


class InvalidCurveError(ValueError):
    """Curve samples that are not all certified states of the same rank."""


@dataclass(frozen=True)
class Rejection:
    """Why a Hermitian matrix failed density-state certification."""

    violated: str
    detail: str = ""

    def __bool__(self):
        return False


@dataclass(frozen=True)
class DensityState:
    """A certified trace-one positive semidefinite operator."""

    op: np.ndarray
    rank: int
    spectrum: np.ndarray  # descending
    eigvecs: np.ndarray  # (n, n), column k belongs to spectrum[k]

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    def __bool__(self):
        return True


_MINOR_CONDITIONS = ("a >= 0", "b >= 0", "c >= 0", "|f|^2 <= bc",
                     "|g|^2 <= ca", "|h|^2 <= ab", "det >= 0")


def _qutrit_minor_conditions(a: np.ndarray, tol: float) -> np.ndarray:
    """The explicit 3x3 positivity inequalities (diagonal, 2x2 principal
    minors, determinant) over a stack of shape (..., 3, 3).  Returns a
    boolean array (..., 7), one column per entry of _MINOR_CONDITIONS."""
    d = a.diagonal(axis1=-2, axis2=-1).real  # a, b, c
    off = a[..., (2, 0, 1), (1, 2, 0)]  # f, g, h
    off2 = abs(off) ** 2
    det = (d.prod(axis=-1) + 2.0 * off.prod(axis=-1).real
           - (d * off2).sum(axis=-1))
    return np.concatenate([
        d >= -tol,
        off2 <= d[..., (1, 2, 0)] * d[..., (2, 0, 1)] + tol,
        det[..., None] >= -tol,
    ], axis=-1)


# The failed test for each Certification.code
_VIOLATIONS = np.array(["", "trace", "negative eigenvalue"])


@dataclass(frozen=True)
class Certification:
    """Per-matrix results of certify_densities over a stack (..., n, n);
    (...) may be (), one matrix, and then each field has no leading axes."""

    code: np.ndarray  # (...) int8: 0 certified, 1 trace, 2 negative eigenvalue
    rank: np.ndarray  # (...) int, 0 exactly where rejected
    spectrum: np.ndarray  # (..., n) descending
    # (..., n, n), column k belongs to spectrum[..., k]; None if vectors=False
    eigvecs: np.ndarray | None
    trace: np.ndarray  # (...) real part of the trace

    @property
    def violated(self) -> np.ndarray:
        """(...) str: "" if certified, else the failed test."""
        return _VIOLATIONS[self.code]

    @property
    def accepted(self) -> np.ndarray:
        return self.code == 0


def certify_densities(stack: np.ndarray, tol_psd: float = TOL_PSD,
                      vectors: bool = True) -> Certification:
    """Certify every matrix of a stack (..., n, n) as a density state; (...)
    may be (), one matrix, which is how certify_density calls it.

    A matrix is accepted iff Tr = 1 (within 1e-10) and its spectrum is
    >= -tol_psd; otherwise violated names the first failed test, "trace" or
    "negative eigenvalue".  Raises ValueError unless tol_psd is finite and
    >= 0, and HermiticityError if any matrix is not Hermitian.  For n=3 the
    explicit principal-minor inequalities are evaluated as a cross-check; a
    disagreement with the spectral criterion raises ArithmeticError, since
    the two are mathematically equivalent.

    An accepted matrix has Tr = 1, so a positive largest eigenvalue and a
    rank >= 1: accepted is rank > 0.  With vectors=False the spectrum comes
    from eigvalsh and eigvecs is None; the decisions are the same.
    """
    if not 0.0 <= tol_psd < np.inf:
        raise ValueError("tol_psd must be finite and >= 0")
    a = check_hermitian(stack)
    tr = np.trace(a, axis1=-2, axis2=-1).real
    if vectors:
        w, v = np.linalg.eigh(a)
        w, v = w[..., ::-1], v[..., ::-1]
    else:
        w, v = np.linalg.eigvalsh(a)[..., ::-1], None
    trace_ok = np.abs(tr - 1.0) <= 1e-10
    psd = w[..., -1] >= -tol_psd
    if a.shape[-1] == 3:
        # An eigenvalue margin comfortably outside the minor tolerance band
        # must agree with the minor criterion.  Only a trace-one matrix with
        # such a margin can clash, so the minors wait for one.
        decisive = trace_ok & (np.abs(w[..., -1]) > 100.0 * tol_psd)
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
    code = np.where(trace_ok, np.where(psd, 0, 2), 1).astype(np.int8)
    rank = numerical_rank(w) * (code == 0)
    return Certification(code, rank, w, v, tr)


def certify_density(a: np.ndarray, tol_psd: float = TOL_PSD):
    """Certify one Hermitian matrix as a density state: certify_densities
    at shape (n, n).

    Returns a DensityState on acceptance, a Rejection otherwise.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    cert = certify_densities(a, tol_psd)
    violated = str(cert.violated)
    if violated == "trace":
        return Rejection("trace", f"Tr = {float(cert.trace)!r}, expected 1")
    if violated:
        return Rejection(violated,
                         f"min eigenvalue = {float(cert.spectrum[-1])!r}")
    return DensityState(a, int(cert.rank), cert.spectrum, cert.eigvecs)


def require_density(a: np.ndarray) -> DensityState:
    out = certify_density(a)
    if isinstance(out, Rejection):
        raise ValueError(f"not a density state: {out.violated} ({out.detail})")
    return out


def gl_act_cone(t: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Action (T, xi) -> T xi T^dagger of the general linear group on the cone.

    Preserves the signature (number of positive/negative eigenvalues) of xi.
    Raises ValueError for a non-finite T, SingularTransformError for an
    ill-conditioned one.
    """
    t = np.asarray(t, dtype=complex)
    xi = check_hermitian(xi)
    if t.shape != xi.shape:
        raise DimensionError("transform and operand dimensions differ")
    if not np.isfinite(t).all():
        raise ValueError("transform entries must be finite")
    if np.linalg.cond(t) > 1e12:
        raise SingularTransformError("transform is singular or ill-conditioned")
    return t @ xi @ t.conj().T


def gl_act_states(t: np.ndarray, rho: DensityState) -> DensityState:
    """Normalized GL action (T, rho) -> T rho T^dagger / Tr(T rho T^dagger).

    Preserves the rank stratum.  T acts through basis.exact_scale, so T * 2**e
    gives the same result and the trace test reads relative to max|T_ij|^2.
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


def face_of(rho: DensityState) -> FaceDescriptor:
    k = rho.rank
    return FaceDescriptor(rho, rho.eigvecs[:, :k], k * k - 1)


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
    comps = tuple(PureDensity(np.outer(v, v.conj()))
                  for v in rho.eigvecs.T[:rho.rank])
    return ConvexDecomposition(rho.spectrum[:rho.rank], comps)


def qubit_from_bloch(y1, y2, y3) -> np.ndarray:
    """The 2x2 Hermitian trace-one matrix with ball coordinates (y1,y2,y3).

    The coordinates broadcast against each other; array arguments give a
    stack of shape (..., 2, 2).
    """
    y1, y2, y3 = np.asarray(y1), np.asarray(y2), np.asarray(y3)
    # Each entry is computed on its operands' own shape, then broadcast.
    shape = np.broadcast(y1, y2, y3).shape
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5 + y3
    out[..., 0, 1] = y2 + 1j * y1
    out[..., 1, 0] = y2 - 1j * y1
    out[..., 1, 1] = 0.5 - y3
    return out


def qubit_bloch_vector(rho: DensityState) -> np.ndarray:
    """Ball coordinates (y1, y2, y3) of a qubit state."""
    if rho.dim != 2:
        raise DimensionError("Bloch coordinates need a 2-level state")
    return to_dual(rho.op, gellmann_basis(2))[1:]


def bloch_decompose_along(rho: DensityState,
                          direction) -> ConvexDecomposition:
    """Decompose a qubit state along a line through the Bloch ball.

    The line through the state's ball point in the given direction meets the
    pure-state sphere of radius 1/2 in two points; they are the components
    and the weights are the unique convex coefficients.  A tangency (pure
    state, tangent direction) collapses to a single term.  d is scaled by
    basis.exact_scale before it is normalized, so d * 2**e gives the same line.
    """
    v = qubit_bloch_vector(rho)
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,) or not np.isfinite(d).all():
        raise DimensionError("direction must be a finite 3-vector")
    d = exact_scale(d)[0]
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

    def pure_at(t):
        return PureDensity(qubit_from_bloch(*(v + t * d)))

    if t_plus - t_minus < 1e-10:
        return ConvexDecomposition(np.array([1.0]), (pure_at(t_plus),))
    p = -t_minus / (t_plus - t_minus)
    return ConvexDecomposition(
        np.array([p, 1.0 - p]), (pure_at(t_plus), pure_at(t_minus))
    )


def qutrit_star(a, b) -> np.ndarray:
    """The symmetric product on 8-vectors: (a * b)_l = sqrt(3) d_ljk a_j b_k."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d8 = structure_constants(gellmann_basis(3)).d_traceless
    return np.sqrt(3.0) * np.einsum("ljk,j,k->l", d8, a, b)


def qutrit_pure_from_bloch(n_vec):
    """Build the rank-one qutrit state (1/3)(I + sqrt(3) n^a lambda_a).

    Accepts iff |n| = 1 and n * n = n under the d-symbol product, to 1e-8;
    returns a PureDensity, or a Rejection naming the failed condition.
    """
    n_vec = np.asarray(n_vec, dtype=float)
    if n_vec.shape != (8,):
        raise DimensionError("need an 8-component vector")
    nrm = np.linalg.norm(n_vec)
    if abs(nrm - 1.0) > 1e-8:
        return Rejection("norm", f"|n| = {float(nrm)!r}, expected 1")
    star = qutrit_star(n_vec, n_vec)
    err = np.abs(star - n_vec).max()
    if err > 1e-8:
        return Rejection("idempotency", f"max |n*n - n| = {float(err)!r}")
    traceless = np.einsum("a,aij->ij", n_vec, gellmann_basis(3).elements[1:])
    rho = (np.eye(3) + np.sqrt(3.0) * traceless) / 3.0
    return PureDensity(rho)


def weyl_reduce(rho: DensityState) -> np.ndarray:
    """Sorted (descending) spectrum: the unitary-orbit label of the state.

    Eigenvalues within tolerance below zero are clipped to zero.
    """
    return np.maximum(rho.spectrum, 0.0)


def orbit_dimension(rho: DensityState) -> int:
    """Dimension of the unitary (coadjoint) orbit through the state, the
    rank of the Poisson distribution there: n^2 - sum_k m_k^2 for
    eigenvalue multiplicities m_k, counted as the directions that
    basis.eigenpair_masks puts in D_lambda."""
    return int(eigenpair_masks(rho.spectrum)[0].sum())


@dataclass(frozen=True)
class TangencyReport:
    times: np.ndarray
    residuals: np.ndarray
    max_residual: float


def _stratum_residuals(v: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Relative residuals of Hermitian velocities x (..., n, n) against the
    rank-k stratum at states with eigenvectors v (..., n, n), image first:
    the closed form of tangency_check."""
    m = v.conj().swapaxes(-2, -1) @ x @ v
    along_p = np.trace(m[..., :k, :k], axis1=-2, axis2=-1).real ** 2 / k
    kernel = (np.abs(m[..., k:, k:]) ** 2).sum(axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(x, axis=(-2, -1)), np.sqrt(2.0))
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
    vel = (stack[2:] - stack[:-2]) / (2.0 * hs[0])
    residuals = _stratum_residuals(cert.eigvecs[1:-1], vel, k)
    return TangencyReport(ts[1:-1], residuals, float(residuals.max()))
