"""The realified Hilbert space: Kahler tensors, quadratic expectation
functions, their brackets, associated vector fields, the exact Hamiltonian
flow, and the projected gradient eigensolver.

A complex vector psi with components q_k + i p_k is carried around as the
pair of real arrays (q, p), and a tangent vector, such as a vector field's
value, as one float array (q, p) of shape (2n,).  The complex structure
acts as multiplication by i: (q, p) -> (-p, q).

Sign conventions: the Hermitian product is antilinear in its *first*
argument, g = Re<.,.> and w = Im<.,.>.  With that choice the compatibility
identity reads g(X, Y) = w(X, JY) (the commonly quoted g(X,Y) = w(JX,Y)
would require J to act as -i and then the connection form of the projective
module would give theta(J Delta) = -i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    DimensionError,
    check_hermitian,
    exact_scale,
    finite,
    finite_spectrum,
    real_array,
)

# A hamiltonian flow holds a few (T+1, n) complex sample arrays; at 1 M
# samples and n = 12 each is about 190 MB.  There, in a fresh process on a
# 2-vCPU VM, flow_hamiltonian with its phases from one table of FLOW_SLICE
# rows by angle addition took 0.2-0.4 s and peaked at 416 MB;
# `flow --mode hamiltonian` took 0.9-1.1 s and peaked at 630 MB, set by the
# e_A and norm samples.
MAX_FLOW_SAMPLES = 1_000_000
FLOW_SLICE = 2048


class ZeroVectorError(ValueError):
    """A nonzero vector was required."""


@dataclass(frozen=True)
class RealifiedState:
    """Real coordinates (q, p) of a complex vector; finite entries only."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        q = real_array(q, (q.size,), "q")  # of any length, but 1-d
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", real_array(self.p, q.shape, "p"))

    @property
    def dim(self) -> int:
        return self.q.shape[0]

    def to_complex(self) -> np.ndarray:
        return self.q + 1j * self.p

    @classmethod
    def from_complex(cls, z) -> "RealifiedState":
        z = np.asarray(z, dtype=complex)
        return cls(z.real.copy(), z.imag.copy())

    def _scaled(self):
        """basis.exact_scale of (q, p) as one array, zero only for psi = 0."""
        return exact_scale(np.concatenate([self.q, self.p]))

    def norm(self) -> float:
        """|psi|; OverflowError when it is beyond the float range."""
        x, k = self._scaled()
        return float(finite(math.sqrt(x.dot(x)), "norm",
                            "|psi| is beyond the float range", k))

    def unit(self) -> np.ndarray:
        """psi / |psi| as one real array (q, p), the same for psi * 2**e."""
        x, _ = self._scaled()
        n2 = x.dot(x)
        if not n2:
            raise ZeroVectorError("psi must be nonzero")
        return x / math.sqrt(n2)


def _complex(x: np.ndarray) -> np.ndarray:
    """The complex vector whose realification is x."""
    n = x.shape[0] // 2
    return x[:n] + 1j * x[n:]


@dataclass(frozen=True)
class KaehlerTriple:
    """Constant-coefficient J, g, w on the 2n real coordinates."""

    dim: int

    @property
    def j_matrix(self) -> np.ndarray:
        z, i = np.zeros((self.dim, self.dim)), np.eye(self.dim)
        return np.block([[z, -i], [i, z]])

    @property
    def g_matrix(self) -> np.ndarray:
        return np.eye(2 * self.dim)

    @property
    def omega_matrix(self) -> np.ndarray:
        return -self.j_matrix


def hermitian_split(psi1: RealifiedState, psi2: RealifiedState):
    """(Re, Im) of the Hermitian product <psi1, psi2>, antilinear in psi1,
    with both states read at their exact scales."""
    if psi1.dim != psi2.dim:
        raise DimensionError("state dimensions differ")
    (x1, k1), (x2, k2) = psi1._scaled(), psi2._scaled()
    (q1, p1), (q2, p2) = np.split(x1, 2), np.split(x2, 2)
    return tuple(float(finite(x, "product", "<psi1, psi2> is beyond the "
                              "float range", k1 + k2))
                 for x in (q1 @ q2 + p1 @ p2, q1 @ p2 - p1 @ q2))


def quadratic_function(a: np.ndarray, psi: RealifiedState) -> float:
    """f_A(psi) = <psi, A psi> / 2 (real for Hermitian A)."""
    a, ka = exact_scale(check_hermitian(a, psi.dim))
    x, k = psi._scaled()
    z = _complex(x)
    return float(finite((z.conj() @ (a @ z)).real / 2.0, "f_A",
                        "<psi, A psi> is beyond the float range", ka + 2 * k))


def _star(a: np.ndarray, b: np.ndarray, psi: RealifiedState):
    """(<A psi, B psi> * 2**-k, k), with A, B and psi read at exact scale."""
    (a, ka), (b, kb) = (exact_scale(check_hermitian(m, psi.dim))
                        for m in (a, b))
    x, k = psi._scaled()
    return np.vdot(a @ _complex(x), b @ _complex(x)), ka + kb + 2 * k


def star_product(a: np.ndarray, b: np.ndarray, psi: RealifiedState) -> complex:
    """(G + i Omega)(df_A, df_B) at psi: <A psi, B psi>, as grad f_A is A psi
    and g, w are Re, Im <.,.>.  Equals <psi, AB psi>."""
    s, k = _star(a, b, psi)
    return complex(finite(s, "star product", "<A psi, B psi> is beyond the "
                          "float range", k))


def bracket_g(a: np.ndarray, b: np.ndarray, psi: RealifiedState) -> float:
    """G(df_A, df_B) at psi; equals f_{AB+BA}(psi)."""
    s, k = _star(a, b, psi)
    return float(finite(s.real, "bracket g", "Re <A psi, B psi> is beyond "
                        "the float range", k))


def bracket_omega(a: np.ndarray, b: np.ndarray, psi: RealifiedState) -> float:
    """Omega(df_A, df_B) at psi; equals f_{-i[A,B]}(psi)."""
    s, k = _star(a, b, psi)
    return float(finite(s.imag, "bracket omega", "Im <A psi, B psi> is "
                        "beyond the float range", k))


def _vector_field(a: np.ndarray, psi: RealifiedState, turn: bool):
    """A psi, or i A psi if turn, realified, at the exact scales of A, psi."""
    a, ka = exact_scale(check_hermitian(a, psi.dim))
    x, k = psi._scaled()
    z = a @ _complex(x)
    z = 1j * z if turn else z
    return finite(np.concatenate([z.real, z.imag]), "vector field",
                  "A psi is beyond the float range", ka + k)


def gradient_vf(a: np.ndarray, psi: RealifiedState) -> np.ndarray:
    """Gradient vector field of f_A at psi: A psi realified, (q, p)."""
    return _vector_field(a, psi, False)


def hamiltonian_vf(a: np.ndarray, psi: RealifiedState) -> np.ndarray:
    """Hamiltonian vector field of f_A at psi: i A psi realified, (q, p)."""
    return _vector_field(a, psi, True)


def flow_hamiltonian(a: np.ndarray, psi0: RealifiedState, t_final: float,
                     step: float | None = None):
    """The Hamiltonian flow z(t) = exp(itA) z0 of f_A, sampled on a grid.

    The propagator is exact: with A = V diag(w) V^dagger, one eigh of A at
    its exact scale gives z(t) = V diag(exp(itw)) V^dagger z0, the same for
    A * 2**e at t * 2**-e.  So step (default 1e-3) only sets the sampling
    grid of n_steps = max(1, round(t_final / step)) equal intervals.  A grid
    of more than MAX_FLOW_SAMPLES samples is refused before anything is
    allocated.

    The phases come by angle addition, exp(i(t_s + t_j)w) =
    exp(i t_s w) exp(i t_j w), with t_s a slice start and t_j one of the
    first FLOW_SLICE sample times: one exp table of FLOW_SLICE rows and one
    exp row per slice start, not one exp per sample.  A grid of at most
    FLOW_SLICE samples is the direct exp(i t w) bit for bit; the later
    slices differ from it in their last bits, by about 2 eps * max|t w| at
    most.

    Returns (times, z): times of shape (T+1,) and the complex samples z of
    shape (T+1, n), endpoints included.
    """
    a, ka = exact_scale(check_hermitian(a, psi0.dim))
    step = 1e-3 if step is None else step
    if not (math.isfinite(t_final) and math.isfinite(step) and step > 0):
        raise ValueError("need a finite t_final and a finite step > 0")
    # n_steps + 1 samples; an inf ratio is refused here, not by int()
    if not t_final / step < MAX_FLOW_SAMPLES - 0.5:
        raise ValueError(f"t_final / step must give at most "
                         f"{MAX_FLOW_SAMPLES} samples")
    n_steps = max(1, int(round(t_final / step)))
    times = np.arange(n_steps + 1) * (t_final / n_steps)
    w, v = np.linalg.eigh(a)
    w = finite_spectrum(w, ka)
    finite(float(times[-1]) * float(abs(w).max()), "phase",
           "an angle t w is beyond the float range")
    table = np.exp(1j * np.outer(times[:FLOW_SLICE], w))
    heads = (np.exp(1j * np.outer(times[::FLOW_SLICE], w))
             * (v.conj().T @ psi0.to_complex()))
    phases = (table * heads[:, None, :]).reshape(-1, w.size)[:n_steps + 1]
    return times, phases @ v.T


def expectation_trace_samples(a: np.ndarray, psi0: RealifiedState,
                              t_final: float, step: float | None = None):
    """Hamiltonian flow with per-sample (t, e_A, norm) rows and the
    conservation drifts of both quantities.

    e_A is formed from psi0 and A at their exact scales, so it is the same
    for psi0 * 2**e and the norms are 2**e times; ZeroVectorError at 0.

    Returns (samples, norm_drift, e_drift) with samples of shape (T+1, 3).
    """
    psi0.unit()
    x, k = psi0._scaled()
    times, z = flow_hamiltonian(a, RealifiedState(*np.split(x, 2)), t_final,
                                step)
    a, ka = exact_scale(a)
    zc = z.conj()
    n2 = np.einsum("ti,ti->t", zc, z).real
    e = finite(np.einsum("ti,ti->t", zc, z @ a.T).real / n2, "e_A",
               "<psi, A psi> / <psi, psi> is beyond the float range", ka)
    norms = finite(np.sqrt(n2), "norm", "|psi| is beyond the float range", k)
    return (np.column_stack([times, e, norms]),
            float(np.abs(norms - norms[0]).max()), float(np.abs(e - e[0]).max()))


def _realified_operator(a: np.ndarray) -> np.ndarray:
    """The real symmetric (2n, 2n) matrix [[Re A, -Im A], [Im A, Re A]]:
    Hermitian A acting on the realified coordinates x = (q, p)."""
    return np.concatenate([np.concatenate([a.real, -a.imag], axis=1),
                           np.concatenate([a.imag, a.real], axis=1)])


def critical_point_eigensolve(a: np.ndarray, psi0: RealifiedState,
                              step: float | None = None,
                              max_iter: int = 100_000,
                              mode: str = "ascent",
                              trace: list | None = None):
    """Projected-gradient iteration on the Rayleigh quotient
    e_A(psi) = <psi, A psi> / <psi, psi>.

    Critical points of f_A are exactly the eigenvectors of A; the quotient at
    a critical point is the eigenvalue.  The iteration runs on the realified
    coordinates x = (q, p), where A acts as the real symmetric matrix
    [[Re A, -Im A], [Im A, Re A]] and Re<u, v> of complex vectors is the real
    dot product of the realified ones.
    The first step is the fixed step (default 0.1 / ||A||, with ||A|| the
    largest |eigenvalue| from eigvalsh); after it, the Barzilai-Borwein step
    <s, s> / |<s, r_k - r_(k-1)>| with s = x_k - x_(k-1) and the residual
    r = A x - e x, keeping the previous step when the denominator is 0, and
    taking the default step when s = 0.  Renormalizes every iteration; stops
    when ||A psi - e psi|| < 1e-9 ||A||.

    A is read at its exact scale, then at the scale 2**k of ||A||, a given
    step taken times 2**k: A * 2**e gives 2**e e and the same state.
    The start is psi0.unit(); a non-finite residual stops the iteration
    unconverged, with the last finite iterate and its eigenvalue.

    mode: "ascent" climbs toward the largest eigenvalue, "descent" toward the
    smallest.  If trace is a list, (iteration, e_A, residual) triples are
    appended to it.

    Returns (eigenvalue, state, converged).
    """
    a, ka = exact_scale(check_hermitian(a, psi0.dim))
    x = psi0.unit()
    if mode not in ("ascent", "descent"):
        raise ValueError(f"unknown mode {mode!r}")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    w = np.linalg.eigvalsh(a)  # of A * 2**-ka
    norm_a, k = exact_scale(finite_spectrum(max(-w[0], w[-1]), ka))
    a_hat = np.ldexp(_realified_operator(a), ka - k)  # norm_a in [0.5, 1) or 0
    default_step = 0.1 / max(norm_a, 1e-300)
    if step is None:
        step = default_step
    elif not (math.isfinite(step) and step > 0):
        raise ValueError("step must be finite and > 0")
    else:  # inf where step * ||A|| is beyond the float range
        with np.errstate(over="ignore"):
            step = float(np.ldexp(step, k))
    tol = 1e-9 * max(norm_a, 1e-300)
    sign = 1.0 if mode == "ascent" else -1.0
    n = psi0.dim
    converged = False
    e = 0.0
    for it in range(max_iter + 1):
        ax = a_hat.dot(x)
        e = float(x.dot(ax))
        r = ax - e * x
        resid = math.sqrt(r.dot(r))
        if trace is not None:
            trace.append((it, math.ldexp(e, k), math.ldexp(resid, k)))
        if not math.isfinite(resid):  # the last step left the float range
            x, e = x_prev, e_prev
            break
        if resid < tol:
            converged = True
            break
        if it == max_iter:
            break
        if it > 0:
            s = x - x_prev
            denom = abs(float(s.dot(r - r_prev)))
            if denom > 0.0:  # so s != 0
                step = float(s.dot(s)) / denom
            elif not np.count_nonzero(s):  # the last step did not move x
                step = default_step
        x_prev, r_prev, e_prev = x, r, e
        x = x + sign * step * r
        x = x / math.sqrt(x.dot(x))
    return (float(finite_spectrum(e, k)), RealifiedState(x[:n], x[n:]),
            converged)
