import ast
import warnings
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomstates import (
    DensityState,
    DimensionError,
    PureDensity,
    RealifiedState,
    Rejection,
    bloch_decompose_along,
    certify_densities,
    certify_density,
    convex_decompose_spectral,
    distributions_at,
    face_contains,
    face_of,
    from_dual,
    gellmann_basis,
    gl_act_cone,
    gl_act_states,
    lambda_at,
    orbit_dimension,
    qubit_bloch_vector,
    qubit_from_bloch,
    qutrit_pure_from_bloch,
    qutrit_star,
    require_density,
    riemann_jordan_at,
    spectral_oracle,
    tangency_check,
    to_dual,
    weyl_reduce,
)
from geomstates.basis import TOL_RANK
from geomstates import projective, states
from geomstates.states import (
    TOL_PSD,
    InvalidCurveError,
    NotExtremalError,
    SingularTransformError,
    _stratum_residuals,
)

from conftest import random_hermitian, random_unit, unitary_exp


def random_density(rng, n, rank=None):
    k = rank or n
    m = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    rho = m @ m.conj().T
    return require_density(rho / np.trace(rho).real)


def random_invertible(rng, n):
    while True:
        t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(t) < 1e6:
            return t


# -- certification ------------------------------------------------------

def test_maximally_mixed_accepted():
    for n in (2, 3):
        rho = require_density(np.eye(n) / n)
        assert rho.rank == n


def test_negative_eigenvalue_rejected():
    out = certify_density(np.diag([1.2, -0.2]).astype(complex))
    assert isinstance(out, Rejection)
    assert out.violated == "negative eigenvalue"


def test_trace_rejected():
    out = certify_density(np.eye(2))
    assert isinstance(out, Rejection) and out.violated == "trace"


def test_qutrit_boundary_determinant_zero():
    third = 1.0 / 3.0
    rho = np.full((3, 3), third, dtype=complex)
    out = certify_density(rho)
    assert not isinstance(out, Rejection)
    assert out.rank < 3
    # determinant of the explicit formula vanishes here
    det = third**3 + 2 * third**3 - 3 * third * third**2
    assert det == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("w, minors_pass, which", [
    ([0.5, 0.3, 0.2], False, "a >= 0"), ([1.2, 0.0, -0.2], True, "passed")])
def test_qutrit_criteria_disagreement_is_arithmetic_error(monkeypatch, w,
                                                         minors_pass, which):
    monkeypatch.setattr(states, "_qutrit_minor_conditions",
                        lambda a, tol: np.full(a.shape[:-2] + (7,),
                                               minors_pass))
    with pytest.raises(ArithmeticError, match=f"minor check {which}$"):
        certify_density(np.diag(w))
    # In a stack, a rank-deficient state (minimum eigenvalue 0, inside the
    # band where the criteria may differ) cannot clash; the error names the
    # decisive matrix's minimum eigenvalue.
    stack = np.stack([np.diag([0.5, 0.5, 0.0]), np.diag(w)])
    lam = float(np.linalg.eigvalsh(stack[1])[0])
    with pytest.raises(ArithmeticError,
                       match=f"min eigenvalue {lam}, minor check {which}$"):
        certify_densities(stack, vectors=False)


def test_qutrit_minors_wait_for_a_decisive_matrix(monkeypatch):
    """The minors are evaluated only for a stack holding a trace-one matrix
    whose minimum eigenvalue is outside 100 * tol_psd."""
    calls = []
    minors = states._qutrit_minor_conditions
    monkeypatch.setattr(states, "_qutrit_minor_conditions",
                        lambda a, tol: calls.append(len(a)) or minors(a, tol))
    # A rank-deficient state, a trace-one matrix whose minimum eigenvalue
    # -5e-9 is inside 100 * tol_psd = 1e-8, and a matrix of trace 2.8.
    undecided = np.stack([np.diag([0.5, 0.5, 0.0]),
                          np.diag([0.5, 0.5 + 5e-9, -5e-9]),
                          np.diag([2.0, 0.5, 0.3])])
    assert certify_densities(undecided).code.tolist() == [0, 2, 1]
    assert calls == []
    certify_densities(np.concatenate([undecided, [np.diag([0.5, 0.3, 0.2])]]))
    assert calls == [4]


@pytest.mark.parametrize("entry", [1e160, 1e300])
def test_qutrit_minors_of_huge_entries_agree_with_the_spectrum(entry):
    # Trace one with an entry above 1 is never PSD; the minors' squares
    # overflow to inf and fail their tests, with no warning.
    a = np.array([[0.34, entry, 0], [entry, 0.33, 0], [0, 0, 0.33]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = certify_density(a)
    assert isinstance(out, Rejection)
    assert out.violated == "negative eigenvalue"


def test_qutrit_minor_and_spectral_criteria_agree(rng):
    for _ in range(200):
        a = random_hermitian(rng, 3)
        a = a / np.trace(a).real if abs(np.trace(a).real) > 0.1 else a + np.eye(3)
        a = a / np.trace(a).real
        out = certify_density(a)  # raises if the two criteria disagree
        assert isinstance(out, (Rejection,)) or out.rank >= 1


def _sample_matrix(rng, n, kind, k):
    """A Hermitian matrix with a clear verdict: a trace-one state of rank
    min(k, n), the same state with its trace scaled off 1, a trace-one
    matrix with one eigenvalue at most -0.01, or ("degenerate") a trace-one
    state of rank min(k, n) whose nonzero eigenvalues are each c or 2c."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    u = np.linalg.qr(z)[0]
    k = min(k, n - 1) if kind == "negative" else min(k, n)
    w = np.zeros(n)
    w[:k] = (rng.integers(1, 3, size=k) if kind == "degenerate"
             else rng.uniform(0.05, 1.0, size=k))
    if kind == "negative":
        w[-1] = -rng.uniform(0.01, 0.3) * w.sum()
    w /= w.sum()
    if kind == "trace":
        w *= rng.choice([rng.uniform(0.3, 0.95), rng.uniform(1.05, 2.0)])
    a = (u * w) @ u.conj().T
    return (a + a.conj().T) / 2


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 4, 6]),
       specs=st.lists(st.tuples(st.sampled_from(["valid", "trace", "negative"]),
                                st.integers(1, 6)),
                      min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_certify_densities_matches_reference(n, specs, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([_sample_matrix(rng, n, kind, k) for kind, k in specs])
    cert = certify_densities(stack)
    assert cert.spectrum.shape == (len(specs), n)
    for i, ((kind, k), a) in enumerate(zip(specs, stack)):
        w = np.linalg.eigvalsh(a)
        tr = np.trace(a).real
        if abs(tr - 1.0) > 1e-10:
            want, rank = "trace", 0
        elif w[0] < -TOL_PSD:
            want, rank = "negative eigenvalue", 0
        else:
            want = ""
            rank = int(np.sum(w > TOL_RANK * max(w[-1], TOL_RANK)))
        assert want == {"valid": "", "trace": "trace",
                        "negative": "negative eigenvalue"}[kind]
        assert cert.violated[i] == want and cert.rank[i] == rank
        assert cert.accepted[i] == (want == "")
        if kind == "valid":
            assert rank == min(k, n)
        assert abs(cert.trace[i] - tr) < 1e-12
        assert np.abs(cert.spectrum[i] - w[::-1]).max() < 1e-12
        # a batch of one takes the same path
        single = certify_density(a)
        if want:
            assert isinstance(single, Rejection) and single.violated == want
        else:
            assert single.rank == rank
            assert np.array_equal(single.spectrum, cert.spectrum[i])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6),
       specs=st.lists(st.tuples(st.sampled_from(["valid", "trace", "negative"]),
                                st.integers(1, 6)),
                      min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_certify_densities_without_vectors_decides_the_same(n, specs, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([_sample_matrix(rng, n, kind, k) for kind, k in specs])
    full = certify_densities(stack)
    bare = certify_densities(stack, vectors=False)
    assert bare.eigvecs is None and full.eigvecs.shape == stack.shape
    assert np.array_equal(bare.violated, full.violated)
    assert np.array_equal(bare.rank, full.rank)
    assert np.array_equal(bare.accepted, full.accepted)
    assert np.array_equal(bare.trace, full.trace)
    assert np.abs(bare.spectrum - full.spectrum).max() < 1e-12
    for cert in (full, bare):
        assert np.array_equal(cert.accepted, cert.rank > 0)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12),
       specs=st.lists(st.tuples(st.sampled_from(["valid", "degenerate",
                                                 "trace", "negative"]),
                                st.integers(1, 12)),
                      min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_certify_density_is_the_stack_entry(n, specs, seed):
    """One matrix is the stack with no leading axes: the single call gives
    the stack entry's spectrum, eigenvectors and rank bit for bit, and a
    rejection quotes the stack's trace or minimum eigenvalue."""
    rng = np.random.default_rng(seed)
    stack = np.array([_sample_matrix(rng, n, kind, k) for kind, k in specs])
    cert = certify_densities(stack)
    for i, ((kind, k), a) in enumerate(zip(specs, stack)):
        single = certify_density(a)
        if kind == "trace":
            tr = float(cert.trace[i])
            assert single == Rejection("trace", f"Tr = {tr!r}, expected 1")
        elif kind == "negative":
            lam = float(cert.spectrum[i, -1])
            assert single == Rejection("negative eigenvalue",
                                       f"min eigenvalue = {lam!r}")
        else:
            assert single.rank == cert.rank[i] == min(k, n)
            assert single.spectrum.tobytes() == cert.spectrum[i].tobytes()
            assert single.eigvecs.tobytes() == cert.eigvecs[i].tobytes()


def test_certify_densities_keeps_leading_shape():
    stack = qubit_from_bloch(np.zeros((2, 3)), 0.0, np.array([0.0, 0.5, 0.6]))
    cert = certify_densities(stack)
    assert cert.rank.tolist() == [[2, 1, 0]] * 2
    assert cert.violated.tolist() == [["", "", "negative eigenvalue"]] * 2
    assert cert.spectrum.shape == (2, 3, 2)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-12])
def test_certify_refuses_a_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tol_psd"):
        certify_densities(np.eye(2)[None] / 2, tol_psd=tol)
    with pytest.raises(ValueError, match="tol_psd"):
        certify_density(np.eye(2) / 2, tol_psd=tol)
    assert certify_densities(np.eye(2)[None] / 2, tol_psd=0.0).accepted.all()


def test_certified_spectrum_matches_oracle_bitwise(rng):
    states = [random_density(rng, n, rank)
              for n in (2, 3, 4, 8) for rank in (1, n)]
    # degenerate spectra, where the eigenvector order within an eigenspace
    # is the only thing that fixes the columns
    states += [require_density(np.diag([0.4, 0.4, 0.2]).astype(complex)),
               require_density(np.eye(2) / 2), require_density(np.eye(3) / 3)]
    for rho in states:
        w, v = spectral_oracle(rho.op)
        assert np.array_equal(rho.spectrum, w)
        assert np.array_equal(rho.eigvecs, v)


@pytest.mark.parametrize("vectors", [True, False])
@pytest.mark.parametrize("n", [2, 3])
def test_certify_densities_of_an_empty_stack(n, vectors):
    cert = certify_densities(np.zeros((0, n, n)), vectors=vectors)
    assert cert.code.shape == cert.rank.shape == (0,)
    assert cert.spectrum.shape == (0, n)
    if vectors:
        assert cert.eigvecs.shape == (0, n, n)
    else:
        assert cert.eigvecs is None


def test_certify_density_rejects_stack():
    with pytest.raises(DimensionError):
        certify_density(np.stack([np.eye(2) / 2] * 2))


def test_certify_spectrum_beyond_float_range_is_overflow():
    # Trace one, and a top eigenvalue that LAPACK returns as inf: at tol_psd
    # 1.7e308 this was once accepted, with rank 0 and spectrum
    # (inf, -1e308, -1e308), alone and in a stack.
    a = np.full((3, 3), 1e308)
    np.fill_diagonal(a, 1.0 / 3.0)
    stack = np.stack([np.eye(3) / 3, a])
    for call in (lambda: certify_density(a, tol_psd=1.7e308),
                 lambda: certify_densities(stack, tol_psd=1.7e308),
                 lambda: certify_densities(stack, 1.7e308, vectors=False)):
        with pytest.raises(OverflowError, match="^spectrum overflow: "):
            call()


_KINDS = ["valid", "degenerate", "trace", "negative"]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), shape=st.sampled_from([(), (3,), (2, 2), (0,)]),
       seed=st.integers(0, 2**32 - 1))
def test_helpers_on_a_stack_are_the_helpers_on_each_member(n, shape, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([
        _sample_matrix(rng, n, rng.choice(_KINDS), rng.integers(1, n + 1))
        for _ in range(int(np.prod(shape)))]).reshape(shape + (n, n))
    basis = gellmann_basis(n)
    rho = certify_densities(stack)
    y = to_dual(rho, basis)
    assert np.array_equal(to_dual(stack, basis), y)
    helpers = [attrgetter(field) for field in (
        "op", "rank", "spectrum", "eigvecs", "code", "violated", "trace",
        "face_dimension")] + [weyl_reduce, orbit_dimension,
                              lambda r: to_dual(r, basis)]
    if n == 2:
        helpers.append(qubit_bloch_vector)
    on_stack = [f(rho) for f in helpers]
    xi = from_dual(y, basis)
    ranks = lambda_at(y, basis).rank(), riemann_jordan_at(y, basis).rank()
    for i in np.ndindex(shape):
        one = certify_densities(stack[i])
        for f, got in zip(helpers, on_stack):
            assert np.array_equal(np.asarray(got)[i], f(one))
        assert np.array_equal(xi[i], from_dual(y[i], basis))
        assert ranks[0][i] == lambda_at(y[i], basis).rank()
        assert ranks[1][i] == riemann_jordan_at(y[i], basis).rank()
        assert certify_density(stack[i]).violated == one.violated


def test_qubit_from_bloch_broadcasts():
    y1 = np.linspace(-0.5, 0.5, 4)[:, None]
    y3 = np.linspace(-0.3, 0.3, 3)
    stack = qubit_from_bloch(y1, 0.1, y3)
    assert stack.shape == (4, 3, 2, 2)
    for i, j in np.ndindex(4, 3):
        a, c = y1[i, 0], y3[j]
        want = np.array([[0.5 + c, 0.1 + 1j * a], [0.1 - 1j * a, 0.5 - c]])
        assert np.array_equal(stack[i, j], want)
    assert qubit_from_bloch(0.0, 0.0, 0.5).shape == (2, 2)


def test_qubit_from_bloch_takes_lists():
    y1, y2, y3 = [[-0.5], [0.25]], [0.1, -0.2, 0.3], 0.4
    want = qubit_from_bloch(np.array(y1), np.array(y2), np.array(y3))
    got = qubit_from_bloch(y1, y2, y3)
    assert got.shape == (2, 3, 2, 2)
    assert got.tobytes() == want.tobytes()


# A -0.0 coordinate is a +0.0 entry in from_dual's sum; the draws add +0.0.
_COORD = st.floats(-1e300, 1e300, allow_nan=False).map(lambda x: x + 0.0)


@settings(max_examples=200, deadline=None)
@given(y=st.tuples(_COORD, _COORD, _COORD))
def test_qubit_from_bloch_is_the_two_level_chart(y):
    # both encode _SIGMA's order: y1 on [[0, i], [-i, 0]], y2 on sigma_x
    want = from_dual([0.5, *y], gellmann_basis(2))
    assert qubit_from_bloch(*y).tobytes() == want.tobytes()


def test_ball_characterization_small_grid():
    for y1 in np.linspace(-0.4, 0.4, 7):
        for y3 in np.linspace(-0.6, 0.6, 9):
            inside = y1 * y1 + y3 * y3 <= 0.25
            out = certify_density(qubit_from_bloch(y1, 0.0, y3))
            assert (not isinstance(out, Rejection)) == inside


def test_pure_states_saturate_ball(rng):
    for _ in range(100):
        z = random_unit(rng, 2)
        rho = require_density(np.outer(z, z.conj()))
        y = qubit_bloch_vector(rho)
        assert abs(np.linalg.norm(y) - 0.5) < 1e-10
        z1, z2 = z
        assert abs(y[2] - 0.5 * (abs(z1) ** 2 - abs(z2) ** 2)) < 1e-12
        assert abs(y[0] - (z1 * z2.conjugate()).imag) < 1e-12
        assert abs(y[1] - (z1.conjugate() * z2).real) < 1e-12


def test_stratum_examples(rng):
    # The rank stratum of a state is its rank (1 = extremal/pure).
    assert require_density(np.diag([1.0, 0, 0]).astype(complex)).rank == 1
    assert require_density(np.eye(3) / 3).rank == 3
    assert require_density(np.diag([0.5, 0.5, 0]).astype(complex)).rank == 2


def test_stratification_totality(rng):
    for _ in range(50):
        rho = random_density(rng, 3, rank=int(rng.integers(1, 4)))
        assert 1 <= rho.rank <= 3


# -- GL actions ----------------------------------------------------------

def test_gl_cone_identity_and_scaling(rng):
    xi = random_hermitian(rng, 3)
    assert np.allclose(gl_act_cone(np.eye(3), xi), xi)
    assert np.allclose(gl_act_cone(2 * np.eye(3), xi), 4 * xi)


def test_gl_cone_preserves_signature(rng):
    for _ in range(100):
        xi = random_hermitian(rng, 3)
        t = random_invertible(rng, 3)
        w0, _ = spectral_oracle(xi)
        w1, _ = spectral_oracle(gl_act_cone(t, xi))
        assert np.sum(w0 > 1e-10) == np.sum(w1 > 1e-10)
        assert np.sum(w0 < -1e-10) == np.sum(w1 < -1e-10)


def test_gl_cone_singular_rejected(rng):
    with pytest.raises(SingularTransformError):
        gl_act_cone(np.diag([1.0, 0.0]).astype(complex) * (1 + 0j),
                    random_hermitian(rng, 2))


def test_gl_states_unitary_keeps_spectrum(rng):
    rho = random_density(rng, 3)
    u = unitary_exp(random_hermitian(rng, 3))
    out = gl_act_states(u, rho)
    assert np.abs(out.spectrum - rho.spectrum).max() < 1e-10


def test_gl_states_diagonal_example():
    rho = require_density(np.eye(2) / 2)
    out = gl_act_states(np.diag([2.0, 1.0]).astype(complex), rho)
    assert np.allclose(out.op, np.diag([0.8, 0.2]))
    assert out.rank == 2


def test_gl_states_preserves_rank(rng):
    for _ in range(100):
        n = int(rng.choice([2, 3]))
        rho = random_density(rng, n, rank=int(rng.integers(1, n + 1)))
        out = gl_act_states(random_invertible(rng, n), rho)
        assert out.rank == rho.rank


def _unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))[0]


def _hermitian(q, w):
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "degenerate", "rank-deficient"]))
def test_gl_action_keeps_signature_and_rank_across_n(n, seed, kind):
    # Sylvester's law of inertia.  T = U diag(s) V^dagger has singular
    # values s in [0.5, 2], so by Ostrowski's theorem each eigenvalue of
    # T xi T^dagger is the matching eigenvalue of xi times a factor in
    # [0.25, 4]: a nonzero one is between 0.125 and 8 in size, far above the
    # cut of 1e-9 times the largest (at most 8e-9), and a zero one moves by
    # rounding alone, about n eps.  The same holds for the density state.
    rng = np.random.default_rng(seed)
    if kind == "degenerate":  # two magnitudes, each repeated
        w = rng.choice([-2.0, -0.5, 0.5, 2.0], n)
    else:
        signs = [-1.0, 0.0, 1.0] if kind == "rank-deficient" else [-1.0, 1.0]
        w = rng.choice(signs, n) * rng.uniform(0.5, 2.0, n)
        w[0] = w[0] or 1.0  # xi is never 0
    q = _unitary(rng, n)
    t = (_unitary(rng, n) * rng.uniform(0.5, 2.0, n)) @ _unitary(rng, n)

    def signature(m):
        vals = np.linalg.eigvalsh(m)
        cut = TOL_RANK * np.abs(vals).max()
        return int((vals > cut).sum()), int((vals < -cut).sum())

    want = int((w > 0).sum()), int((w < 0).sum())
    xi = _hermitian(q, w)
    assert signature(xi) == signature(gl_act_cone(t, xi)) == want
    rho = require_density(_hermitian(q, np.abs(w) / np.abs(w).sum()))
    assert rho.rank == gl_act_states(t, rho).rank == np.count_nonzero(w)


# -- faces ----------------------------------------------------------------

def test_face_dimensions():
    pure = require_density(np.diag([1.0, 0, 0]).astype(complex))
    assert face_of(pure).base.face_dimension == 0
    mixed = require_density(np.eye(3) / 3)
    assert face_of(mixed).base.face_dimension == 8


def test_face_membership_example():
    face = face_of(require_density(np.diag([0.5, 0.5, 0.0]).astype(complex)))
    inside = require_density(np.diag([1.0, 0, 0]).astype(complex))
    outside = require_density(np.diag([0.0, 0, 1.0]).astype(complex))
    assert face_contains(face, inside)
    assert not face_contains(face, outside)


def test_face_transitivity(rng):
    for _ in range(100):
        rho = random_density(rng, 3, rank=2)
        face_rho = face_of(rho)
        a = random_density(rng, 3, rank=1)
        # project a's support into rho's image so membership holds
        p = face_rho.projector()
        op = p @ a.op @ p
        tr = np.trace(op).real
        if tr < 1e-6:
            continue
        a_in = require_density(op / tr)
        assert face_contains(face_rho, a_in)
        b = a_in  # face through a rank-1 state is the state itself
        assert face_contains(face_of(a_in), b)
        assert face_contains(face_rho, b)


def test_face_axiom_selects_image_predicate(rng, capsys):
    # a face must contain the whole segment whenever it contains an interior
    # point; the image-inclusion predicate satisfies this, the literal
    # kernel-inclusion reading does not
    rho = require_density(np.diag([0.5, 0.5, 0.0]).astype(complex))
    face = face_of(rho)
    a = require_density(np.diag([0.7, 0.3, 0.0]).astype(complex))
    b = require_density(np.diag([0.3, 0.7, 0.0]).astype(complex))
    mid = require_density((a.op + b.op) / 2)
    assert face_contains(face, mid)
    assert face_contains(face, a)
    assert face_contains(face, b)
    # a full-rank state is outside the boundary face; the kernel reading
    # would admit it, and segments through it would leave the face
    full = require_density(np.diag([0.4, 0.4, 0.2]).astype(complex))
    assert not face_contains(face, full)
    print("face predicate satisfying the segment axiom: image inclusion "
          "(Ker rho subset of Ker A)")


# -- decompositions --------------------------------------------------------

def test_spectral_decomposition_pure(rng):
    z = random_unit(rng, 3)
    rho = require_density(np.outer(z, z.conj()))
    dec = convex_decompose_spectral(rho)
    assert len(dec.weights) == 1
    assert dec.weights[0] == pytest.approx(1.0)


def test_spectral_decomposition_mixed_qubit():
    dec = convex_decompose_spectral(require_density(np.eye(2) / 2))
    assert np.allclose(sorted(dec.weights), [0.5, 0.5])
    overlap = np.trace(dec.components.op[0] @ dec.components.op[1]).real
    assert abs(overlap) < 1e-12


def test_spectral_decomposition_explicit_qubit():
    rho = require_density(qubit_from_bloch(0.0, 0.0, 0.25))
    dec = convex_decompose_spectral(rho)
    assert np.allclose(dec.weights, [0.75, 0.25])
    assert np.allclose(dec.components.op[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(dec.components.op[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_spectral_decomposition_reconstructs(rng):
    rho = random_density(rng, 3)
    dec = convex_decompose_spectral(rho)
    assert np.abs(dec.reconstruct() - rho.op).max() < 1e-10
    assert dec.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for c in dec.components.op:
        assert require_density(c).rank == 1


def _spectral_cases(rng, n):
    """A full-rank, a rank-deficient and a degenerate state at n."""
    u = np.linalg.qr(random_hermitian(rng, n)
                     + 1j * random_hermitian(rng, n))[0]
    w = rng.integers(1, 3, size=n).astype(float)  # eigenvalues 1 and 2
    m = (u * (w / w.sum())) @ u.conj().T
    return [random_density(rng, n), random_density(rng, n, rank=n // 2),
            require_density((m + m.conj().T) / 2)]


def test_reconstruct_adds_its_terms_left_to_right():
    # reconstruct() is w_0 c_0 + w_1 c_1 + ..., each term added to the sum
    # of those before it: the decompose command's residual depends on it.
    rng = np.random.default_rng(3)
    for n in range(2, 13):
        for _ in range(3):
            for rho in _spectral_cases(rng, n):
                dec = convex_decompose_spectral(rho)
                terms = [w * c for w, c in zip(dec.weights,
                                               dec.components.op)]
                want = terms[0]
                for term in terms[1:]:
                    want = want + term
                assert dec.reconstruct().tobytes() == want.tobytes()


def test_bloch_decompose_center(rng):
    rho = require_density(np.eye(2) / 2)
    d = rng.normal(size=3)
    dec = bloch_decompose_along(rho, d)
    assert np.allclose(dec.weights, [0.5, 0.5])
    y1, y2 = qubit_bloch_vector(dec.components)
    assert np.allclose(y1, -y2, atol=1e-12)
    assert abs(np.linalg.norm(y1) - 0.5) < 1e-12


def test_bloch_decompose_explicit():
    rho = require_density(qubit_from_bloch(0.0, 0.0, 0.25))
    dec = bloch_decompose_along(rho, [0.0, 0.0, 1.0])
    assert np.allclose(dec.weights, [0.75, 0.25])
    assert np.allclose(dec.components.op[0], np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(dec.components.op[1], np.diag([0.0, 1.0]), atol=1e-12)


def test_bloch_decompose_tangent_single_term():
    rho = require_density(np.diag([1.0, 0.0]).astype(complex))
    dec = bloch_decompose_along(rho, [1.0, 0.0, 0.0])  # tangent at the pole
    assert len(dec.weights) == 1
    assert np.allclose(dec.reconstruct(), rho.op, atol=1e-8)


def test_bloch_decompose_reconstructs(rng):
    for _ in range(20):
        y = rng.normal(size=3)
        y = y / np.linalg.norm(y) * rng.uniform(0, 0.49)
        rho = require_density(qubit_from_bloch(*y))
        dec = bloch_decompose_along(rho, rng.normal(size=3))
        assert np.abs(dec.reconstruct() - rho.op).max() < 1e-10


def test_bloch_decompose_invalid_inputs(rng):
    rho = require_density(np.eye(2) / 2)
    with pytest.raises(ValueError):
        bloch_decompose_along(rho, [0.0, 0.0, 0.0])
    with pytest.raises(DimensionError):
        bloch_decompose_along(require_density(np.eye(3) / 3), [1, 0, 0])


@pytest.mark.parametrize("decompose, op", [
    (convex_decompose_spectral, np.diag([0.5, 0.3, 0.2])),
    (lambda rho: bloch_decompose_along(rho, [0.0, 0.0, 1.0]),
     np.diag([0.75, 0.25]))])
def test_decompositions_certify_their_components_in_one_stack(
        monkeypatch, decompose, op):
    rho, calls = require_density(op), []
    certify = states.certify_densities
    monkeypatch.setattr(states, "certify_densities", lambda a, *tol: (
        calls.append(a.shape) or certify(a, *tol)))
    dec = decompose(rho)
    assert type(dec.components) is PureDensity
    assert dec.components.op.shape == (len(op),) + op.shape
    assert calls == [dec.components.op.shape]


# -- pure states: the certified states of rank one -------------------------

def _pure_verdict(op):
    """True if PureDensity accepts op, else NotExtremalError's text."""
    try:
        PureDensity(op)
    except NotExtremalError as exc:
        return str(exc)
    return True


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["rank", "trace", "psd"]),
       f=st.floats(0.5, 2.0), sign=st.sampled_from([-1.0, 1.0]))
def test_pure_density_is_a_certified_state_of_rank_one(n, seed, kind, f,
                                                       sign):
    # Each draw sits at 0.5x to 2x of one of certify_density's cuts: a second
    # eigenvalue at the rank cut TOL_RANK * w_1, a trace off by 1e-10, or a
    # smallest eigenvalue at -TOL_PSD.
    rng = np.random.default_rng(seed)
    w = np.zeros(n)
    w[0], scale = 1.0, 1.0
    if kind == "rank":
        w[1] = f * TOL_RANK
        w /= w.sum()
    elif kind == "trace":
        scale = 1.0 + sign * f * 1e-10
    else:
        w[0], w[-1] = 1.0 + f * TOL_PSD, -f * TOL_PSD
    u = np.linalg.qr(rng.normal(size=(n, n))
                     + 1j * rng.normal(size=(n, n)))[0]
    op = scale * (u * w) @ u.conj().T
    op = (op + op.conj().T) / 2
    rho = certify_density(op)
    certified = isinstance(rho, DensityState) and rho.rank == 1
    verdict = _pure_verdict(op)
    assert (verdict is True) == certified
    if not certified:
        expected = {"trace": "trace must be 1", "psd": "negative eigenvalue",
                    "rank": "rank (rank 2, expected 1)"}[kind]
        assert verdict.startswith(f"not a pure state: {expected}")


def test_pure_density_accepts_what_certification_finds_rank_one():
    # The second eigenvalue 5e-10 is below the rank cut 1e-9 * w_1; the
    # idempotency test |P^2 - P| <= 1e-10 once refused this state.
    op = np.diag([1 - 5e-10, 5e-10])
    assert certify_density(op).rank == 1
    assert np.array_equal(PureDensity(op).op, op)


def test_pure_density_of_a_stack():
    # One certify_densities call: each member is the PureDensity of its
    # matrix, bit for bit; the first member not of rank one is named, and
    # what is not a matrix is refused.
    ops = np.stack([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)])
    pure = PureDensity(ops)
    assert pure.rank.tolist() == [1, 1]
    assert type(pure) is PureDensity
    for k, op in enumerate(ops):
        want = PureDensity(op)
        for field in ("op", "rank", "spectrum", "eigvecs", "code", "trace"):
            assert np.array_equal(getattr(pure, field)[k],
                                  getattr(want, field))
    with pytest.raises(NotExtremalError, match=r"^not a pure state: rank "
                       r"\(rank 2, expected 1\)$"):
        PureDensity(np.stack([ops[0], np.eye(2) / 2]))
    with pytest.raises(DimensionError, match="expected a square matrix"):
        PureDensity(np.array([1.0, 0.0]))


@pytest.mark.parametrize("op, message", [
    (np.diag([2.0, 0.0]), "trace must be 1 (Tr = 2.0, expected 1)"),
    (np.diag([1.5, -0.5]),
     "negative eigenvalue (min eigenvalue = -0.5)"),
    (np.eye(3) / 3, "rank (rank 3, expected 1)"),
])
def test_pure_density_names_the_failed_test(op, message):
    assert _pure_verdict(op) == f"not a pure state: {message}"


def test_pure_density_is_one_class_for_projective_and_states():
    assert projective.PureDensity is states.PureDensity


def test_states_sits_below_the_ray_space():
    # states certifies pure states itself: it imports neither the ray space
    # nor the realified Hilbert space.
    tree = ast.parse(Path(states.__file__).read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert not imported & {"projective", "realified"}


# -- a pure state is the DensityState it was certified as ------------------

def _pure_states_built_by_the_library(rng, n):
    """The momentum map's image at n, the spectral components of a mixed
    state at n, and the Bloch-line components of a qubit state: records of
    shape (), (k,) and (k,)."""
    psi = RealifiedState(*rng.normal(size=(2, n)))
    y = rng.normal(size=3)
    qubit = require_density(qubit_from_bloch(
        *(y / np.linalg.norm(y) * rng.uniform(0.0, 0.49))))
    return [projective.momentum_map(psi),
            convex_decompose_spectral(random_density(rng, n)).components,
            bloch_decompose_along(qubit, rng.normal(size=3)).components]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_pure_states_are_the_density_states_they_certify_as(n, seed):
    for record in _pure_states_built_by_the_library(
            np.random.default_rng(seed), n):
        assert type(record) is PureDensity
        assert (record.rank == 1).all()
        for i in np.ndindex(record.rank.shape):
            _check_one_pure_state(record, i)


def _check_one_pure_state(record, i):
    """Member i of a PureDensity is the state certify_density finds."""
    rho = PureDensity(record.op[i])
    want = certify_density(rho.op)
    assert type(rho) is PureDensity and rho.rank == want.rank == 1
    for field in ("op", "spectrum", "eigvecs"):
        for got in (getattr(record, field)[i], getattr(rho, field)):
            assert got.tobytes() == getattr(want, field).tobytes()
    # the rank-one stratum: a point face, an orbit CP^(m-1) of real
    # dimension 2m - 2, and a single extremal component
    m = rho.dim
    assert face_of(rho).image_basis.shape == (m, 1)
    assert orbit_dimension(rho) == 2 * m - 2
    assert np.array_equal(weyl_reduce(rho), np.maximum(rho.spectrum, 0.0))
    dec = convex_decompose_spectral(rho)
    assert dec.weights.tolist() == [rho.spectrum[0]]
    assert dec.components.op.shape == (1, m, m)


_PURE_DIAGONAL = [
    pytest.param(lambda: PureDensity(np.diag([0.0, 1.0, 0.0])),
                 id="constructed"),
    pytest.param(lambda: projective.momentum_map(
        RealifiedState([0.0, 1.0, 0.0], [0.0, 0.0, 0.0])), id="momentum-map"),
]


@pytest.mark.parametrize("pure", _PURE_DIAGONAL)
def test_face_of_a_pure_state(pure):
    face = face_of(pure())
    assert face.base.face_dimension == 0
    assert np.array_equal(face.projector(), np.diag([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("pure", _PURE_DIAGONAL)
def test_orbit_dimension_of_a_pure_state(pure):
    assert orbit_dimension(pure()) == 4


@pytest.mark.parametrize("pure", _PURE_DIAGONAL)
def test_weyl_reduce_of_a_pure_state(pure):
    assert weyl_reduce(pure()).tolist() == [1.0, 0.0, 0.0]


@pytest.mark.parametrize("pure", _PURE_DIAGONAL)
def test_convex_decompose_spectral_of_a_pure_state(pure):
    rho = pure()
    dec = convex_decompose_spectral(rho)
    assert dec.weights.tolist() == [1.0]
    assert np.array_equal(dec.components.op, rho.op[None])


@pytest.mark.parametrize("helper", [
    face_of, convex_decompose_spectral,
    lambda rho: bloch_decompose_along(rho, [0.0, 0.0, 1.0])],
    ids=["face_of", "convex_decompose_spectral", "bloch_decompose_along"])
def test_one_state_helpers_refuse_a_stack(helper):
    # each member alone runs; the record of both is refused in the
    # library's words, not with numpy's TypeError
    ops = np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])])
    stack = certify_densities(ops)
    for op in ops:
        helper(certify_density(op))
    with pytest.raises(DimensionError,
                       match=r"^expected one state, got shape \(2,\)$"):
        helper(stack)


# -- qutrit Bloch algebra ---------------------------------------------------

def qutrit_n_vector(z):
    rho = np.outer(z, z.conj())
    y = to_dual(rho, gellmann_basis(3))
    return np.sqrt(3.0) * y[1:]


def test_qutrit_pure_from_basis_vector():
    n = qutrit_n_vector(np.array([1.0, 0, 0], dtype=complex))
    out = qutrit_pure_from_bloch(n)
    assert not isinstance(out, Rejection)
    assert np.allclose(out.op, np.diag([1.0, 0, 0]), atol=1e-12)


def test_qutrit_rejects_non_idempotent():
    n = qutrit_n_vector(np.array([1.0, 0, 0], dtype=complex))
    bad = n.copy()
    bad[7] = -bad[7]  # stays unit norm, breaks the star condition
    out = qutrit_pure_from_bloch(bad)
    assert isinstance(out, Rejection) and out.violated == "idempotency"


def test_qutrit_rejects_bad_norm():
    out = qutrit_pure_from_bloch(np.ones(8))
    assert isinstance(out, Rejection) and out.violated == "norm"
    assert out.detail == "|n| = 2.8284271247461903, expected 1"


@pytest.mark.parametrize("eps", [1e-9, 8e-9])
def test_qutrit_near_pure_is_certified_or_rejected(eps):
    # Unit n about eps from the pure direction of |0>: most pass the 1e-8
    # norm and n * n = n tests, yet the state built from them is not of
    # rank one.  They once raised NotExtremalError out of the function.
    rng = np.random.default_rng(2026)
    n0 = qutrit_n_vector(np.array([1.0, 0, 0], dtype=complex))
    verdicts = set()
    for _ in range(100):
        d = rng.normal(size=8)
        n = n0 + eps * d / np.linalg.norm(d)
        out = qutrit_pure_from_bloch(n / np.linalg.norm(n))
        if isinstance(out, Rejection):
            verdicts.add(out.violated)
        else:
            assert certify_density(out.op).rank == 1
    assert "negative eigenvalue" in verdicts


@pytest.mark.parametrize("delta, rank", [(2e-9, 3), (4e-10, 1)])
def test_qutrit_names_the_rank_of_a_near_pure_state(delta, rank):
    w = np.array([1 - 2 * delta, delta, delta])
    n = np.sqrt(3.0) * to_dual(np.diag(w).astype(complex),
                               gellmann_basis(3))[1:]
    out = qutrit_pure_from_bloch(n)
    if rank == 1:
        assert isinstance(out, PureDensity)
    else:
        assert out == Rejection("rank", f"rank {rank}, expected 1")


def test_qutrit_pure_from_bloch_certifies_once(monkeypatch):
    calls = []
    certify = states.certify_density
    monkeypatch.setattr(states, "certify_density",
                        lambda a: calls.append(1) or certify(a))
    n = qutrit_n_vector(np.array([1.0, 0, 0], dtype=complex))
    assert isinstance(qutrit_pure_from_bloch(n), PureDensity)
    assert len(calls) == 1


def test_qutrit_round_trip(rng):
    for _ in range(100):
        z = random_unit(rng, 3)
        n = qutrit_n_vector(z)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-8
        assert np.abs(qutrit_star(n, n) - n).max() < 1e-8
        out = qutrit_pure_from_bloch(n)
        assert not isinstance(out, Rejection)
        assert np.abs(out.op - np.outer(z, z.conj())).max() < 1e-8


# -- Weyl reduction ----------------------------------------------------------

def test_weyl_examples(rng):
    assert np.allclose(weyl_reduce(require_density(np.eye(3) / 3)),
                       [1 / 3] * 3)
    z = random_unit(rng, 3)
    pure = require_density(np.outer(z, z.conj()))
    assert np.allclose(weyl_reduce(pure), [1.0, 0.0, 0.0], atol=1e-10)


def test_weyl_unitary_invariance(rng):
    rho = random_density(rng, 3)
    u = unitary_exp(random_hermitian(rng, 3))
    out = gl_act_states(u, rho)
    assert np.abs(weyl_reduce(out) - weyl_reduce(rho)).max() < 1e-10


# -- orbit dimensions ----------------------------------------------------------

def test_orbit_dimensions_qutrit(rng):
    assert orbit_dimension(require_density(np.eye(3) / 3)) == 0
    generic = require_density(np.diag([0.5, 0.3, 0.2]).astype(complex))
    assert orbit_dimension(generic) == 6
    z = random_unit(rng, 3)
    pure = require_density(np.outer(z, z.conj()))
    assert orbit_dimension(pure) == 4
    degenerate_pair = require_density(np.diag([0.4, 0.4, 0.2]).astype(complex))
    assert orbit_dimension(degenerate_pair) == 4


# -- tangency -------------------------------------------------------------------

def traceless_d1_reference(rho):
    """Orthonormal y-coordinate basis of the tangent space of the rank
    stratum at rho, built from the distributions: D_1 (the GL-orbit
    directions) met with y_0 = 0 where the principal angle is 0."""
    basis = gellmann_basis(rho.dim)
    b1 = distributions_at(to_dual(rho.op, basis), basis).basis_1
    w, s, _ = np.linalg.svd(b1.T @ np.eye(b1.shape[0])[:, 1:])
    return b1 @ w[:, :s.size][:, s > 1.0 - 1e-8]


def reference_residual(rho, x):
    """|y - proj(y)| / max(|y|, 1) for the y-coordinates of x, projected
    onto traceless_d1_reference(rho)."""
    tan = traceless_d1_reference(rho)
    y = to_dual(x, gellmann_basis(rho.dim))
    return np.linalg.norm(y - tan @ (tan.T @ y)) / max(np.linalg.norm(y), 1.0)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_tangency_residual_matches_traceless_d1_reference(rng, n):
    for k in range(1, n + 1):
        rho = random_density(rng, n, rank=k)
        # the rank-k stratum of trace-one states has dimension 2nk - k^2 - 1
        assert traceless_d1_reference(rho).shape == (n * n,
                                                     2 * n * k - k * k - 1)
        for _ in range(3):
            x = random_hermitian(rng, n)  # has a trace and a kernel block
            want = reference_residual(rho, x)
            assert want > 1e-8
            got = _stratum_residuals(rho.eigvecs, x, k, np.sqrt(2.0))
            assert abs(got - want) < 1e-12
            # three rank-k states whose chord is off the stratum at rho
            before, after = (random_density(rng, n, rank=k).op
                             for _ in range(2))
            rep = tangency_check([(0.0, before), (0.5, rho.op),
                                  (1.0, after)], k)
            want = reference_residual(rho, after - before)
            assert abs(rep.max_residual - want) < 1e-12


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 8), data=st.data(), seed=st.integers(0, 2**32 - 1),
       eps=st.floats(1e-3, 1.0))
def test_tangency_of_gl_orbit_and_kernel_block_residual(n, data, seed, eps):
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n, rank=k)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    g /= np.linalg.norm(g, 2)
    samples = []
    for t in np.arange(-2, 3) * 1e-4:
        w, v = np.linalg.eig(t * g)
        tm = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        out = tm @ rho.op @ tm.conj().T
        out = (out + out.conj().T) / 2
        samples.append((t, out / np.trace(out).real))
    assert tangency_check(samples, k).max_residual < 1e-6
    # the curve's velocity at rho, plus a kernel-block term eps U H U^dagger
    vel = g @ rho.op + rho.op @ g.conj().T
    vel -= np.trace(vel).real * rho.op
    u = rho.eigvecs[:, k:]
    h = random_hermitian(rng, n - k)
    x = vel + eps * u @ h @ u.conj().T
    assert _stratum_residuals(rho.eigvecs, vel, k, np.sqrt(2.0)) < 1e-12
    want = eps * np.linalg.norm(h) / max(np.linalg.norm(x), np.sqrt(2.0))
    got = _stratum_residuals(rho.eigvecs, x, k, np.sqrt(2.0))
    assert abs(got - want) <= 1e-12


def unitary_orbit_curve(h, rho0, ts):
    return [(t, unitary_exp(h, -t) @ rho0 @ unitary_exp(h, -t).conj().T)
            for t in ts]


def test_tangency_constant_curve(rng):
    rho = random_density(rng, 3, rank=2)
    samples = [(t, rho.op) for t in np.linspace(0, 1, 5)]
    rep = tangency_check(samples, 2)
    assert rep.max_residual < 1e-12


def test_tangency_unitary_orbit_rank1(rng):
    h = random_hermitian(rng, 2)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    rep = tangency_check(
        unitary_orbit_curve(h, rho0, np.linspace(0, 0.5, 11)), 1)
    assert rep.max_residual < 1e-6


def test_tangency_gl_orbit_rank2(rng):
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho0 = np.diag([0.6, 0.4, 0.0]).astype(complex)
    samples = []
    for t in np.linspace(0, 0.005, 11):
        w, v = np.linalg.eig(t * x)
        tm = v @ np.diag(np.exp(w)) @ np.linalg.inv(v)
        out = tm @ rho0 @ tm.conj().T
        out = (out + out.conj().T) / 2
        samples.append((t, out / np.trace(out).real))
    rep = tangency_check(samples, 2)
    assert rep.max_residual < 1e-6


def test_tangency_accepts_a_step_above_half_the_float_range():
    # 2 * 1.7e308 overflows; the central difference never forms it
    pure = np.diag([1.0, 0.0])
    rep = tangency_check([(-1.7e308, pure), (0.0, pure), (1.7e308, pure)], 1)
    assert rep.max_residual == 0.0


@pytest.mark.parametrize("times", [(0.0, 5e-324, 1e-323),
                                   (0.0, 1e-300, 2e-300)])
def test_tangency_tiny_step_gives_the_scale_free_residual(times):
    # X = diag(-1, 1) / (2 h) is beyond the float range at h = 5e-324, and
    # its squares at h = 1e-300; above |X| = sqrt 2 the residual of X is
    # that of diag(-1, 1), 1 for k = 1
    pure, other = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    rep = tangency_check(list(zip(times, (pure, pure, other))), 1)
    assert rep.max_residual == 1.0


def test_tangency_huge_step_over_a_short_chord_has_a_tiny_residual():
    # X is about 1e-312: sqrt(2) over X's scale, 2**1037, is beyond the
    # float range, and the residual is still below 1e-300
    def ray(a):
        v = np.array([np.cos(a), np.sin(a)])
        return np.outer(v, v)

    rep = tangency_check([(0.0, ray(0.0)), (1e300, ray(1e-12)),
                          (2e300, ray(2e-12))], 1)
    assert 0.0 <= rep.max_residual < 1e-300


def test_tangency_rejects_mixed_rank(rng):
    samples = [
        (0.0, np.diag([1.0, 0.0]).astype(complex)),
        (1.0, np.diag([0.5, 0.5]).astype(complex)),
        (2.0, np.diag([1.0, 0.0]).astype(complex)),
    ]
    with pytest.raises(InvalidCurveError):
        tangency_check(samples, 1)


def test_tangency_rejects_mixed_shapes():
    samples = [(0.0, np.diag([1.0, 0.0])), (1.0, np.diag([1.0, 0.0, 0.0])),
               (2.0, np.diag([1.0, 0.0]))]
    with pytest.raises(InvalidCurveError):
        tangency_check(samples, 1)


def test_tangency_names_the_first_bad_sample():
    pure, mixed = np.diag([1.0, 0.0]), np.diag([0.5, 0.5])
    not_a_state = np.diag([1.5, -0.5])
    with pytest.raises(InvalidCurveError,
                       match=r"^sample at t=1 has rank 2, expected 1$"):
        tangency_check([(0, pure), (1, mixed), (2, not_a_state)], 1)
    with pytest.raises(InvalidCurveError, match=r"^sample at t=1 is not a "
                       r"state: negative eigenvalue$"):
        tangency_check([(0, pure), (1, not_a_state), (2, mixed)], 1)
    with pytest.raises(InvalidCurveError, match="not a state: trace$"):
        tangency_check([(0, pure), (1, pure), (2, 2 * pure)], 1)


# -- scale: T and d act only through basis.exact_scale ---------------------

def _times_two_to(x, e):
    """x * 2**e, entry by entry, for real or complex x."""
    if np.iscomplexobj(x):
        return np.ldexp(x.real, e) + 1j * np.ldexp(x.imag, e)
    return np.ldexp(x, e)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       e=st.integers(-600, 600))
def test_gl_act_states_bit_identical_at_any_scale(n, seed, e):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, n, rank=int(rng.integers(1, n + 1)))
    t = random_invertible(rng, n)
    scaled = _times_two_to(t, e)
    assume(np.array_equal(_times_two_to(scaled, -e), t))  # an exact scaling
    want, got = gl_act_states(t, rho), gl_act_states(scaled, rho)
    assert np.array_equal(got.op, want.op)
    assert np.array_equal(got.spectrum, want.spectrum)
    assert got.rank == want.rank == rho.rank


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-600, 600),
       zero=st.lists(st.booleans(), min_size=3, max_size=3))
def test_bloch_line_bit_identical_at_any_direction_scale(seed, e, zero):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=3)
    rho = require_density(qubit_from_bloch(
        *(y / np.linalg.norm(y) * rng.uniform(0.0, 0.5))))
    d = np.where(zero, 0.0, rng.normal(size=3))
    assume(d.any())
    scaled = _times_two_to(d, e)
    assume(np.array_equal(_times_two_to(scaled, -e), d))  # an exact scaling
    want, got = (bloch_decompose_along(rho, x) for x in (d, scaled))
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.components.op, want.components.op)


@pytest.mark.parametrize("c", [1e-8, 1e-100, 1e160])
@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_gl_act_states_scalar_transform_at_any_scale(rng, n, c):
    # c I acts as the identity on normalized states; once it ran out of the
    # float range (1e160 squared) or under the trace test (1e-8 squared)
    eps = np.finfo(float).eps
    for rank in (1, n):
        rho = random_density(rng, n, rank)
        out = gl_act_states(c * np.eye(n), rho)
        assert np.abs(out.op - rho.op).max() <= 4 * n * eps
        assert out.rank == rho.rank


# -- refusals ----------------------------------------------------------------

_PURE = np.diag([1.0, 0.0]).astype(complex)
_PURE_STATE = require_density(_PURE)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: require_density(np.diag([1.2, -0.2])), ValueError,
                 r"^not a density state: negative eigenvalue \(min eigenvalue",
                 id="require_density"),
    pytest.param(lambda: tangency_check([(0, _PURE), (1, _PURE)], 1),
                 InvalidCurveError, "need at least 3 samples",
                 id="tangency-two-samples"),
    pytest.param(lambda: tangency_check([(0, _PURE), (1, _PURE),
                                         (3, _PURE)], 1),
                 InvalidCurveError, "uniformly spaced",
                 id="tangency-uneven-times"),
    pytest.param(lambda: tangency_check([(1, _PURE)] * 3, 1),
                 InvalidCurveError, "uniformly spaced", id="tangency-zero-step"),
    pytest.param(lambda: tangency_check([(0, _PURE), (np.nan, _PURE),
                                         (2, _PURE)], 1),
                 InvalidCurveError, "uniformly spaced", id="tangency-nan-time"),
    pytest.param(lambda: tangency_check([(0, _PURE), (np.inf, _PURE),
                                         (2, _PURE)], 1),
                 InvalidCurveError, "uniformly spaced", id="tangency-inf-time"),
    pytest.param(lambda: certify_density(np.ones((2, 3))), DimensionError,
                 r"got shape \(2, 3\)$", id="certify-density-not-square"),
    # the ball point (0, 0, 0.55), admitted at tol 0.1, lies outside the
    # sphere, and the line along y1 misses it
    pytest.param(lambda: bloch_decompose_along(
        certify_density(np.diag([1.05, -0.05]), tol_psd=0.1), [1, 0, 0]),
        ValueError, "line misses the pure-state sphere", id="bloch-miss"),
    # T scales to diag(0.5, 5e-12), whose image of |1><1| has trace 2.5e-23
    pytest.param(lambda: gl_act_states(
        np.diag([1.0, 1e-11]), require_density(np.diag([0.0, 1.0]))),
        SingularTransformError, "image trace vanished", id="gl-trace"),
    pytest.param(lambda: gl_act_cone(np.eye(3), np.eye(2)), DimensionError,
                 "transform and operand dimensions differ", id="gl-cone-dims"),
    pytest.param(lambda: gl_act_cone(*[np.stack([np.eye(2)] * 2)] * 2),
                 DimensionError, r"^transform and operand dimensions differ: "
                 r"need one n x n matrix each, got \(2, 2, 2\) and "
                 r"\(2, 2, 2\)$", id="gl-cone-stack"),
    *[pytest.param(lambda bad=bad, act=act, arg=arg: act(
        np.array([[1.0, bad], [0.0, 1.0]]), arg), ValueError,
        "^transform entries must be finite$", id=f"{name}-{bad}")
      for bad in (np.nan, np.inf)
      for name, act, arg in [("gl-cone", gl_act_cone, np.eye(2)),
                             ("gl-states", gl_act_states, _PURE_STATE)]],
    pytest.param(lambda: qubit_bloch_vector(require_density(np.eye(3) / 3)),
                 DimensionError, "^Bloch coordinates need a 2-level state$",
                 id="bloch-vector-qutrit"),
    pytest.param(lambda: bloch_decompose_along(
        require_density(np.eye(3) / 3), [1, 0, 0]), DimensionError,
        "^Bloch coordinates need a 2-level state$", id="bloch-line-qutrit"),
    pytest.param(lambda: qutrit_star(np.ones(8), np.ones(3)), DimensionError,
                 r"^b must have shape \(8,\), got \(3,\)$",
                 id="qutrit-star-shape"),
    pytest.param(lambda: qutrit_star(np.full(8, np.nan), np.ones(8)),
                 ValueError, "^a must be finite$", id="qutrit-star-nan"),
    # einsum overflows silently: inf, and inf - inf = nan, in the sums; at
    # n_8 = 1.4e154, d_888 n_8^2 = -n_8^2 / sqrt(3) is finite and only the
    # factor sqrt(3) overflows
    *[pytest.param(lambda a=a: qutrit_star(a, a), OverflowError,
                   r"^product overflow: a sqrt\(3\) d_ljk a_j b_k is beyond "
                   "the float range$", id=f"qutrit-star-overflow-{name}")
      for name, a in [("sum", np.full(8, 1e200)),
                      ("scale", np.eye(8)[7] * 1.4e154)]],
    pytest.param(lambda: qutrit_pure_from_bloch(np.ones(3)), DimensionError,
                 r"^n must have shape \(8,\), got \(3,\)$",
                 id="qutrit-bloch-shape"),
    pytest.param(lambda: face_contains(
        face_of(_PURE_STATE), require_density(np.eye(3) / 3)),
        DimensionError, r"^expected an operator of shape \(2, 2\), "
        r"got \(3, 3\)$", id="face-image-dims"),
    *[pytest.param(lambda f=f: f(certify_densities(np.eye(2) / 2,
                                                   vectors=False)),
                   ValueError, "^state was certified without eigenvectors$",
                   id=f"{f.__name__}-no-eigenvectors")
      for f in (face_of, convex_decompose_spectral)],
])
def test_states_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
