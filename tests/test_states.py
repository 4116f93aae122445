import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomstates import (
    DimensionError,
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
    orbit_dimension,
    qubit_bloch_vector,
    qubit_from_bloch,
    qutrit_pure_from_bloch,
    qutrit_star,
    require_density,
    spectral_oracle,
    tangency_check,
    to_dual,
    weyl_reduce,
)
from geomstates.basis import TOL_RANK
from geomstates import states
from geomstates.states import (
    TOL_PSD,
    InvalidCurveError,
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


def test_certify_density_rejects_stack():
    with pytest.raises(DimensionError):
        certify_density(np.stack([np.eye(2) / 2] * 2))


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
    assert face_of(pure).dimension == 0
    mixed = require_density(np.eye(3) / 3)
    assert face_of(mixed).dimension == 8


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
    assert face_contains(face, mid, mode="image")
    assert face_contains(face, a, mode="image")
    assert face_contains(face, b, mode="image")
    # the kernel reading admits full-rank states into a boundary face,
    # violating the segment axiom (segments leave the face)
    full = require_density(np.diag([0.4, 0.4, 0.2]).astype(complex))
    assert face_contains(face, full, mode="kernel")
    print("face predicate satisfying the segment axiom: image inclusion "
          "(Ker rho subset of Ker A); literal reversed reading fails")


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
    overlap = np.trace(dec.components[0].op @ dec.components[1].op).real
    assert abs(overlap) < 1e-12


def test_spectral_decomposition_explicit_qubit():
    rho = require_density(qubit_from_bloch(0.0, 0.0, 0.25))
    dec = convex_decompose_spectral(rho)
    assert np.allclose(dec.weights, [0.75, 0.25])
    assert np.allclose(dec.components[0].op, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(dec.components[1].op, np.diag([0.0, 1.0]), atol=1e-12)


def test_spectral_decomposition_reconstructs(rng):
    rho = random_density(rng, 3)
    dec = convex_decompose_spectral(rho)
    assert np.abs(dec.reconstruct() - rho.op).max() < 1e-10
    assert dec.weights.sum() == pytest.approx(1.0, abs=1e-12)
    for c in dec.components:
        assert require_density(c.op).rank == 1


def test_bloch_decompose_center(rng):
    rho = require_density(np.eye(2) / 2)
    d = rng.normal(size=3)
    dec = bloch_decompose_along(rho, d)
    assert np.allclose(dec.weights, [0.5, 0.5])
    y1 = qubit_bloch_vector(require_density(dec.components[0].op))
    y2 = qubit_bloch_vector(require_density(dec.components[1].op))
    assert np.allclose(y1, -y2, atol=1e-12)
    assert abs(np.linalg.norm(y1) - 0.5) < 1e-12


def test_bloch_decompose_explicit():
    rho = require_density(qubit_from_bloch(0.0, 0.0, 0.25))
    dec = bloch_decompose_along(rho, [0.0, 0.0, 1.0])
    assert np.allclose(dec.weights, [0.75, 0.25])
    assert np.allclose(dec.components[0].op, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(dec.components[1].op, np.diag([0.0, 1.0]), atol=1e-12)


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
            assert abs(_stratum_residuals(rho.eigvecs, x, k) - want) < 1e-12
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
    assert _stratum_residuals(rho.eigvecs, vel, k) < 1e-12
    want = eps * np.linalg.norm(h) / max(np.linalg.norm(x), np.sqrt(2.0))
    assert abs(_stratum_residuals(rho.eigvecs, x, k) - want) <= 1e-12


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
    assert len(got.components) == len(want.components)
    for c_got, c_want in zip(got.components, want.components):
        assert np.array_equal(c_got.op, c_want.op)


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
    pytest.param(lambda: qutrit_pure_from_bloch(np.ones(3)), DimensionError,
                 "need an 8-component vector", id="qutrit-bloch-shape"),
    pytest.param(lambda: face_contains(face_of(require_density(_PURE)),
                                       require_density(_PURE), mode="span"),
                 ValueError, "unknown mode 'span'", id="face-mode"),
])
def test_states_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
