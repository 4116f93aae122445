import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomstates import (
    DimensionError,
    KaehlerTriple,
    RealifiedState,
    bracket_g,
    bracket_omega,
    critical_point_eigensolve,
    flow_hamiltonian,
    gellmann_basis,
    gradient_vf,
    hamiltonian_vf,
    hermitian_split,
    quadratic_function,
    spectral_oracle,
    star_product,
)
from geomstates.basis import exact_scale
from geomstates.realified import (
    FLOW_SLICE,
    ZeroVectorError,
    _realified_operator,
    expectation_trace_samples,
)

from conftest import (
    BRACKET_DRAWS,
    bracket_sample,
    random_hermitian,
    random_state,
    unitary_exp,
)

SIGMA = gellmann_basis(2).elements


def test_complex_round_trip(rng):
    psi = random_state(rng, 4)
    back = RealifiedState.from_complex(psi.to_complex())
    assert np.allclose(back.q, psi.q) and np.allclose(back.p, psi.p)


def test_hermitian_split_norm():
    psi = RealifiedState([1.0, 0.0], [0.0, 0.0])
    assert hermitian_split(psi, psi) == (1.0, 0.0)


def test_hermitian_split_phase():
    psi = RealifiedState([1.0, 0.0], [0.0, 0.0])
    ipsi = RealifiedState.from_complex(1j * psi.to_complex())
    g, w = hermitian_split(psi, ipsi)
    assert abs(g) < 1e-15 and abs(w - 1.0) < 1e-15


def test_hermitian_split_matches_complex_product(rng):
    a, b = random_state(rng, 3), random_state(rng, 3)
    g, w = hermitian_split(a, b)
    ref = a.to_complex().conj() @ b.to_complex()
    assert abs(complex(g, w) - ref) < 1e-12


def test_hermitian_split_dim_mismatch(rng):
    with pytest.raises(DimensionError):
        hermitian_split(random_state(rng, 2), random_state(rng, 3))


def test_quadratic_identity_unit():
    psi = RealifiedState([0.0, 1.0], [0.0, 0.0])
    assert abs(quadratic_function(np.eye(2), psi) - 0.5) < 1e-15
    # <psi, A psi> = 1e600 at A = 1e200 I and |psi| = 1e200: refused in the
    # library's words, never numpy's matmul warning (an error in this suite)
    with pytest.raises(OverflowError, match=r"^f_A overflow: <psi, A psi> "
                       r"is beyond the float range$"):
        quadratic_function(1e200 * np.eye(2), RealifiedState([0, 1e200],
                                                             [0, 0]))


def test_quadratic_sigma3():
    psi = RealifiedState([1.0, 0.0], [0.0, 0.0])
    assert abs(quadratic_function(SIGMA[3], psi) - 0.5) < 1e-15


def test_quadratic_homogeneity(rng):
    a = random_hermitian(rng, 3)
    psi = random_state(rng, 3)
    double = RealifiedState(2 * psi.q, 2 * psi.p)
    assert abs(quadratic_function(a, double)
               - 4 * quadratic_function(a, psi)) < 1e-10


def test_bracket_omega_identity_vanishes(rng):
    psi = random_state(rng, 2)
    assert abs(bracket_omega(np.eye(2), np.eye(2), psi)) < 1e-14


def test_bracket_omega_sigma_pair():
    psi = RealifiedState([1.0, 0.0], [0.0, 0.0])
    lhs = bracket_omega(SIGMA[2], SIGMA[3], psi)
    comm = -1j * (SIGMA[2] @ SIGMA[3] - SIGMA[3] @ SIGMA[2])
    assert abs(lhs - quadratic_function(comm, psi)) < 1e-14


def test_bracket_g_jordan_square(rng):
    a = random_hermitian(rng, 3)
    psi = random_state(rng, 3)
    az = a @ psi.to_complex()
    assert abs(bracket_g(a, a, psi) - float((az.conj() @ az).real)) < 1e-10


def test_bracket_homomorphisms_random(rng):
    # the two brackets reproduce the Jordan and (rescaled) Lie products
    for _ in range(100):
        n = rng.choice([2, 3])
        a, b = random_hermitian(rng, n), random_hermitian(rng, n)
        psi = random_state(rng, n)
        assert abs(bracket_g(a, b, psi)
                   - quadratic_function(a @ b + b @ a, psi)) < 1e-10
        assert abs(bracket_omega(a, b, psi)
                   - quadratic_function(-1j * (a @ b - b @ a), psi)) < 1e-10


# Each side of a bracket identity is a sum of O(n) rounded products, so a
# worst-case bound is a small multiple of n * eps * ||A|| ||B|| ||psi||^2
# (times norms of |A| and |B|, which can exceed those of A and B).  Rounding
# errors of both signs partly cancel: over 30,000 draws of the sampler below
# the error stayed under 0.87 n eps ||A|| ||B|| ||psi||^2, and under
# 0.58 n eps ||A|| ||psi|| for A x against the realified A psi.  C = 4
# leaves a margin of more than 4x.
C_BRACKET = 4.0
EPS = np.finfo(float).eps


@settings(max_examples=200, deadline=None)
@given(**BRACKET_DRAWS)
def test_bracket_homomorphisms_across_n(n, seed, kind, exps):
    a, b, psi = bracket_sample(n, seed, kind, exps)
    norm_a, norm_b = np.linalg.norm(a, 2), np.linalg.norm(b, 2)
    tol = C_BRACKET * n * EPS * norm_a * norm_b * psi.norm() ** 2
    # h + h^dagger and -i(h - h^dagger) with h = AB are exactly Hermitian:
    # AB + BA and -i[A, B] as computed are not
    h = a @ b
    assert abs(bracket_g(a, b, psi)
               - quadratic_function(h + h.conj().T, psi)) <= tol
    assert abs(bracket_omega(a, b, psi)
               - quadratic_function(-1j * (h - h.conj().T), psi)) <= tol
    # the solver's real symmetric form of A on x = (q, p)
    a_hat = _realified_operator(a)
    assert np.array_equal(a_hat, a_hat.T)
    az = a @ psi.to_complex()
    assert (np.abs(a_hat @ np.concatenate([psi.q, psi.p])
                   - np.concatenate([az.real, az.imag])).max()
            <= C_BRACKET * n * EPS * norm_a * psi.norm())


def reference_brackets(a, b, psi):
    """G and Omega at psi as realified dot products of da = realify(A psi)
    and db = realify(B psi): da.db and da[:n].db[n:] - da[n:].db[:n]."""
    n = psi.dim
    az, bz = a @ psi.to_complex(), b @ psi.to_complex()
    da = np.concatenate([az.real, az.imag])
    db = np.concatenate([bz.real, bz.imag])
    return float(da @ db), float(da[:n] @ db[n:] - da[n:] @ db[:n])


# The brackets are Re and Im of one complex <A psi, B psi>.  Both it and
# the reference sum the same 2n rounded products of the same matvec
# results, each sum within about 2n eps ||A psi|| ||B psi|| of the exact
# value, so they differ by at most about C_BRACKET = 4 units of
# n eps ||A|| ||B|| ||psi||^2.  Over 33,000 draws of the sampler at
# n = 2...12 the difference stayed under 0.50 of that unit.
@settings(max_examples=200, deadline=None)
@given(**BRACKET_DRAWS)
def test_brackets_match_realified_reference(n, seed, kind, exps):
    a, b, psi = bracket_sample(n, seed, kind, exps)
    g, w = reference_brackets(a, b, psi)
    tol = (C_BRACKET * n * EPS * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
           * psi.norm() ** 2)
    assert abs(bracket_g(a, b, psi) - g) <= tol
    assert abs(bracket_omega(a, b, psi) - w) <= tol
    assert abs(star_product(a, b, psi) - complex(g, w)) <= tol


@pytest.mark.parametrize("fn", [bracket_g, bracket_omega, star_product])
@pytest.mark.parametrize("dims", [(3, 3), (2, 3)])
def test_brackets_refuse_mismatched_dimensions(rng, fn, dims):
    a, b = (random_hermitian(rng, d) for d in dims)
    with pytest.raises(DimensionError):
        fn(a, b, random_state(rng, 2))


def test_star_product_identity():
    psi = RealifiedState([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    assert abs(star_product(np.eye(3), np.eye(3), psi) - 1.0) < 1e-14
    # <A psi, B psi> at A = B = 1e200 I and |psi| = 1e200, as above
    big = 1e200 * np.eye(3)
    with pytest.raises(OverflowError, match=r"^star product overflow: "
                       r"<A psi, B psi> is beyond the float range$"):
        star_product(big, big, RealifiedState([0, 0, 1e200], [0, 0, 0]))


def test_each_bracket_refuses_only_its_own_overflow():
    # <A psi, B psi> = 2.25e308 + 0i: its real part overflows, its
    # imaginary part is 0
    a = np.array([[1.5e308, 0.0], [0.0, 0.0]])
    b = np.array([[1.5, 1j], [-1j, 0.0]])
    psi = RealifiedState([1.0, 0.0], [0.0, 0.0])
    assert bracket_omega(a, b, psi) == 0.0
    with pytest.raises(OverflowError, match=r"^bracket g overflow: Re <A "
                       r"psi, B psi> is beyond the float range$"):
        bracket_g(a, b, psi)
    with pytest.raises(OverflowError, match=r"^star product overflow: "):
        star_product(a, b, psi)


def test_star_product_matches_operator_product(rng):
    for _ in range(20):
        a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
        psi = random_state(rng, 3)
        ref = 2 * 0.5 * (psi.to_complex().conj() @ (a @ b @ psi.to_complex()))
        assert abs(star_product(a, b, psi) - ref) < 1e-12


def test_star_product_commuting_real(rng):
    d1, d2 = np.diag(rng.normal(size=3)), np.diag(rng.normal(size=3))
    psi = random_state(rng, 3)
    assert abs(star_product(d1, d2, psi).imag) < 1e-12


def test_vector_fields_identity(rng):
    psi = random_state(rng, 2)
    grad = gradient_vf(np.eye(2), psi)
    assert np.allclose(grad, np.concatenate([psi.q, psi.p]))
    ham = hamiltonian_vf(np.eye(2), psi)  # i psi = (-p, q)
    assert np.allclose(ham, np.concatenate([-psi.p, psi.q]))


@pytest.mark.parametrize("vf, turn", [(gradient_vf, False),
                                      (hamiltonian_vf, True)])
def test_vector_fields_at_the_float_range(rng, vf, turn):
    # A psi = 1e400 at A = 1e200 I and psi = (0, 1e200): refused in the
    # library's words, never numpy's matmul warning (an error in this suite)
    with pytest.raises(OverflowError, match=r"^vector field overflow: "):
        vf(1e200 * np.eye(2), RealifiedState([0, 1e200], [0, 0]))
    # where nothing leaves the float range, the direct product bit for bit
    a = 1e200 * random_hermitian(rng, 2)
    psi = RealifiedState([0, 1e-200], [0, 0])
    z = a @ psi.to_complex()
    z = 1j * z if turn else z
    assert (vf(a, psi).tobytes()
            == np.concatenate([z.real, z.imag]).tobytes())


def test_gradient_against_finite_differences(rng):
    a = random_hermitian(rng, 3)
    psi = random_state(rng, 3)
    grad = gradient_vf(a, psi)
    h = 1e-5
    fd = np.zeros(6)
    for i in range(6):
        up = np.concatenate([psi.q, psi.p]).astype(float)
        dn = up.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (
            quadratic_function(a, RealifiedState(up[:3], up[3:]))
            - quadratic_function(a, RealifiedState(dn[:3], dn[3:]))
        ) / (2 * h)
    assert np.abs(fd - grad).max() < 1e-6 * max(np.abs(grad).max(), 1.0)


def test_kaehler_triple_invariants(rng):
    # J^2 = -1 exactly; g and omega are J-invariant; compatibility holds as
    # g(X, Y) = omega(X, JY) for the antilinear-first Hermitian convention.
    kt = KaehlerTriple(3)
    j, g, w = kt.j_matrix, kt.g_matrix, kt.omega_matrix
    assert np.array_equal(j @ j, -np.eye(6))
    for _ in range(10):
        x, y = rng.normal(size=6), rng.normal(size=6)
        assert abs((j @ x) @ g @ (j @ y) - x @ g @ y) < 1e-12
        assert abs((j @ x) @ w @ (j @ y) - x @ w @ y) < 1e-12
        assert abs(x @ g @ y - x @ w @ (j @ y)) < 1e-12


def test_flow_conserves_norm_and_energy():
    psi0 = RealifiedState([0.6, 0.8], [0.0, 0.0])
    samples, norm_drift, e_drift = expectation_trace_samples(
        SIGMA[3], psi0, 10.0, step=1e-3)
    assert norm_drift < 1e-8
    assert e_drift < 1e-8


def test_flow_is_isometry(rng):
    # Killing property: the Hamiltonian flow preserves g-distances between
    # pairs of evolving points up to integrator error.
    for a in (SIGMA[3], None):
        n = 2 if a is not None else 3
        if a is None:
            a = random_hermitian(rng, n)
        p1, p2 = random_state(rng, n), random_state(rng, n)
        _, s1 = flow_hamiltonian(a, p1, 2.0, step=1e-3)
        _, s2 = flow_hamiltonian(a, p2, 2.0, step=1e-3)
        d0 = np.linalg.norm(s1[0] - s2[0])
        dT = np.linalg.norm(s1[-1] - s2[-1])
        assert abs(dT - d0) < 1e-8


def rk4_reference(a, psi0, t_final, step):
    """The fixed-step RK4 integration of z' = i A z that the exact
    propagator replaced, kept as an independent reference."""
    n_steps = max(1, int(round(t_final / step)))
    h = t_final / n_steps
    z = psi0.to_complex().astype(complex)

    def rhs(v):
        return 1j * (a @ v)

    states = [z]
    for _ in range(n_steps):
        k1 = rhs(z)
        k2 = rhs(z + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h * k2)
        k4 = rhs(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(z)
    return np.array(states)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 3, 4, 8]), seed=st.integers(0, 2**32 - 1),
       s=st.floats(0.0, 2.0), t=st.floats(0.0, 2.0))
def test_exact_flow_matches_rk4_and_group_law(n, seed, s, t):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, n)
    psi0 = random_state(rng, n)
    times, z = flow_hamiltonian(a, psi0, 1.0, step=1e-3)
    assert times.shape == (1001,) and z.shape == (1001, n)
    assert np.abs(z - rk4_reference(a, psi0, 1.0, 1e-3)).max() < 1e-8
    # Z(s + t) = U(s) Z(t), with U(s) = exp(isA) from the spectral oracle
    zt = flow_hamiltonian(a, psi0, t, step=max(t, 1e-3))[1][-1]
    zst = flow_hamiltonian(a, psi0, s + t, step=max(s + t, 1e-3))[1][-1]
    assert np.abs(zst - unitary_exp(a, s) @ zt).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
def test_flow_drift_is_round_off(rng, n):
    a = random_hermitian(rng, n)
    samples, norm_drift, e_drift = expectation_trace_samples(
        a, random_state(rng, n), 10.0, step=1e-3)
    assert samples.shape == (10001, 3)
    bound = 1e-12 * max(1.0, np.linalg.norm(a, 2))
    assert norm_drift <= bound and e_drift <= bound


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       e=st.integers(-600, 600), t_final=st.floats(-2.0, 2.0))
def test_hamiltonian_samples_at_any_scale(n, seed, e, t_final):
    # the flow runs from psi0 scaled exactly by a power of two, so psi0 * 2**e
    # has the e_A samples of psi0 bit for bit, and 2**e times its norms
    rng = np.random.default_rng(seed)
    a, psi = random_hermitian(rng, n), random_state(rng, n)
    q, p = np.ldexp(psi.q, e), np.ldexp(psi.p, e)
    assume(np.array_equal(np.ldexp(q, -e), psi.q)
           and np.array_equal(np.ldexp(p, -e), psi.p))
    want, want_dn, want_de = expectation_trace_samples(a, psi, t_final, 0.05)
    got, got_dn, got_de = expectation_trace_samples(
        a, RealifiedState(q, p), t_final, 0.05)
    assert np.array_equal(got[:, :2], want[:, :2])
    assert np.array_equal(got[:, 2], np.ldexp(want[:, 2], e))
    assert got_dn == np.ldexp(want_dn, e) and got_de == want_de


@pytest.mark.parametrize("kwargs", [
    dict(step=0.0), dict(step=-1e-3), dict(step=np.nan), dict(step=np.inf),
    dict(t_final=np.nan), dict(t_final=np.inf), dict(t_final=-np.inf),
])
def test_hamiltonian_flow_refuses_bad_steps(kwargs):
    args = dict(t_final=1.0, step=1e-3) | kwargs
    with pytest.raises(ValueError):
        flow_hamiltonian(np.eye(2), RealifiedState([1, 0], [0, 0]), **args)


def test_hamiltonian_default_grid_is_step_1e3(rng):
    a, psi0 = random_hermitian(rng, 3), random_state(rng, 3)
    for flow in (flow_hamiltonian, expectation_trace_samples):
        got, want = flow(a, psi0, 2.0), flow(a, psi0, 2.0, step=1e-3)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class _Built(Exception):
    """np.arange was reached: the grid passed its cap."""


@pytest.mark.parametrize("t_final, step, refused", [
    (1e6, 1.0, True), (999999.5, 1.0, True), (1e300, 1e-300, True),
    (999999.4, 1.0, False),  # round(...) + 1 = MAX_FLOW_SAMPLES samples
])
def test_hamiltonian_grid_capped_before_allocation(monkeypatch, t_final, step,
                                                   refused):
    def built(*args, **kwargs):
        raise _Built

    monkeypatch.setattr(np, "arange", built)
    monkeypatch.setattr(np.linalg, "eigh", built)
    psi0 = RealifiedState([0.6, 0.8], [0, 0])
    for flow in (flow_hamiltonian, expectation_trace_samples):
        with pytest.raises(ValueError if refused else _Built):
            flow(np.diag([1.0, -1.0]), psi0, t_final, step)


def test_hamiltonian_flow_runs_backward_in_time():
    # a negative t_final is allowed; it gives a grid of one interval
    times, z = flow_hamiltonian(np.diag([1.0, -1.0]),
                                RealifiedState([1, 0], [0, 0]), -1.0, 0.5)
    assert np.array_equal(times, [0.0, -1.0])
    assert np.allclose(z[-1], [np.exp(-1j), 0])


def direct_flow(a, psi0, t_final, step):
    """(times, z, w) from one exp(i t w) per sample and eigenvalue: the
    formula that the angle-addition table replaced, kept as the reference.
    Like the library, it runs eigh on A at its exact scale."""
    n_steps = max(1, int(round(t_final / step)))
    times = np.arange(n_steps + 1) * (t_final / n_steps)
    a, k = exact_scale(np.asarray(a, dtype=complex))
    w, v = np.linalg.eigh(a)
    w = np.ldexp(w, k)
    phases = np.exp(1j * np.outer(times, w))
    return times, (phases * (v.conj().T @ psi0.to_complex())) @ v.T, w


@pytest.mark.parametrize("n", range(2, 13))
def test_flow_within_one_slice_is_the_direct_formula_bit_for_bit(rng, n):
    samples = [2, FLOW_SLICE - 1, FLOW_SLICE, *rng.integers(3, 512, size=5)]
    for i, count in enumerate(samples):
        a = random_hermitian(rng, n)
        if i % 2:
            a = np.diag(a.diagonal().real)
        a = a * 10.0 ** (0, 150, -150)[i % 3]
        psi = random_state(rng, n)
        if i % 4 > 1:  # zero entries in q or p, never all of psi
            psi = RealifiedState(np.where(rng.random(n) < 0.5, 0.0, psi.q),
                                 np.where(np.arange(n) == 0, 1.0, 0.0))
        t_final = rng.uniform(0.1, 3.0)
        step = t_final / (count - 1)
        if i == len(samples) - 1:  # a negative t_final gives two samples
            t_final, count = -t_final, 2
        times, z = flow_hamiltonian(a, psi, t_final, step)
        want_t, want_z, _ = direct_flow(a, psi, t_final, step)
        assert len(times) == count
        assert times.tobytes() == want_t.tobytes()
        assert z.tobytes() == want_z.tobytes()


@pytest.mark.parametrize("count", [FLOW_SLICE + 1, 2 * FLOW_SLICE + 1, 10001])
def test_flow_past_one_slice_is_the_direct_formula_within_rounding(rng, count):
    # Against the float times, the direct phase angle is off by at most
    # eps/2 |t w| and the table's by 3 eps/2 |t w|, plus a few eps from exp,
    # the phase products and the eigenvector product.
    eps = np.finfo(float).eps
    for n in range(2, 13):
        a = random_hermitian(rng, n) * 10.0 ** rng.uniform(-1, 3)
        psi = random_state(rng, n)
        t_final = rng.uniform(0.5, 20.0)
        times, z = flow_hamiltonian(a, psi, t_final, t_final / (count - 1))
        want_t, want_z, w = direct_flow(a, psi, t_final,
                                        t_final / (count - 1))
        assert len(times) == count and np.array_equal(times, want_t)
        assert np.array_equal(z[:FLOW_SLICE], want_z[:FLOW_SLICE])
        bound = ((2 * np.abs(times[-1] * w).max() + 4 * n) * eps
                 * np.linalg.norm(psi.to_complex()))
        assert np.abs(z - want_z).max() <= bound


@pytest.mark.parametrize("w_max", [1.0, 1e3])
def test_flow_phases_are_as_accurate_as_the_direct_formula(rng, w_max):
    # With A diagonal, V is a permutation and z(t) the phases exp(i t w)
    # exactly.  Against the intended sample time k * t_final / n_steps, both
    # the direct angle and the table's sum of two angles are off by at most
    # 3 eps/2 |t w| (the rounded times and angles), plus a few eps.
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    n, t_final, n_steps = 4, 10.0, 10000
    w = rng.uniform(-w_max, w_max, size=n)
    psi = RealifiedState(np.ones(n), np.zeros(n))
    _, z = flow_hamiltonian(np.diag(w), psi, t_final, 1e-3)
    direct = direct_flow(np.diag(w), psi, t_final, 1e-3)[1]
    rows = np.unique(np.concatenate([
        rng.integers(0, n_steps + 1, size=60),
        [FLOW_SLICE - 1, FLOW_SLICE, 4 * FLOW_SLICE + 1, n_steps]]))
    with mpmath.workdps(40):
        exact = np.array([[complex(mpmath.expj(
            mpmath.mpf(t_final) / n_steps * int(k) * mpmath.mpf(float(wi))))
            for wi in w] for k in rows])
    bound = 1.5 * eps * t_final * np.abs(w).max() + 8 * eps
    assert np.abs(direct[rows] - exact).max() <= bound
    assert np.abs(z[rows] - exact).max() <= bound


def test_flow_phase_overflow_is_not_hidden_by_the_table():
    # t w overflows only past sample 8,557 of 10,001, beyond every slice
    # start; the largest angle is still refused, whatever the errstate
    psi = RealifiedState([1.0, 0.0], [0.0, 1.0])
    for err in ("ignore", "raise"):
        with np.errstate(all=err), pytest.raises(
                OverflowError, match=r"^phase overflow: an angle t w is "
                r"beyond the float range$"):
            flow_hamiltonian(np.diag([1.0, -3.0]), psi, 7e307, 7e303)


@pytest.mark.parametrize("step", [0.0, -1.0, np.nan, np.inf])
def test_eigensolve_refuses_bad_steps(step):
    with pytest.raises(ValueError):
        critical_point_eigensolve(np.diag([2.0, -1.0]),
                                  RealifiedState([0.6, 0.8], [0, 0]), step=step)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_refuses_non_finite_entries(bad):
    with pytest.raises(ValueError):
        RealifiedState([bad, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        RealifiedState([1.0, 0.0], [0.0, bad])
    with pytest.raises(ValueError):
        RealifiedState.from_complex([1.0, complex(0.0, bad)])


def _spectrum(rng, n, kind):
    if kind == "gapped":   # extremes 0.3 away from their neighbours
        return np.concatenate([[-1.0, 1.0], rng.uniform(-0.7, 0.7, n - 2)])
    if kind == "degenerate":   # integer eigenvalues, repeated at n > 5
        return rng.integers(-2, 3, size=n).astype(float)
    return np.linalg.eigvalsh(random_hermitian(rng, n))


@pytest.mark.parametrize("kind", ["gapped", "random", "degenerate"])
@pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
def test_eigensolve_barzilai_borwein_converges_fast(rng, n, kind):
    for _ in range(4):
        q = np.linalg.qr(random_hermitian(rng, n)
                         + 1j * random_hermitian(rng, n))[0]
        w = _spectrum(rng, n, kind)
        a = (q * w) @ q.conj().T
        extremes = np.linalg.eigvalsh(a)[[-1, 0]]
        norm_a = np.linalg.norm(a, 2)
        for mode, target in zip(("ascent", "descent"), extremes):
            trace = []
            e, _, conv = critical_point_eigensolve(
                a, random_state(rng, n), mode=mode, trace=trace)
            assert conv and abs(e - target) <= 1e-8 * norm_a
            assert trace[-1][0] <= 500


def complex_reference_eigensolve(a, psi0, mode):
    """The solver's loop in complex coordinates, as it ran before it moved to
    the realified ones, kept as an independent reference.

    Returns (eigenvalue, converged, iterations)."""
    norm_a = np.linalg.norm(a, 2)
    default_step = step = 0.1 / max(norm_a, 1e-300)
    tol = 1e-9 * max(norm_a, 1e-300)
    sign = 1.0 if mode == "ascent" else -1.0
    z = psi0.to_complex()
    z = z / np.linalg.norm(z)
    for it in range(100_001):
        az = a @ z
        e = float((z.conj() @ az).real)
        resid_vec = az - e * z
        if float(np.linalg.norm(resid_vec)) < tol:
            return e, True, it
        if it > 0:
            s = z - z_prev
            denom = abs(float(np.vdot(s, resid_vec - r_prev).real))
            if not s.any():
                step = default_step
            elif denom > 0.0:
                step = float(np.vdot(s, s).real) / denom
        z_prev, r_prev = z, resid_vec
        z = z + sign * step * resid_vec
        z = z / np.linalg.norm(z)
    return e, False, it


@pytest.mark.parametrize("kind", ["gapped", "random", "degenerate"])
@pytest.mark.parametrize("n", [2, 3, 4, 8, 12])
def test_eigensolve_matches_complex_reference(rng, n, kind):
    # the realified loop sums in another order: the same iterates up to
    # round-off, so the same iteration count and a last-bits eigenvalue
    for _ in range(4):
        q = np.linalg.qr(random_hermitian(rng, n)
                         + 1j * random_hermitian(rng, n))[0]
        a = (q * _spectrum(rng, n, kind)) @ q.conj().T
        norm_a = np.linalg.norm(a, 2)
        for mode in ("ascent", "descent"):
            psi0 = random_state(rng, n)
            trace = []
            e, _, conv = critical_point_eigensolve(a, psi0, mode=mode,
                                                   trace=trace)
            e_ref, conv_ref, iters_ref = complex_reference_eigensolve(
                a, psi0, mode)
            assert conv == conv_ref and trace[-1][0] == iters_ref
            assert abs(e - e_ref) <= 8 * n * EPS * norm_a


@pytest.mark.parametrize("n", [2, 4, 8])
def test_eigensolve_is_scale_invariant(rng, n):
    # the solver runs at an exact power-of-two scale of A: a power-of-two
    # factor changes nothing, and a decimal one only A's rounding.  For
    # ||A|| beyond about 1e±146 LAPACK's eigvalsh rescales A by a factor that
    # is not a power of two, so the bit-for-bit check stays inside that.
    a = random_hermitian(rng, n)
    bound = 8 * n * EPS * np.linalg.norm(a, 2)
    for mode in ("ascent", "descent"):
        psi0 = random_state(rng, n)
        trace = []
        e1, psi1, conv1 = critical_point_eigensolve(a, psi0, mode=mode,
                                                    trace=trace)
        assert conv1
        for scale in (2.0 ** -400, 2.0 ** 400):
            e, psi, conv = critical_point_eigensolve(a * scale, psi0,
                                                     mode=mode)
            assert conv and e / scale == e1
            assert np.array_equal(psi.to_complex(), psi1.to_complex())
        for scale in (1e-300, 1e-170, 1e-100, 1e100, 1e150, 1e300):
            scaled = []
            e, _, conv = critical_point_eigensolve(a * scale, psi0, mode=mode,
                                                   trace=scaled)
            assert conv and len(scaled) == len(trace)
            assert abs(e / scale - e1) <= bound


def test_eigensolve_identity_converges_immediately(rng):
    psi0 = random_state(rng, 3)
    trace = []
    e, _, conv = critical_point_eigensolve(np.eye(3), psi0, trace=trace)
    assert conv and abs(e - 1.0) < 1e-12
    assert trace[0][0] == 0 and len(trace) == 1


def test_eigensolve_descent_sigma3(rng):
    e, psi, conv = critical_point_eigensolve(
        SIGMA[3], random_state(rng, 2), mode="descent")
    assert conv and abs(e + 1.0) < 1e-8
    z = psi.to_complex()
    assert abs(z[0]) < 1e-6 and abs(abs(z[1]) - 1.0) < 1e-6


def test_eigensolve_many_starts_hit_top_eigenvalue(rng):
    a = random_hermitian(rng, 3)
    w, _ = spectral_oracle(a)
    for _ in range(50):
        e, psi, conv = critical_point_eigensolve(
            a, random_state(rng, 3), mode="ascent")
        assert conv
        assert abs(e - w[0]) < 1e-8
        # residual bound at the critical point
        z = psi.to_complex()
        assert np.linalg.norm(a @ z - e * z) <= 1e-9 * np.linalg.norm(a, 2)


def test_eigensolve_eigenvalue_matches_some_oracle_value(rng):
    a = random_hermitian(rng, 4)
    w, _ = spectral_oracle(a)
    e, _, conv = critical_point_eigensolve(a, random_state(rng, 4))
    assert conv and np.abs(w - e).min() < 1e-7


def test_eigensolve_huge_step_unused_at_an_eigenvector():
    # step * 2**k overflows, but a start at an eigenvector never takes it
    e, _, conv = critical_point_eigensolve(
        np.diag([2.0, -1.0]), RealifiedState([1.0, 0.0], [0.0, 0.0]),
        step=1e308)
    assert conv and e == 2.0


def test_eigensolve_stops_at_a_non_finite_residual():
    # step * ||A|| overflows to inf, so the first step makes the iterate
    # NaN; the solver stops there instead of running max_iter more steps
    # and returns the last finite iterate, the start, with its eigenvalue
    trace = []
    with np.errstate(all="ignore"):
        e, psi, conv = critical_point_eigensolve(
            np.diag([2.0, -1.0]), RealifiedState([0.6, 0.8], [0, 0]),
            step=1e308, trace=trace)
    assert not conv and len(trace) <= 2
    assert np.isfinite(psi.q).all() and np.isfinite(psi.p).all()
    assert np.isfinite(e) and e == trace[0][1]


def test_eigensolve_takes_the_default_step_after_a_stall():
    # step 1e-300 leaves x where it is at iteration 1 (s = 0, so the
    # Barzilai-Borwein denominator is 0 too); the default step follows and
    # moves x from iteration 2 on.  So from iteration 1 on the stalled solve
    # is the solve that starts with the default step, one iteration later,
    # bit for bit on any BLAS kernel.
    a = np.diag([2.0, -1.0, 0.5])
    psi = RealifiedState(np.ones(3), np.zeros(3))
    stalled, fresh = [], []
    e, _, conv = critical_point_eigensolve(a, psi, step=1e-300, max_iter=5,
                                           trace=stalled)
    want = critical_point_eigensolve(a, psi, max_iter=4, trace=fresh)
    assert [row[0] for row in stalled] == list(range(6))
    assert stalled[0][1:] == stalled[1][1:]
    assert [row[1:] for row in stalled[1:]] == [row[1:] for row in fresh]
    assert (e, conv) == (want[0], want[2])
    assert not conv


@pytest.mark.parametrize("call", [
    pytest.param(critical_point_eigensolve, id="eigensolve"),
    pytest.param(lambda a, psi: flow_hamiltonian(a, psi, 0.01), id="flow"),
    pytest.param(lambda a, psi: expectation_trace_samples(a, psi, 0.01),
                 id="samples"),
])
def test_flows_refuse_a_spectrum_beyond_the_float_range(call):
    # A is finite and Hermitian, but its eigenvalue 2.4e308 is not: eigh and
    # eigvalsh return inf.  The eigensolver once raised UnboundLocalError
    # (or warned "overflow encountered in dot"), and the flow warned and
    # returned NaN samples.
    a = 1.2e308 * np.ones((2, 2))
    psi = RealifiedState([0.6, 0.8], [0.0, 0.0])
    for mode in ("ignore", "raise"):
        with np.errstate(all=mode), pytest.raises(
                OverflowError, match="^spectrum overflow: an eigenvalue is "
                "beyond the float range$"):
            call(a, psi)


@pytest.mark.parametrize("mode", ["ascent", "descent"])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_eigensolve_start_at_any_scale(rng, n, mode):
    # |psi0|^2 underflows to 0 at 2**-565 and overflows at 2**664; the start
    # is scaled by a power of two before it is normalized, so both give the
    # iterates of the unscaled start bit for bit
    a, psi = random_hermitian(rng, n), random_state(rng, n)
    want_trace = []
    want = critical_point_eigensolve(a, psi, mode=mode, trace=want_trace)
    for exp in (-565, 664):
        trace = []
        e, state, conv = critical_point_eigensolve(
            a, RealifiedState(np.ldexp(psi.q, exp), np.ldexp(psi.p, exp)),
            mode=mode, trace=trace)
        assert (e, conv, trace) == (want[0], want[2], want_trace)
        assert np.array_equal(state.q, want[1].q)
        assert np.array_equal(state.p, want[1].p)


@pytest.mark.parametrize("flow", [
    lambda a, psi: critical_point_eigensolve(a, psi),
    lambda a, psi: flow_hamiltonian(a, psi, 1.0),
])
def test_flows_refuse_a_start_of_another_dimension(rng, flow):
    with pytest.raises(DimensionError):
        flow(random_hermitian(rng, 4), random_state(rng, 6))


def test_eigensolve_zero_start_rejected():
    with pytest.raises(ZeroVectorError):
        critical_point_eigensolve(np.eye(2), RealifiedState([0, 0], [0, 0]))


def test_hamiltonian_samples_refuse_a_zero_start():
    with pytest.raises(ZeroVectorError):
        expectation_trace_samples(np.eye(2), RealifiedState([0, 0], [0, 0]),
                                  1.0)


def test_eigensolve_refuses_negative_max_iter():
    a, psi0 = np.diag([2.0, -1.0]), RealifiedState([0.6, 0.8], [0, 0])
    with pytest.raises(ValueError, match="max_iter"):
        critical_point_eigensolve(a, psi0, max_iter=-1)
    # max_iter = 0 evaluates the start: e_A = 2 * 0.36 - 0.64
    e, psi, conv = critical_point_eigensolve(a, psi0, max_iter=0)
    assert e == pytest.approx(0.08) and not conv
    assert np.array_equal(psi.q, psi0.q)


def test_eigensolve_reports_non_convergence(rng):
    a = random_hermitian(rng, 3)
    _, _, conv = critical_point_eigensolve(a, random_state(rng, 3), max_iter=2)
    assert not conv


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: critical_point_eigensolve(
        np.eye(2), RealifiedState([1.0, 0.0], [0.0, 0.0]), mode="sideways"),
        ValueError, "unknown mode 'sideways'", id="eigensolve-mode"),
    pytest.param(lambda: RealifiedState([1.0, 0.0], [0.0]), DimensionError,
                 r"^p must have shape \(2,\), got \(1,\)$",
                 id="state-lengths"),
    pytest.param(lambda: RealifiedState(np.eye(2), np.eye(2)), DimensionError,
                 r"^q must have shape \(4,\), got \(2, 2\)$", id="state-2d"),
])
def test_realified_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
