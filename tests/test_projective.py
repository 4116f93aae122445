import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomstates import (
    DimensionError,
    PureDensity,
    RealifiedState,
    connection_form,
    critical_point_eigensolve,
    gellmann_basis,
    momentum_map,
    projected_hermitian,
    pushforward_check,
    quadratic_function,
    transition_probability,
)
from geomstates.realified import ZeroVectorError, expectation_trace_samples
from geomstates.states import NotExtremalError

from conftest import (
    operator_of_kind,
    random_hermitian,
    random_state,
    random_unit,
    unitary_exp,
)

SIGMA = gellmann_basis(2).elements


def tangent(z):
    """The realification (q, p) of a complex vector z."""
    return np.concatenate([np.real(z), np.imag(z)])


def test_momentum_map_basis_vector():
    psi = RealifiedState([1.0, 0.0], [0.0, 0.0])
    assert np.allclose(momentum_map(psi).op, np.diag([1.0, 0.0]))


def test_momentum_map_balanced_superposition():
    psi = RealifiedState([1.0, 1.0], [0.0, 0.0])
    assert np.allclose(momentum_map(psi).op, np.full((2, 2), 0.5))


def test_momentum_map_ray_invariance(rng):
    psi = random_state(rng, 3)
    scaled = RealifiedState.from_complex(3j * psi.to_complex())
    assert np.abs(momentum_map(psi).op - momentum_map(scaled).op).max() < 1e-12


def test_momentum_map_zero_rejected():
    with pytest.raises(ZeroVectorError):
        momentum_map(RealifiedState([0.0], [0.0]))


def test_momentum_map_unitary_equivariance(rng):
    psi = random_state(rng, 3)
    u = unitary_exp(random_hermitian(rng, 3))
    lhs = momentum_map(RealifiedState.from_complex(u @ psi.to_complex())).op
    rhs = u @ momentum_map(psi).op @ u.conj().T
    assert np.abs(lhs - rhs).max() < 1e-10


def test_momentum_map_pullback_is_quadratic_function(rng):
    # <A, |psi><psi|> under the half-trace pairing equals f_A(psi)
    for _ in range(20):
        a = random_hermitian(rng, 3)
        psi = random_state(rng, 3)
        z = psi.to_complex()
        xi = np.outer(z, z.conj())
        pairing = 0.5 * np.trace(a @ xi).real
        assert abs(pairing - quadratic_function(a, psi)) < 1e-10


def _expectation(a, psi):
    """e_A(psi) = <psi, A psi> / <psi, psi>, where the library forms it: the
    first e_A sample of a flow."""
    return expectation_trace_samples(a, psi, 0.0)[0][0, 1]


def test_expectation_examples(rng):
    psi = random_state(rng, 3)
    assert abs(_expectation(np.eye(3), psi) - 1.0) < 1e-12
    e2 = RealifiedState([0.0, 1.0], [0.0, 0.0])
    assert abs(_expectation(SIGMA[3], e2) + 1.0) < 1e-14


def test_expectation_equals_trace_form(rng):
    for _ in range(100):
        a = random_hermitian(rng, 2)
        psi = random_state(rng, 2)
        assert abs(_expectation(a, psi)
                   - np.trace(momentum_map(psi).op @ a).real) < 1e-12


def test_connection_form_vertical_directions(rng):
    psi = random_state(rng, 3)
    z = psi.to_complex()
    assert abs(connection_form(psi, tangent(z)) - 1.0) < 1e-12
    assert abs(connection_form(psi, tangent(1j * z)) - 1j) < 1e-12


def test_connection_form_horizontal(rng):
    psi = random_state(rng, 3)
    z = psi.to_complex()
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v -= (z.conj() @ v) / (z.conj() @ z) * z
    assert abs(connection_form(psi, tangent(v))) < 1e-12


def test_projected_tensor_annihilates_vertical(rng):
    psi = random_state(rng, 3)
    z = psi.to_complex()
    for vz in (z, 1j * z):
        v = tangent(vz)
        assert abs(projected_hermitian(psi, v, v)) < 1e-12
    # <v, v> = 1e600 alone is beyond the float range; read at exact scale,
    # the vertical v still gives 0, with no warning
    assert projected_hermitian(_TINY, _ALONG, _ALONG) == 0


def test_projected_tensor_horizontal_unit():
    psi = RealifiedState([1.0, 0.0], [0.0, 0.0])
    v = tangent(np.array([0.0, 1.0], dtype=complex))
    assert abs(projected_hermitian(psi, v, v) - 1.0) < 1e-14


def test_projected_tensor_scale_invariance(rng):
    # ray invariance: scaling the base point and pushing the tangent
    # vectors forward by the same factor leaves the tensor unchanged
    psi = random_state(rng, 3)
    lam = 0.7 - 2.1j
    scaled = RealifiedState.from_complex(lam * psi.to_complex())
    vz = rng.normal(size=3) + 1j * rng.normal(size=3)
    wz = rng.normal(size=3) + 1j * rng.normal(size=3)
    a = projected_hermitian(psi, tangent(vz), tangent(wz))
    b = projected_hermitian(scaled, tangent(lam * vz), tangent(lam * wz))
    assert abs(a - b) < 1e-12


def test_projected_tensor_psd_on_horizontal(rng):
    psi = random_state(rng, 3)
    z = psi.to_complex()
    for _ in range(100):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v -= (z.conj() @ v) / (z.conj() @ z) * z
        val = projected_hermitian(psi, tangent(v), tangent(v))
        assert val.real >= -1e-12


def test_transition_probability_examples(rng):
    rho1 = PureDensity(np.diag([1.0, 0.0]).astype(complex))
    rho2 = PureDensity(np.diag([0.0, 1.0]).astype(complex))
    assert transition_probability(rho1, rho1) == pytest.approx(1.0)
    assert transition_probability(rho1, rho2) == pytest.approx(0.0)
    plus = momentum_map(RealifiedState([1, 1], [0, 0]))
    assert transition_probability(rho1, plus) == pytest.approx(0.5)


def test_transition_probability_bounds_symmetry(rng):
    for _ in range(200):
        z1, z2 = random_unit(rng, 3), random_unit(rng, 3)
        r1 = PureDensity(np.outer(z1, z1.conj()))
        r2 = PureDensity(np.outer(z2, z2.conj()))
        p = transition_probability(r1, r2)
        assert -1e-12 <= p <= 1 + 1e-12
        assert abs(p - transition_probability(r2, r1)) < 1e-12
        if p > 1 - 1e-12:
            assert np.abs(r1.op - r2.op).max() < 1e-8


def test_non_extremal_rejected():
    with pytest.raises(NotExtremalError):
        PureDensity(np.eye(2) / 2)


# -- scale: the maps read psi through RealifiedState.unit and norm ---------

def _state_of_kind(rng, n, kind, phase):
    """e^(i phase) times a random psi, one with about half its entries 0, or
    a basis vector."""
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    if kind == "sparse":
        z[rng.random(n) < 0.5] = 0.0
        z[rng.integers(n)] = 1.0
    elif kind == "basis":
        z = np.eye(n)[rng.integers(n)].astype(complex)
    return RealifiedState.from_complex(np.exp(1j * phase) * z)


def _times_two_to(psi, e):
    return RealifiedState(np.ldexp(psi.q, e), np.ldexp(psi.p, e))


def _assume_exact(x, e):
    """x * 2**e, drawn only where it scales back to x bit for bit: an entry
    that goes subnormal loses bits, and the maps then differ in them."""
    y = np.ldexp(x, e)
    assume(np.array_equal(np.ldexp(y, -e), x))
    return y


SCALE_DRAWS = dict(
    n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "sparse", "basis"]),
    phase=st.floats(0.0, 2 * np.pi))


@settings(max_examples=150, deadline=None)
@given(e=st.integers(-600, 600), **SCALE_DRAWS)
def test_ray_maps_bit_identical_at_any_scale(n, seed, kind, phase, e):
    # psi * 2**e has the unit vector of psi bit for bit, because scaling by a
    # power of two is exact; |psi|^2 itself underflows below about 2**-537
    # and overflows above about 2**512.
    rng = np.random.default_rng(seed)
    psi = _state_of_kind(rng, n, kind, phase)
    big = RealifiedState(_assume_exact(psi.q, e), _assume_exact(psi.p, e))
    a = random_hermitian(rng, n)
    assert np.array_equal(momentum_map(big).op, momentum_map(psi).op)
    assert _expectation(a, big) == _expectation(a, psi)


@settings(max_examples=150, deadline=None)
@given(e=st.integers(-1000, 1000), **SCALE_DRAWS)
def test_ray_tensors_bit_identical_when_psi_v_w_scale_together(
        n, seed, kind, phase, e):
    # theta and the projected tensor are homogeneous of degree 0 in
    # (psi, v, w) together, and read each at its exact scale, so they hold
    # wherever psi, v and w scale exactly.
    rng = np.random.default_rng(seed)
    psi = _state_of_kind(rng, n, kind, phase)
    v, w = (tangent(rng.normal(size=n) + 1j * rng.normal(size=n))
            for _ in range(2))
    big = RealifiedState(_assume_exact(psi.q, e), _assume_exact(psi.p, e))
    bv, bw = (_assume_exact(t, e) for t in (v, w))
    assert connection_form(big, bv) == connection_form(psi, v)
    assert projected_hermitian(big, bv, bw) == projected_hermitian(psi, v, w)


# U psi takes one n-term matvec and U rho U^dagger two n-term matrix
# products of unit-size entries; the pairing (1/2) Tr(A |psi><psi|) and f_A
# are n-term sums bounded by ||A|| |psi|^2.  Over 20,000 draws of
# _state_of_kind at n = 2...12, with psi and A scaled by 10**-50...10**50,
# the differences stayed under 3.5 n eps and 0.35 n eps ||A|| |psi|^2;
# C_EQUIV = 16 and C_PULLBACK = 4 leave margins of 4x and 11x.
C_EQUIV = 16.0
C_PULLBACK = 4.0


@settings(max_examples=150, deadline=None)
@given(exps=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
       a_kind=st.sampled_from(["random", "degenerate", "rank-deficient"]),
       **SCALE_DRAWS)
def test_momentum_map_equivariance_and_pullback_across_n(
        n, seed, kind, phase, exps, a_kind):
    rng = np.random.default_rng(seed)
    psi = _state_of_kind(rng, n, kind, phase)
    z = psi.to_complex() * 10.0 ** exps[0]
    psi = RealifiedState.from_complex(z)
    eps = np.finfo(float).eps
    u = unitary_exp(random_hermitian(rng, n))
    lhs = momentum_map(RealifiedState.from_complex(u @ z)).op
    rhs = u @ momentum_map(psi).op @ u.conj().T
    assert np.abs(lhs - rhs).max() <= C_EQUIV * n * eps
    a = operator_of_kind(rng, n, a_kind) * 10.0 ** exps[1]
    pairing = 0.5 * np.trace(a @ np.outer(z, z.conj())).real
    assert abs(pairing - quadratic_function(a, psi)) <= (
        C_PULLBACK * n * eps * np.linalg.norm(a, 2) * psi.norm() ** 2)


@pytest.mark.parametrize("x, want", [
    (1e-170, math.hypot(1e-170, 1e-170)),  # the sum of squares underflows
    (1e200, math.hypot(1e200, 1e200)),  # the sum of squares overflows
    (0.0, 0.0),
])
def test_norm_at_any_scale(x, want):
    eps = np.finfo(float).eps
    assert abs(RealifiedState([x, x], [0.0, 0.0]).norm() - want) <= 2 * eps * want


def test_norm_beyond_the_float_range_raises():
    with pytest.raises(OverflowError, match=r"^norm overflow: "):
        RealifiedState([1e308, 1e308], [1e308, 1e308]).norm()  # 2e308


def test_unit_is_scaled_exactly(rng):
    psi = random_state(rng, 5)
    for e in (-1000, -600, 0, 600, 1000):
        assert np.array_equal(_times_two_to(psi, e).unit(), psi.unit())
    u = psi.unit()
    assert abs(u @ u - 1.0) <= 4 * np.finfo(float).eps


def test_pushforward_accepts_a_tiny_state():
    psi = RealifiedState([1e-170, 1e-170], [0.0, 0.0])
    lhs, rhs = pushforward_check(psi, np.eye(2), np.eye(2))
    assert np.isfinite(lhs) and np.isfinite(rhs)


def test_pushforward_reads_its_operands_at_exact_scale():
    # AB + BA and |psi><psi| (AB - BA) overflow when formed from A at
    # 2**1022, though both sides of the identity are near 3e307
    a = np.array([[1, 2j], [-2j, 0.5]]) * 2.0**1022
    b = np.array([[0.5, 1.0], [1.0, -0.75]])
    psi = RealifiedState.from_complex([0.75 + 0.25j, 0.5 - 0.5j])
    lhs, rhs = pushforward_check(psi, a, b)
    assert np.isfinite(rhs) and rhs == lhs


def test_one_zero_vector_error():
    assert issubclass(ZeroVectorError, ValueError)


@pytest.mark.parametrize("call", [
    lambda psi: psi.unit(),
    momentum_map,
    lambda psi: expectation_trace_samples(np.eye(2), psi, 1.0),
    lambda psi: connection_form(psi, tangent(np.ones(2))),
    lambda psi: projected_hermitian(psi, tangent(np.ones(2)),
                                    tangent(np.ones(2))),
    lambda psi: pushforward_check(psi, np.eye(2), np.eye(2)),
    lambda psi: critical_point_eigensolve(np.eye(2), psi),
])
def test_every_entry_point_refuses_the_zero_vector(call):
    with pytest.raises(ZeroVectorError):
        call(RealifiedState([0.0, -0.0], [0.0, 0.0]))


_PSI2 = RealifiedState([0.6, 0.8], [0.0, 0.0])
_V2 = np.array([1.0, 0.0, 0.0, 0.0])
_V3 = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
# at psi = (1e-300, 0), <psi, v> / <psi, psi> = 1e600 along psi, and
# <v, v> / <psi, psi> = 1e1200 across it
_TINY = RealifiedState([1e-300, 0.0], [0.0, 0.0])
_ALONG = np.array([1e300, 0.0, 0.0, 0.0])
_ACROSS = np.array([0.0, 1e300, 0.0, 0.0])


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: transition_probability(
        PureDensity(np.diag([1.0, 0.0])), PureDensity(np.diag([1.0, 0, 0]))),
        DimensionError, "state dimensions differ",
        id="transition-dims"),
    pytest.param(lambda: PureDensity(np.diag([2.0, 0.0])), NotExtremalError,
                 "trace must be 1", id="pure-trace"),
    # a tangent vector of another dimension than psi
    pytest.param(lambda: connection_form(_PSI2, _V3), DimensionError,
                 r"^v must have shape \(4,\), got \(6,\)$",
                 id="connection-dims"),
    pytest.param(lambda: projected_hermitian(_PSI2, _V3, _V2), DimensionError,
                 r"^v must have shape \(4,\), got \(6,\)$",
                 id="projected-v-dims"),
    pytest.param(lambda: projected_hermitian(_PSI2, _V2, _V3), DimensionError,
                 r"^w must have shape \(4,\), got \(6,\)$",
                 id="projected-w-dims"),
    pytest.param(lambda: connection_form(_TINY, _ALONG), OverflowError,
                 r"^tensor overflow: <psi, v> / <psi, psi> is beyond the "
                 "float range$", id="connection-overflow"),
    pytest.param(lambda: projected_hermitian(_TINY, _ACROSS, _ACROSS),
                 OverflowError, "^tensor overflow: <v, w> / <psi, psi> is "
                 "beyond the float range$", id="projected-overflow"),
])
def test_projective_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_projected_hermitian_squares_the_norm_exactly():
    # pow(x, 2) rounds x = 4.638819309046799 and x * 2**-150 apart (21.51...42
    # against 21.51...416 after rescaling); x * x rounds both alike
    x = 4.638819309046799
    psi = RealifiedState([x, 0.0], [0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    big = _times_two_to(psi, -150)
    bv = np.ldexp(v, -150)
    assert projected_hermitian(big, bv, bv) == projected_hermitian(psi, v, v)
