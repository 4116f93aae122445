"""The scale rule: each map f of degree d in an argument x satisfies
f(x * 2**e) == 2**(d e) f(x) bit for bit wherever that value is normal,
and refuses with OverflowError exactly where it is beyond the float range.

Every input is drawn with the real and imaginary parts of its entries 0 or
of magnitude in [1/4, 1), so it stays exact when scaled by 2**u for u in
[-1000, 1024]; each map is compared, at two such scales s and s + e, with
its value at the drawn input scaled by ldexp."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geomstates import (
    RealifiedState,
    gellmann_basis,
    gradient_vf,
    hamiltonian_vf,
    lambda_at,
    riemann_jordan_at,
)
from geomstates.basis import _ldexp, eigenpair_masks, exact_scale, finite
from geomstates.realified import expectation_trace_samples

from conftest import exact_hermitian, exact_parts

TINY = np.finfo(float).tiny
DBL_MAX = np.finfo(float).max


def _state(x, u):
    return RealifiedState(np.ldexp(x.q, u), np.ldexp(x.p, u))


def _check(call, want, u):
    """call() == want * 2**u wherever that is normal, or OverflowError where
    it is beyond the float range."""
    with np.errstate(over="ignore"):
        want = np.ldexp(np.asarray(want), u)
    if not np.isfinite(want).all():
        with pytest.raises(OverflowError, match=" overflow: "):
            call()
        return None
    got = np.asarray(call())
    normal = np.abs(want) >= TINY
    assert np.isfinite(got).all()
    assert np.array_equal(got[normal], want[normal])
    return got


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       s=st.integers(-1000, 1024), e=st.integers(-1000, 1000))
@example(n=2, seed=0, s=1023, e=0)  # past the float range before scaling
@example(n=12, seed=0, s=1010, e=-2000)
def test_maps_scale_by_powers_of_two_exactly(n, seed, s, e):
    assume(-1000 <= s + e <= 1024)
    rng = np.random.default_rng(seed)
    us = np.array([s, s + e])
    basis = gellmann_basis(n)

    # Lambda and R at a stack of two points, one per scale (d = 1 in y).
    # Each point is read at its exact scale, so where from_dual refuses the
    # operator sum_mu y[mu] b_mu as beyond the range, they still follow the
    # rule.
    y = exact_parts(rng, (2, n * n), zeros=0.3)
    ys = np.ldexp(y, us[:, None])
    for fn in (lambda_at, riemann_jordan_at):
        ref = fn(y, basis)
        got = _check(lambda: fn(ys, basis).matrix, ref.matrix,
                     us[:, None, None])
        if got is not None:
            assert np.array_equal(fn(ys, basis).rank(), ref.rank())

    # the D_lambda and D_R masks of two spectra, one per scale (d = 0)
    w = exact_parts(rng, (2, n), zeros=0.3)
    for got, want in zip(eigenpair_masks(np.ldexp(w, us[:, None])),
                         eigenpair_masks(w)):
        assert np.array_equal(got, want)

    # |psi| (d = 1) and both vector fields (d = 1 in A and in psi); A's
    # scale stops at 2**1023, where each |A_ij| is still finite
    psi = RealifiedState(exact_parts(rng, n), exact_parts(rng, n))
    a, ua = exact_hermitian(rng, n), min(s, 1023)
    scaled = np.ldexp(a.real, ua) + 1j * np.ldexp(a.imag, ua)
    _check(lambda: _state(psi, s + e).norm(), psi.norm(), s + e)
    for vf in (gradient_vf, hamiltonian_vf):
        _check(lambda: vf(scaled, _state(psi, s + e)), vf(a, psi),
               ua + s + e)

    # the e_A column (d = 1 in A) and the norm column (d = 1 in psi) of a
    # flow of length 0, whose samples are psi itself.  A is diagonal: its
    # eigenvectors are then exact at any scale, where LAPACK rescales a
    # matrix beyond about 1e+-150 by a factor that is not a power of two.
    d = exact_parts(rng, n, zeros=0.3)
    want = expectation_trace_samples(np.diag(d), psi, 0.0)[0]
    for u, col, arg in ((s, 1, lambda: (np.diag(np.ldexp(d, s)), psi)),
                        (s + e, 2, lambda: (np.diag(d), _state(psi, s + e)))):
        _check(lambda: expectation_trace_samples(*arg(), 0.0)[0][:, col],
               want[:, col], u)


# -- floats and k = 0: the rule at scalar cost ------------------------------
# A Python float, a numpy float64 and a 0-d array of the same value: the
# first two take math.frexp/math.ldexp, the last numpy's.
EDGES = (0.0, -0.0, 5e-324, 2.0**-1022, 1.0, 2.0**1023, DBL_MAX, np.inf,
         -np.inf, np.nan)
FORMS = (float, np.float64, np.array)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("x", EDGES)
def test_exact_scale_is_the_same_on_every_float_form(x):
    (want, k), *others = (exact_scale(form(x)) for form in FORMS)
    assert type(k) is int
    for got, got_k in others:
        assert got_k == k and _bits(got) == _bits(want)  # -0.0 and NaN too


@pytest.mark.parametrize("x", EDGES)
@pytest.mark.parametrize("k", [0, -1, 1, -1074])
def test_finite_is_the_same_on_every_float_form(x, k):
    results = []
    for form in FORMS:
        try:
            results.append(_bits(finite(form(x), "x", "y", k)))
        except OverflowError as exc:
            results.append(str(exc))
    assert results[1:] == results[:-1]


@pytest.mark.parametrize("form", FORMS)
def test_finite_refuses_past_the_range_in_its_own_words(form):
    # math.ldexp would raise "math range error"; finite says what overflowed
    with pytest.raises(OverflowError, match="^x overflow: y$"):
        finite(form(DBL_MAX), "x", "y", 1)
    with np.errstate(over="ignore"):  # as numpy's ldexp: +-inf, signed
        assert _bits(_ldexp(form(-DBL_MAX), 1)) == _bits(-np.inf)


def test_k_zero_hands_back_the_array_itself():
    z = np.array([[[1 + 2j, -0.0 - 3j], [np.inf + 0j, 0.5j]]] * 3)
    assert _ldexp(z, 0) is z
    finite_rows = z[:, :1]
    assert finite(finite_rows, "x", "y", 0) is finite_rows


@pytest.mark.parametrize("axis", [None, -1, (-2, -1)])
def test_complex_scaling_is_part_by_part(axis):
    # one k per member; the overflowing real part of (DBL_MAX, 0) goes to
    # inf and the zero imaginary part stays 0, not 0 * inf = NaN
    z = np.array([[[DBL_MAX + 0j, 0.25 - 0.5j]], [[-3 + 0j, 2**-1074j]]])
    x, k = exact_scale(z, axis=axis)
    assert x.dtype == z.dtype and x is not z
    for u in (0, 1, -1075):
        with np.errstate(over="ignore"):
            got = _ldexp(x, k + u)
            want = (np.ldexp(x.real, k + u), np.ldexp(x.imag, k + u))
        assert _bits(got.real) == _bits(want[0])
        assert _bits(got.imag) == _bits(want[1])
