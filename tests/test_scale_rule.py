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
from geomstates.basis import eigenpair_masks
from geomstates.realified import expectation_trace_samples

TINY = np.finfo(float).tiny


def _parts(rng, shape, zeros=0.0):
    """Reals 0 (with probability zeros) or of magnitude in [1/4, 1)."""
    x = rng.uniform(0.25, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
    return np.where(rng.random(shape) < zeros, 0.0, x)


def _hermitian(rng, n):
    """A Hermitian matrix whose entries' parts are drawn by _parts; an entry
    and its mirror are conjugates, not sums, so no part cancels."""
    m = _parts(rng, (n, n)) + 1j * _parts(rng, (n, n))
    a = np.triu(m, 1)
    return a + a.conj().T + np.diag(_parts(rng, n))


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
    y = _parts(rng, (2, n * n), zeros=0.3)
    ys = np.ldexp(y, us[:, None])
    for fn in (lambda_at, riemann_jordan_at):
        ref = fn(y, basis)
        got = _check(lambda: fn(ys, basis).matrix, ref.matrix,
                     us[:, None, None])
        if got is not None:
            assert np.array_equal(fn(ys, basis).rank(), ref.rank())

    # the D_lambda and D_R masks of two spectra, one per scale (d = 0)
    w = _parts(rng, (2, n), zeros=0.3)
    for got, want in zip(eigenpair_masks(np.ldexp(w, us[:, None])),
                         eigenpair_masks(w)):
        assert np.array_equal(got, want)

    # |psi| (d = 1) and both vector fields (d = 1 in A and in psi); A's
    # scale stops at 2**1023, where each |A_ij| is still finite
    psi = RealifiedState(_parts(rng, n), _parts(rng, n))
    a, ua = _hermitian(rng, n), min(s, 1023)
    scaled = np.ldexp(a.real, ua) + 1j * np.ldexp(a.imag, ua)
    _check(lambda: _state(psi, s + e).norm(), psi.norm(), s + e)
    for vf in (gradient_vf, hamiltonian_vf):
        _check(lambda: vf(scaled, _state(psi, s + e)).components,
               vf(a, psi).components, ua + s + e)

    # the e_A column (d = 1 in A) and the norm column (d = 1 in psi) of a
    # flow of length 0, whose samples are psi itself.  A is diagonal: its
    # eigenvectors are then exact at any scale, where LAPACK rescales a
    # matrix beyond about 1e+-150 by a factor that is not a power of two.
    d = _parts(rng, n, zeros=0.3)
    want = expectation_trace_samples(np.diag(d), psi, 0.0)[0]
    for u, col, arg in ((s, 1, lambda: (np.diag(np.ldexp(d, s)), psi)),
                        (s + e, 2, lambda: (np.diag(d), _state(psi, s + e)))):
        _check(lambda: expectation_trace_samples(*arg(), 0.0)[0][:, col],
               want[:, col], u)
