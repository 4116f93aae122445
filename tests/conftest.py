import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from geomstates import RealifiedState, spectral_oracle


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def operator_of_kind(rng, n, kind):
    """An exactly Hermitian random matrix, or one with integer eigenvalues
    repeated at n > 5, or one of rank about n / 2."""
    if kind == "random":
        return random_hermitian(rng, n)
    q = np.linalg.qr(random_hermitian(rng, n)
                     + 1j * random_hermitian(rng, n))[0]
    if kind == "degenerate":
        w = rng.integers(-2, 3, size=n).astype(float)
    else:
        w = np.where(rng.random(n) < 0.5, 0.0, rng.normal(size=n))
    m = (q * w) @ q.conj().T
    return (m + m.conj().T) / 2


# Draws of bracket_sample: n = 2...12, one operator kind, and powers of ten
# for A, B and psi.
BRACKET_DRAWS = dict(
    n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "degenerate", "rank-deficient"]),
    exps=st.tuples(*[st.integers(-50, 50)] * 3))


def bracket_sample(n, seed, kind, exps):
    """Two operators of one kind and a state, scaled by 10**exps."""
    rng = np.random.default_rng(seed)
    a = operator_of_kind(rng, n, kind) * 10.0 ** exps[0]
    b = operator_of_kind(rng, n, kind) * 10.0 ** exps[1]
    psi = RealifiedState(*(rng.normal(size=(2, n)) * 10.0 ** exps[2]))
    return a, b, psi


def exact_parts(rng, shape, zeros=0.0):
    """Reals 0 (with probability zeros) or of magnitude in [1/4, 1): exact
    when scaled by 2**u for u in [-1000, 1024]."""
    x = rng.uniform(0.25, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
    return np.where(rng.random(shape) < zeros, 0.0, x)


def exact_hermitian(rng, n):
    """A Hermitian matrix whose entries' parts are drawn by exact_parts; an
    entry and its mirror are conjugates, not sums, so no part cancels."""
    a = np.triu(exact_parts(rng, (n, n)) + 1j * exact_parts(rng, (n, n)), 1)
    return a + a.conj().T + np.diag(exact_parts(rng, n))


def random_state(rng, n):
    return RealifiedState(rng.normal(size=n), rng.normal(size=n))


def random_unit(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def unitary_exp(h, t=1.0):
    """exp(i t H) for Hermitian H via the spectral oracle."""
    w, v = spectral_oracle(h)
    return v @ np.diag(np.exp(1j * t * w)) @ v.conj().T


def subprocess_env():
    """The environment with src first on PYTHONPATH, for child interpreters
    that import geomstates from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture
def rng():
    return np.random.default_rng(7)
