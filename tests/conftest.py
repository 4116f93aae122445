import os
from pathlib import Path

import numpy as np
import pytest

from geomstates import RealifiedState, spectral_oracle


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


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
