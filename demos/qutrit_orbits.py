"""Qutrit state space: structure constants, strata, and orbit dimensions.

Prints a few of the su(3) structure constants, then classifies sample
density states by rank stratum and unitary-orbit dimension, and verifies the
pure-state star-product characterization n * n = n.
"""

import numpy as np

from geomstates import (
    gellmann_basis,
    orbit_dimension,
    qutrit_star,
    require_density,
    structure_constants,
    to_dual,
)

sc = structure_constants(gellmann_basis(3))
print("Selected su(3) structure constants:")
for idx in [(1, 2, 3), (4, 5, 8), (1, 4, 7), (8, 8, 8)]:
    print(f"  C{idx} = {sc.c[idx]:+.6f}   d{idx} = {sc.d[idx]:+.6f}")

print()
print("Strata and orbit dimensions:")
samples = {
    "pure state        ": np.diag([1.0, 0.0, 0.0]),
    "rank-2 boundary   ": np.diag([0.6, 0.4, 0.0]),
    "generic mixed     ": np.diag([0.5, 0.3, 0.2]),
    "degenerate pair   ": np.diag([0.4, 0.4, 0.2]),
    "maximally mixed   ": np.eye(3) / 3,
}
for name, op in samples.items():
    rho = require_density(op.astype(complex))
    print(f"  {name} rank {rho.rank}, unitary-orbit dimension "
          f"{orbit_dimension(rho)}")

print()
print("Pure-state star-product idempotency:")
rng = np.random.default_rng(11)
z = rng.normal(size=3) + 1j * rng.normal(size=3)
z /= np.linalg.norm(z)
n_vec = np.sqrt(3.0) * to_dual(np.outer(z, z.conj()), gellmann_basis(3))[1:]
err = np.abs(qutrit_star(n_vec, n_vec) - n_vec).max()
print(f"  |n| = {np.linalg.norm(n_vec):.12f},  max |n*n - n| = {err:.2e}")
