"""Hamiltonian flow conservation and the gradient eigensolver.

Samples the Schroedinger flow of a random Hermitian operator with the exact
propagator and reports the drift of the conserved quantities, then finds
the extreme eigenvalues by projected gradient ascent/descent (with
Barzilai-Borwein steps) on the expectation function and compares them
with a direct eigendecomposition.
"""

import numpy as np

from geomstates import (
    RealifiedState,
    critical_point_eigensolve,
    spectral_oracle,
)
from geomstates.realified import expectation_trace_samples

rng = np.random.default_rng(5)
m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
a = (m + m.conj().T) / 2

psi0 = RealifiedState(rng.normal(size=3), rng.normal(size=3))
_, norm_drift, e_drift = expectation_trace_samples(a, psi0, 10.0, step=1e-3)
print("Hamiltonian flow over t in [0, 10]"
      " (exact propagator, sampled every 1e-3):")
print(f"  norm drift:        {norm_drift:.2e}")
print(f"  expectation drift: {e_drift:.2e}")

print()
w, _ = spectral_oracle(a)
print(f"Oracle spectrum: {np.round(w, 8)}")
for mode, target in (("ascent", w[0]), ("descent", w[-1])):
    trace = []
    e, _, conv = critical_point_eigensolve(
        a, RealifiedState(rng.normal(size=3), rng.normal(size=3)),
        mode=mode, trace=trace)
    print(f"  {mode:7s}: eigenvalue {e:+.10f} after {trace[-1][0]} "
          f"iterations (error {abs(e - target):.2e}, converged={conv})")
