"""Tour of the qubit state space: the radius-1/2 Bloch ball.

Walks a line of candidate states through the ball, certifies each one,
and decomposes an interior point into boundary pure states.
"""

import numpy as np

from geomstates import (
    Rejection,
    bloch_decompose_along,
    certify_density,
    qubit_bloch_vector,
    qubit_from_bloch,
    require_density,
)

print("Candidate qubit states along the y3 axis:")
for y3 in np.linspace(0.0, 0.6, 7):
    out = certify_density(qubit_from_bloch(0.0, 0.0, y3))
    if isinstance(out, Rejection):
        print(f"  y3 = {y3:4.1f}: rejected ({out.violated})")
    else:
        print(f"  y3 = {y3:4.1f}: density state, rank {out.rank}, "
              f"spectrum {np.round(out.spectrum, 3)}")

print()
print("Interior point decomposed along a Bloch-line direction:")
rho = require_density(qubit_from_bloch(0.1, 0.0, 0.2))
dec = bloch_decompose_along(rho, [0.0, 0.0, 1.0])
for w, y in zip(dec.weights, qubit_bloch_vector(dec.components)):
    print(f"  weight {w:.4f} at boundary point {np.round(y, 4)} "
          f"(radius {np.linalg.norm(y):.4f})")
residual = np.abs(dec.reconstruct() - rho.op).max()
print(f"  reconstruction residual: {residual:.2e}")
