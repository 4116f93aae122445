"""Geometry of finite-dimensional quantum state spaces.

The package covers four layers:

* ``basis`` — Hermitian matrix bases, structure constants, the real
  coordinate chart on the space of Hermitian operators, and the spectral
  oracle;
* ``realified`` — the Kahler structure of the underlying real Hilbert
  space, quadratic expectation functions and their brackets, and the
  projected-gradient eigensolver;
* ``dual_tensors`` / ``projective`` — the Poisson and Riemann-Jordan
  tensors on the dual of the unitary algebra, their distributions, and
  the ray-space layer (momentum map, connection form, transition
  probabilities);
* ``states`` — the convex body of density matrices: certification, rank
  strata, pure states, GL actions, faces, convex decompositions, and the
  tangency check for curves inside a stratum.
"""

from .basis import (
    BasisError,
    DimensionError,
    HermiticityError,
    OrthogonalBasis,
    StructureConstants,
    check_hermitian,
    from_dual,
    gellmann_basis,
    spectral_oracle,
    structure_constants,
    to_dual,
)
from .dual_tensors import (
    DistributionReport,
    TensorAtPoint,
    distributions_at,
    jtilde_endo,
    lambda_at,
    pushforward_check,
    r_endo,
    riemann_jordan_at,
)
from .projective import (
    connection_form,
    momentum_map,
    projected_hermitian,
    transition_probability,
)
from .realified import (
    KaehlerTriple,
    RealifiedState,
    bracket_g,
    bracket_omega,
    critical_point_eigensolve,
    flow_hamiltonian,
    gradient_vf,
    hamiltonian_vf,
    hermitian_split,
    quadratic_function,
    star_product,
)
from .states import (
    ConvexDecomposition,
    DensityState,
    FaceDescriptor,
    PureDensity,
    Rejection,
    TangencyReport,
    bloch_decompose_along,
    certify_densities,
    certify_density,
    convex_decompose_spectral,
    face_contains,
    face_of,
    gl_act_cone,
    gl_act_states,
    orbit_dimension,
    qubit_bloch_vector,
    qubit_from_bloch,
    qutrit_pure_from_bloch,
    qutrit_star,
    require_density,
    tangency_check,
    weyl_reduce,
)

__version__ = "0.1.0"
