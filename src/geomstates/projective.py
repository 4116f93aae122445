"""The ray space: gauge-fixed rays, the momentum map onto rank-one
projectors, expectation values, the connection one-form, the projected
Hermitian tensor, and transition probabilities between extremal states.
The maps take psi at any finite scale, through RealifiedState.unit and norm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DimensionError, check_hermitian, finite, real_array
from .realified import RealifiedState, TangentVector, _complex
from .realified import ZeroVectorError  # noqa: F401  raised by unit()
from .states import NotExtremalError, PureDensity, _one  # noqa: F401


@dataclass(frozen=True)
class Ray:
    """Equivalence class of a nonzero vector under nonzero complex scaling.

    The stored representative is the unit vector whose first nonvanishing
    coordinate is real and positive.
    """

    representative: RealifiedState

    @classmethod
    def from_state(cls, psi: RealifiedState) -> "Ray":
        z = _complex(psi.unit())
        zk = z[np.argmax(np.abs(z) > 1e-14)]  # a unit z has an entry that big
        return cls(RealifiedState.from_complex(z * (zk.conjugate() / abs(zk))))


def momentum_map(psi: RealifiedState) -> PureDensity:
    """psi -> |psi><psi| / <psi, psi>, the normalized rank-one projector.

    Invariant under rescaling psi by any nonzero complex number.
    """
    u = _complex(psi.unit())
    return PureDensity(np.outer(u, u.conj()))


def expectation(a: np.ndarray, psi: RealifiedState) -> float:
    """e_A(psi) = <psi, A psi> / <psi, psi>; scale invariant."""
    a = check_hermitian(a, psi.dim)
    u = _complex(psi.unit())
    return float((u.conj() @ (a @ u)).real)


def connection_form(psi: RealifiedState, v: TangentVector) -> complex:
    """theta(psi)(v) = <psi, v> / <psi, psi>.

    Vertical directions are recovered exactly: theta on the dilation
    direction is 1 and on its J-rotation is i.
    """
    u = _complex(psi.unit())
    vc = _complex(real_array(v.components, (2 * psi.dim,), "v"))
    return complex(u.conj() @ vc) / psi.norm()


def projected_hermitian(psi: RealifiedState, v: TangentVector,
                        w: TangentVector) -> complex:
    """The Hermitian tensor that descends to the ray space, evaluated on
    (v, w):

        <v, w>/<psi,psi> - <v, psi><psi, w>/<psi,psi>^2

    Annihilates the dilation direction and its J-rotation; invariant under
    rescaling psi.
    """
    u = _complex(psi.unit())
    vc = _complex(real_array(v.components, (2 * psi.dim,), "v"))
    wc = _complex(real_array(w.components, (2 * psi.dim,), "w"))
    nrm = psi.norm()  # nrm * nrm would be 0 at |psi| = 1e-300, or inf
    h = complex(vc.conj() @ wc - (vc.conj() @ u) * (u.conj() @ wc))
    return complex(finite(h / nrm / nrm, "tensor",
                          "<v, w> / <psi, psi> is beyond the float range"))


def transition_probability(rho1: PureDensity, rho2: PureDensity) -> float:
    """p(rho1, rho2) = Tr(rho1 rho2) on extremal states.

    Symmetric, valued in [0, 1], and equal to 1 exactly when the two
    projectors coincide.
    """
    if _one(rho1).dim != _one(rho2).dim:
        raise DimensionError("state dimensions differ")
    return float(np.trace(rho1.op @ rho2.op).real)
