"""The ray space: gauge-fixed rays, the momentum map onto rank-one
projectors, expectation values, the connection one-form, the projected
Hermitian tensor, and transition probabilities between extremal states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import DimensionError, check_hermitian
from .realified import RealifiedState, TangentVector, _operator_on

TOL_PURE = 1e-10


class ZeroVectorError(ValueError):
    """A nonzero vector was required."""


class NotExtremalError(ValueError):
    """Operation defined only on rank-one (pure) states."""


def _nonzero(psi: RealifiedState, message: str):
    """psi as a complex vector z and <z, z>; ZeroVectorError at z = 0."""
    z = psi.to_complex()
    n2 = float((z.conj() @ z).real)
    if n2 == 0.0:
        raise ZeroVectorError(message)
    return z, n2


@dataclass(frozen=True)
class Ray:
    """Equivalence class of a nonzero vector under nonzero complex scaling.

    The stored representative is the unit vector whose first nonvanishing
    coordinate is real and positive.
    """

    representative: RealifiedState

    @classmethod
    def from_state(cls, psi: RealifiedState) -> "Ray":
        z, n2 = _nonzero(psi, "cannot form the ray of the zero vector")
        z = z / np.sqrt(n2)
        for zk in z:
            if abs(zk) > 1e-14:
                z = z * (zk.conjugate() / abs(zk))
                break
        return cls(RealifiedState.from_complex(z))


@dataclass(frozen=True)
class PureDensity:
    """A rank-one projector with unit trace."""

    op: np.ndarray

    def __post_init__(self):
        op = check_hermitian(self.op)
        object.__setattr__(self, "op", op)
        if abs(np.trace(op).real - 1.0) > 1e-12:
            raise NotExtremalError("trace must be 1")
        if np.abs(op @ op - op).max() > TOL_PURE:
            raise NotExtremalError("operator is not idempotent (not rank one)")

    @property
    def dim(self) -> int:
        return self.op.shape[0]


def momentum_map(psi: RealifiedState) -> PureDensity:
    """psi -> |psi><psi| / <psi, psi>, the normalized rank-one projector.

    Invariant under rescaling psi by any nonzero complex number.
    """
    z, n2 = _nonzero(psi, "momentum map undefined at the zero vector")
    return PureDensity(np.outer(z, z.conj()) / n2)


def expectation(a: np.ndarray, psi: RealifiedState) -> float:
    """e_A(psi) = <psi, A psi> / <psi, psi>; scale invariant."""
    a = _operator_on(a, psi)
    z, n2 = _nonzero(psi, "expectation undefined at the zero vector")
    return float((z.conj() @ (a @ z)).real) / n2


def connection_form(psi: RealifiedState, v: TangentVector) -> complex:
    """theta(psi)(v) = <psi, v> / <psi, psi>.

    Vertical directions are recovered exactly: theta on the dilation
    direction is 1 and on its J-rotation is i.
    """
    z, n2 = _nonzero(psi, "connection form undefined at the zero vector")
    return complex(z.conj() @ v.to_complex()) / n2


def projected_hermitian(psi: RealifiedState, v: TangentVector,
                        w: TangentVector) -> complex:
    """The Hermitian tensor that descends to the ray space, evaluated on
    (v, w):

        <v, w>/<psi,psi> - <v, psi><psi, w>/<psi,psi>^2

    Annihilates the dilation direction and its J-rotation; invariant under
    rescaling psi.
    """
    z, n2 = _nonzero(psi, "tensor undefined at the zero vector")
    vc = v.to_complex()
    wc = w.to_complex()
    return complex(vc.conj() @ wc) / n2 - complex(
        (vc.conj() @ z) * (z.conj() @ wc)
    ) / n2**2


def transition_probability(rho1: PureDensity, rho2: PureDensity) -> float:
    """p(rho1, rho2) = Tr(rho1 rho2) on extremal states.

    Symmetric, valued in [0, 1], and equal to 1 exactly when the two
    projectors coincide.
    """
    if rho1.dim != rho2.dim:
        raise DimensionError("state dimensions differ")
    return float(np.trace(rho1.op @ rho2.op).real)
