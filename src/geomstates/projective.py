"""The ray space: the momentum map onto rank-one projectors, the connection
one-form, the projected Hermitian tensor, and transition probabilities
between extremal states.  The maps take psi at any finite scale, through
RealifiedState.unit, and tangent vectors as float arrays (q, p) of shape
(2n,), read at their exact scale."""

from __future__ import annotations

import math

import numpy as np

from .basis import DimensionError, exact_scale, finite, real_array
from .realified import RealifiedState, _complex
from .states import PureDensity, _one


def momentum_map(psi: RealifiedState) -> PureDensity:
    """psi -> |psi><psi| / <psi, psi>, the normalized rank-one projector.

    Invariant under rescaling psi by any nonzero complex number.
    """
    u = _complex(psi.unit())
    return PureDensity(np.outer(u, u.conj()))


def connection_form(psi: RealifiedState, v: np.ndarray) -> complex:
    """theta(psi)(v) = <psi, v> / <psi, psi>.

    Vertical directions are recovered exactly: theta on the dilation
    direction is 1 and on its J-rotation is i.
    """
    u = _complex(psi.unit())
    x, k = psi._scaled()
    vs, kv = exact_scale(real_array(v, (2 * psi.dim,), "v"))
    t = complex(u.conj() @ _complex(vs)) / math.sqrt(x.dot(x))
    return complex(finite(t, "tensor", "<psi, v> / <psi, psi> is beyond the "
                          "float range", kv - k))


def projected_hermitian(psi: RealifiedState, v: np.ndarray,
                        w: np.ndarray) -> complex:
    """The Hermitian tensor that descends to the ray space, evaluated on
    (v, w):

        <v, w>/<psi,psi> - <v, psi><psi, w>/<psi,psi>^2

    Annihilates the dilation direction and its J-rotation; invariant under
    rescaling psi.
    """
    u = _complex(psi.unit())
    x, k = psi._scaled()
    vs, kv = exact_scale(real_array(v, (2 * psi.dim,), "v"))
    ws, kw = exact_scale(real_array(w, (2 * psi.dim,), "w"))
    vc, wc = _complex(vs), _complex(ws)
    nrm = math.sqrt(x.dot(x))
    h = complex(vc.conj() @ wc - (vc.conj() @ u) * (u.conj() @ wc))
    return complex(finite(h / nrm / nrm, "tensor", "<v, w> / <psi, psi> is "
                          "beyond the float range", kv + kw - 2 * k))


def transition_probability(rho1: PureDensity, rho2: PureDensity) -> float:
    """p(rho1, rho2) = Tr(rho1 rho2) on extremal states.

    Symmetric, valued in [0, 1], and equal to 1 exactly when the two
    projectors coincide.
    """
    if _one(rho1).dim != _one(rho2).dim:
        raise DimensionError("state dimensions differ")
    return float(np.trace(rho1.op @ rho2.op).real)
