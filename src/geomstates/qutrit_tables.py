"""Reference tables of three-level structure constants.

The C values and the d values with all indices in the traceless sector are
asserted against computed constants in the test suite.  The d entries that
involve the identity index are kept separately: the computed ground truth is
d[j,j,0] = 0 (the identity component is carried by the explicit delta term)
and d[0,j,j] = d[j,0,j] = +sqrt(2/3), which differs from the commonly
printed table values; those rows are reported, never asserted.
"""

from itertools import permutations

import numpy as np

SQ3 = np.sqrt(3.0)

_C_BASE = {
    (1, 2, 3): 1.0,
    (4, 5, 8): SQ3 / 2,
    (6, 7, 8): SQ3 / 2,
    (1, 4, 7): 0.5,
    (1, 5, 6): -0.5,
    (2, 4, 6): 0.5,
    (2, 5, 7): 0.5,
    (3, 4, 5): 0.5,
    (3, 6, 7): -0.5,
}

_D_BASE = {
    (1, 1, 8): 1 / SQ3,
    (2, 2, 8): 1 / SQ3,
    (3, 3, 8): 1 / SQ3,
    (8, 8, 8): -1 / SQ3,
    (4, 4, 8): -1 / (2 * SQ3),
    (5, 5, 8): -1 / (2 * SQ3),
    (6, 6, 8): -1 / (2 * SQ3),
    (7, 7, 8): -1 / (2 * SQ3),
    (3, 4, 4): 0.5,
    (3, 5, 5): 0.5,
    (3, 6, 6): -0.5,
    (3, 7, 7): -0.5,
    (1, 4, 6): 0.5,
    (1, 5, 7): 0.5,
    (2, 4, 7): -0.5,
    (2, 5, 6): 0.5,
}


def full_c_table() -> np.ndarray:
    """Totally antisymmetric C over flat indices 0..8."""
    c = np.zeros((9, 9, 9))
    for idx, v in _C_BASE.items():
        # the orderings of three distinct indices, with their parities
        for p, sign in zip(permutations(idx), (1, -1, -1, 1, 1, -1)):
            c[p] = sign * v
    return c


def full_d_table() -> np.ndarray:
    """Totally symmetric d over the traceless indices (0-row/col/slab zero)."""
    d = np.zeros((9, 9, 9))
    for (i, j, k), v in _D_BASE.items():
        for p in permutations((i, j, k)):
            d[p] = v
    return d

