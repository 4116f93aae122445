import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomstates import (
    BasisError,
    DimensionError,
    HermiticityError,
    OrthogonalBasis,
    RealifiedState,
    certify_densities,
    certify_density,
    check_hermitian,
    critical_point_eigensolve,
    flow_hamiltonian,
    from_dual,
    gellmann_basis,
    gradient_vf,
    hamiltonian_vf,
    jtilde_endo,
    quadratic_function,
    r_endo,
    spectral_oracle,
    star_product,
    structure_constants,
    to_dual,
)
from geomstates.basis import (
    MAX_BASIS_N,
    MAX_CONSTANTS_N,
    TOL_HERM,
    TOL_RANK,
    eigenpair_masks,
    exact_scale,
    numerical_rank,
    real_array,
)
from geomstates.realified import expectation_trace_samples
from geomstates.qutrit_tables import full_c_table, full_d_table

from conftest import operator_of_kind, random_hermitian


def test_two_level_basis_matches_fixed_convention():
    b = gellmann_basis(2)
    assert np.array_equal(b.elements[0], np.eye(2))
    assert np.array_equal(b.elements[1], np.array([[0, 1j], [-1j, 0]]))
    assert np.array_equal(b.elements[2], np.array([[0, 1], [1, 0]]))
    assert np.array_equal(b.elements[3], np.diag([1.0, -1.0]))


def test_three_level_basis_spot_values():
    b = gellmann_basis(3)
    assert np.allclose(b.elements[0], np.sqrt(2 / 3) * np.eye(3))
    assert np.array_equal(b.elements[3], np.diag([1.0, -1.0, 0.0]))
    assert np.allclose(b.elements[8], np.diag([1.0, 1.0, -2.0]) / np.sqrt(3))
    assert np.array_equal(b.elements[2],
                          np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]]))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_trace_orthonormality(n):
    b = gellmann_basis(n)
    stack = b.elements
    gram = np.einsum("aij,bji->ab", stack, stack)
    assert np.abs(gram - 2 * np.eye(n * n)).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cached_basis_is_read_only(n):
    b = gellmann_basis(n)
    assert gellmann_basis(n) is b
    assert not b.elements.flags.writeable
    with pytest.raises(ValueError):
        b.elements[0, 0, 0] = 2.0
    mine = b.elements.copy()
    OrthogonalBasis(n, mine)
    assert mine.flags.writeable  # the caller's array is not frozen


def test_invalid_dimension():
    with pytest.raises(DimensionError):
        gellmann_basis(1)


def test_c_total_antisymmetry_traceless_sector():
    for n in (2, 3):
        c = structure_constants(gellmann_basis(n)).c[1:, 1:, 1:]
        assert np.abs(c + c.transpose(1, 0, 2)).max() < 1e-12
        assert np.abs(c + c.transpose(0, 2, 1)).max() < 1e-12


def test_qutrit_c_values_match_table():
    sc = structure_constants(gellmann_basis(3))
    assert np.abs(sc.c - full_c_table()).max() < 1e-12


def test_qutrit_d_values_match_table_traceless():
    sc = structure_constants(gellmann_basis(3))
    assert np.abs(sc.d[1:, 1:, 1:] - full_d_table()[1:, 1:, 1:]).max() < 1e-12


def paper_zero_index_d(mu: int, nu: int, rho: int) -> float:
    """The printed table value for a d entry with an identity index."""
    idx = (mu, nu, rho)
    if idx.count(0) != 1:
        return 0.0
    rest = [i for i in idx if i != 0]
    if rest[0] != rest[1]:
        return 0.0
    return np.sqrt(2.0 / 3.0) if idx[2] == 0 else -np.sqrt(2.0 / 3.0)


def test_qutrit_d_zero_index_reported_not_asserted(capsys):
    # Computed ground truth: the (mu, mu, 0) component is absorbed by the
    # explicit identity term, and d[0, j, j] is positive.  The printed table
    # gives sqrt(2/3) / -sqrt(2/3) instead; record the discrepancy.
    sc = structure_constants(gellmann_basis(3))
    root23 = np.sqrt(2 / 3)
    mismatches = []
    for j in range(1, 9):
        assert abs(sc.d[j, j, 0] - 0.0) < 1e-12
        assert abs(sc.d[0, j, j] - root23) < 1e-12
        assert abs(sc.d[j, 0, j] - root23) < 1e-12
        for idx in ((j, j, 0), (0, j, j), (j, 0, j)):
            table = paper_zero_index_d(*idx)
            if abs(sc.d[idx] - table) > 1e-12:
                mismatches.append((idx, float(sc.d[idx]), float(table)))
    print(f"zero-index d table discrepancies (computed vs printed): {mismatches}")
    assert mismatches  # the table really does disagree; keep that visible


def test_two_level_c_is_levi_civita():
    sc = structure_constants(gellmann_basis(2))
    eps = np.zeros((4, 4, 4))
    eps[1, 2, 3] = eps[2, 3, 1] = eps[3, 1, 2] = 1.0
    eps[2, 1, 3] = eps[1, 3, 2] = eps[3, 2, 1] = -1.0
    assert np.abs(sc.c - eps).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_product_reconstruction_from_constants(n):
    b = gellmann_basis(n)
    sc = structure_constants(b)
    stack = b.elements
    m = n * n
    for mu in range(m):
        for nu in range(m):
            rec = (
                1j * np.einsum("r,rij->ij", sc.c[mu, nu], stack)
                + np.sqrt(2 / n) * (mu == nu) * stack[0]
                + np.einsum("r,rij->ij", sc.d[mu, nu], stack)
            )
            assert np.abs(stack[mu] @ stack[nu] - rec).max() < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_structure_constants_match_textbook_einsum(n):
    b = gellmann_basis(n).elements
    m = n * n
    # T[a, b, c] = Tr(b_a b_b b_c), contracted the textbook way
    prod = np.einsum("aij,bjk->abik", b, b)
    triple = np.einsum("abik,cki->abc", prod, b)
    c = ((triple - triple.transpose(1, 0, 2)) / 4.0).imag
    d = ((triple + triple.transpose(1, 0, 2)) / 4.0).real
    d[np.arange(m), np.arange(m), 0] -= np.sqrt(2.0 / n)
    sc = structure_constants(gellmann_basis(n))
    assert np.abs(sc.c - c).max() <= 1e-15
    assert np.abs(sc.d - d).max() <= 1e-15


@functools.lru_cache(maxsize=1)
def _constants(n):
    return structure_constants(gellmann_basis(n))


# Each C or d entry is half a triple trace of basis matrices whose entries
# have modulus at most sqrt(2), a sum of at most about 2n nonzero rounded
# products, so its rounding error is a small multiple of n eps.  Over
# n = 2...12 the symmetry and zero-index checks stayed within 0.34 n eps
# and the reconstruction within 0.5 n eps; C_CONST = 2 leaves 4x.
C_CONST = 2.0
EPS = np.finfo(float).eps


@pytest.mark.parametrize("n", range(2, 13))
def test_structure_constant_symmetries_across_n(n):
    sc = _constants(n)
    c, d, m = sc.c, sc.d, n * n
    tol = C_CONST * n * EPS
    # C is totally antisymmetric
    assert np.abs(c + c.transpose(1, 0, 2)).max() <= tol
    assert np.abs(c + c.transpose(0, 2, 1)).max() <= tol
    # d is totally symmetric over the traceless indices 1..n^2-1
    dt = sc.d_traceless
    assert np.abs(dt - dt.transpose(1, 0, 2)).max() <= tol
    assert np.abs(dt - dt.transpose(0, 2, 1)).max() <= tol
    # the entries with a 0 index, as the StructureConstants docstring says
    assert max(np.abs(c[0]).max(), np.abs(c[:, 0]).max(),
               np.abs(c[:, :, 0]).max(), np.abs(d[:, :, 0]).max()) <= tol
    delta = np.sqrt(2.0 / n) * np.eye(m)[:, 1:]
    assert np.abs(d[0, :, 1:] - delta).max() <= tol
    assert np.abs(d[:, 0, 1:] - delta).max() <= tol


@pytest.mark.parametrize("n", range(2, 9))
def test_product_reconstruction_batched(n):
    # b_mu b_nu = i C_mu,nu,rho b_rho + sqrt(2/n) delta_mu,nu b_0
    #             + d_mu,nu,rho b_rho, for every pair at once
    sc, stack, m = _constants(n), gellmann_basis(n).elements, n * n
    rec = np.einsum("abr,rij->abij", 1j * sc.c + sc.d, stack)
    rec[np.arange(m), np.arange(m)] += np.sqrt(2.0 / n) * stack[0]
    prod = stack[:, None] @ stack[None]
    assert np.abs(prod - rec).max() <= C_CONST * n * EPS


# The Jordan product (AB + BA)/2 and the Lie product (AB - BA)/(2i) in
# coordinates: sqrt(2/n) (y.z) e_0 + y_mu z_nu d_mu,nu and y_mu z_nu C_mu,nu.
# Both sides sum O(n) rounded products per entry after the coordinates,
# within a small multiple of n eps ||A|| ||B||; over 3,300 draws at
# n = 2...12 the difference stayed under 0.62 of that unit, and 4 units
# leave a margin of 6x.
@pytest.mark.parametrize("n", range(2, 13))
@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["random", "degenerate", "rank-deficient"]),
       exps=st.tuples(*[st.integers(-50, 50)] * 2))
def test_jordan_and_lie_products_from_constants(n, seed, kind, exps):
    rng = np.random.default_rng(seed)
    a = operator_of_kind(rng, n, kind) * 10.0 ** exps[0]
    b = operator_of_kind(rng, n, kind) * 10.0 ** exps[1]
    basis, sc = gellmann_basis(n), _constants(n)
    y, z = to_dual(a, basis), to_dual(b, basis)
    jordan = np.einsum("a,b,abr->r", y, z, sc.d)
    jordan[0] += np.sqrt(2.0 / n) * (y @ z)
    lie = np.einsum("a,b,abr->r", y, z, sc.c)
    h = a @ b  # h + h^dagger and -i(h - h^dagger) are exactly Hermitian
    tol = 4 * n * EPS * np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
    assert np.abs(jordan - to_dual((h + h.conj().T) / 2, basis)).max() <= tol
    assert np.abs(lie - to_dual(-0.5j * (h - h.conj().T), basis)).max() <= tol


def _spectral_rule(w, tol=TOL_RANK):
    # the rule certification used before numerical_rank
    return (w > tol * np.maximum(w[..., :1], tol)).sum(axis=-1)


def _svd_rule(s, tol=TOL_RANK):
    # the rule the tensor ranks used before numerical_rank
    top = s[0] if s.size and s[0] > 0 else 1.0
    return int(np.sum(s > tol * top))


def _unitary(rng, n):
    return np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_numerical_rank_matches_former_rules(rng, n):
    # values at 0, 0.5 and 2 times the cut tol * top, below a top in (0, 1]
    mats, want_rank = [], []
    for k in range(1, n + 1):
        for c in (0.0, 0.5, 2.0):
            big = rng.uniform(0.2, 1.0, size=k)
            w = np.concatenate([big, np.full(n - k, c * TOL_RANK * big.max())])
            u = _unitary(rng, n)
            mats.append((u * (w / w.sum())) @ u.conj().T)
            want_rank.append(n if c == 2.0 else k)
    cert = certify_densities(np.array(mats))
    assert cert.accepted.all()
    spectra = cert.spectrum.reshape(n, 3, n)  # a leading batch shape
    assert np.array_equal(numerical_rank(spectra), _spectral_rule(spectra))
    assert cert.rank.tolist() == want_rank

    s_in = np.zeros((3 * n + 1, n * n))  # the last row: the zero matrix
    for i in range(3 * n):
        top = 10.0 ** rng.uniform(-3, 3)
        s_in[i, : 1 + i % n] = top * rng.uniform(0.2, 1.0, size=1 + i % n)
        s_in[i, 0] = top
        s_in[i, n:] = (0.0, 0.5, 2.0)[i % 3] * TOL_RANK * top
    mats = np.array([_unitary(rng, n * n) @ np.diag(row) @ _unitary(rng, n * n)
                     for row in s_in])
    s = np.linalg.svd(mats, compute_uv=False)
    want = [_svd_rule(row) for row in s]
    assert numerical_rank(s).tolist() == want
    assert [int(numerical_rank(row)) for row in s] == want
    assert want[-1] == 0 and max(want) == n * n


def test_structure_constants_rejects_non_orthogonal_basis():
    b = gellmann_basis(2)
    bad = OrthogonalBasis(2, (b.elements[0], b.elements[1],
                              b.elements[1], b.elements[3]))
    with pytest.raises(BasisError):
        structure_constants(bad)


def test_structure_constants_cap_refused_before_verify(monkeypatch):
    big = gellmann_basis(MAX_CONSTANTS_N + 1)

    def verify(self):
        raise AssertionError("verify ran")

    monkeypatch.setattr(OrthogonalBasis, "verify", verify)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionError,
                           match=f"^dimension must be <= {MAX_CONSTANTS_N}$"):
            structure_constants(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_to_dual_identity():
    y = to_dual(np.eye(2), gellmann_basis(2))
    assert np.allclose(y, [1, 0, 0, 0], atol=1e-14)


def test_to_dual_qubit_state_coordinates():
    y1, y2, y3 = 0.1, -0.2, 0.15
    rho = np.array([[0.5 + y3, y2 + 1j * y1], [y2 - 1j * y1, 0.5 - y3]])
    y = to_dual(rho, gellmann_basis(2))
    assert np.allclose(y, [0.5, y1, y2, y3], atol=1e-14)


def test_to_dual_reads_a_certified_state_as_its_operator(rng):
    # the state's op is not checked again, so only its shape is judged
    for n in (2, 3, 5):
        m = random_hermitian(rng, n)
        rho = certify_density(m @ m / np.trace(m @ m).real)
        basis = gellmann_basis(n)
        assert to_dual(rho, basis).tobytes() == to_dual(rho.op, basis).tobytes()
    with pytest.raises(DimensionError, match=r"^expected an operator of "
                       r"shape \(2, 2\), got \(5, 5\)$"):
        to_dual(rho, gellmann_basis(2))


def test_from_dual_pure_projector():
    op = from_dual(np.array([0.5, 0, 0, 0.5]), gellmann_basis(2))
    assert np.allclose(op, np.diag([1.0, 0.0]), atol=1e-14)


def test_dual_reconstruction_qutrit(rng):
    b = gellmann_basis(3)
    a = random_hermitian(rng, 3)
    y = to_dual(a, b)
    assert np.abs(from_dual(y, b) - a).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=9, max_size=9))
def test_dual_round_trip(ys):
    b = gellmann_basis(3)
    y = np.array(ys)
    assert np.abs(to_dual(from_dual(y, b), b) - y).max() < 1e-12


def test_to_dual_dimension_mismatch():
    with pytest.raises(DimensionError):
        to_dual(np.eye(3), gellmann_basis(2))


def test_spectral_oracle_diag():
    w, v = spectral_oracle(np.diag([1.0, 0.0]))
    assert np.allclose(w, [1, 0])
    assert abs(abs(v[0, 0]) - 1) < 1e-14


def test_spectral_oracle_flip():
    w, _ = spectral_oracle(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(w, [1, -1], atol=1e-14)


def test_spectral_oracle_reconstruction(rng):
    a = random_hermitian(rng, 3)
    w, v = spectral_oracle(a)
    rec = (v * w) @ v.conj().T
    assert np.abs(rec - a).max() < 1e-10
    assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-10
    assert abs(w.sum() - np.trace(a).real) < 1e-10
    assert abs((w**2).sum() - np.trace(a @ a).real) < 1e-10


def test_spectral_oracle_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        spectral_oracle(np.array([[0, 1], [0, 0]], dtype=complex))


def test_check_hermitian_stack_scales_each_matrix():
    big = np.diag([1e6, 0.0]).astype(complex)
    small = np.array([[0, 1e-9], [0, 0]], dtype=complex)
    stack = np.stack([big, big + small])
    check_hermitian(stack)  # skew 1e-9 is within 1e-10 * 1e6
    # Scaled by the largest matrix, `small` would pass; by its own, it fails.
    with pytest.raises(HermiticityError):
        check_hermitian(np.stack([big, small]))
    with pytest.raises(DimensionError):
        check_hermitian(np.zeros((2, 2, 3)))
    with pytest.raises(DimensionError):  # single-matrix consumers refuse
        spectral_oracle(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
def test_check_hermitian_rejects_non_finite(bad):
    a = np.eye(2, dtype=complex) / 2
    a[0, 1] = bad
    with pytest.raises(HermiticityError, match="non-finite"):
        check_hermitian(a)
    with pytest.raises(HermiticityError, match="non-finite"):
        check_hermitian(np.stack([np.eye(2), a]))


def _scaled_skew_rule(a):
    """The reference rule: every input takes the finite test and the skew
    test scaled per matrix, with check_hermitian's messages; an empty stack
    passes both."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    mag = np.abs(a)
    if not math.isfinite(mag.max(initial=0.0)):
        raise HermiticityError("matrix has non-finite entries")
    skew = np.abs(a - a.swapaxes(-2, -1).conj())
    if skew.max(initial=0.0) > TOL_HERM:
        scale = np.maximum(mag.max(axis=(-2, -1)), 1.0)
        if (skew.max(axis=(-2, -1)) > TOL_HERM * scale).any():
            raise HermiticityError("matrix is not Hermitian within tolerance")
    return a


# Entries written at (i, j), and conjugated at (j, i) when mirrored: NaN or
# +-inf in a real or an imaginary part, and huge parts.  The modulus of
# 1e308+1e308j is 1.41e308 and finite, that of 1.5e308+1.5e308j overflows,
# and 1.5e308 is above DBL_MAX / sqrt(2) with a finite modulus.
SPECIAL_ENTRIES = {
    "nan-re": complex(np.nan, 0.0), "nan-im": complex(0.0, np.nan),
    "inf-re": complex(np.inf, 0.0), "-inf-re": complex(-np.inf, 0.0),
    "inf-im": complex(0.0, np.inf), "-inf-im": complex(0.0, -np.inf),
    "1e308+1e308j": 1e308 + 1e308j, "1.5e308+1.5e308j": 1.5e308 + 1.5e308j,
    "1.5e308": complex(1.5e308, 0.0),
}
# Besides those: exactly Hermitian, or skewed at 0.5 or 2 times the matrix's
# own threshold TOL_HERM * max(max|a|, 1).
HERMITICITY_KINDS = ["hermitian", "skew-0.5", "skew-2", *SPECIAL_ENTRIES]


def _matrix_of_kind(rng, n, kind, exp, mirror):
    a = 10.0 ** exp * random_hermitian(rng, n)
    i, j = rng.choice(n, size=2, replace=False)
    if kind.startswith("skew"):
        a[i, j] += float(kind[5:]) * TOL_HERM * max(np.abs(a).max(), 1.0)
    elif kind in SPECIAL_ENTRIES:
        a[i, j] = SPECIAL_ENTRIES[kind]
        if mirror:
            a[j, i] = a[i, j].conjugate()
    return a


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(HERMITICITY_KINDS), max_size=4),
       exp=st.integers(-3, 6), mirror=st.booleans(), single=st.booleans(),
       layout=st.sampled_from(["contiguous", "transposed", "stack-stride",
                               "column-stride"]))
def test_check_hermitian_matches_the_scaled_skew_rule(n, seed, kinds, exp,
                                                      mirror, single, layout):
    """The exact-Hermitian pass decides every input as the scaled skew rule
    does, with the same message, in the library and under the CLI's
    errstate, for stacks (including empty ones) in any memory layout."""
    rng = np.random.default_rng(seed)
    stack = np.array([_matrix_of_kind(rng, n, k, exp, mirror) for k in kinds],
                     dtype=complex).reshape(len(kinds), n, n)
    if layout == "transposed":
        stack = stack.swapaxes(-2, -1)
    elif layout == "stack-stride":
        stack = np.repeat(stack, 2, axis=0)[::2]
    elif layout == "column-stride":
        wide = np.zeros((len(kinds), n, 2 * n), dtype=complex)
        wide[..., ::2] = stack
        stack = wide[..., ::2]
    if single and kinds:
        stack = stack[0]

    def outcome(rule):
        try:
            out = rule(stack)
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)
        return out.shape, out.tobytes()

    with np.errstate(over="ignore", invalid="ignore"):
        assert outcome(check_hermitian) == outcome(_scaled_skew_rule)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert outcome(check_hermitian) == outcome(_scaled_skew_rule)


# Every caller that knows the dimension n of its space passes it to
# check_hermitian: one rule, one message.
@pytest.mark.parametrize("call", [
    pytest.param(lambda a, psi: to_dual(a, gellmann_basis(2)), id="to_dual"),
    pytest.param(lambda a, psi: jtilde_endo(np.eye(2), a), id="jtilde_endo"),
    pytest.param(lambda a, psi: r_endo(np.eye(2), a), id="r_endo"),
    # a stack of points is judged at its matrices' n, not at its length
    pytest.param(lambda a, psi: jtilde_endo(np.stack([np.eye(2)] * 3), a),
                 id="jtilde_endo-stack"),
    pytest.param(lambda a, psi: r_endo(np.stack([np.eye(2)] * 3), a),
                 id="r_endo-stack"),
    pytest.param(quadratic_function, id="quadratic_function"),
    pytest.param(lambda a, psi: star_product(a, np.eye(2), psi),
                 id="star_product_a"),
    pytest.param(lambda a, psi: star_product(np.eye(2), a, psi),
                 id="star_product_b"),
    pytest.param(gradient_vf, id="gradient_vf"),
    pytest.param(hamiltonian_vf, id="hamiltonian_vf"),
    pytest.param(lambda a, psi: flow_hamiltonian(a, psi, 1.0),
                 id="flow_hamiltonian"),
    pytest.param(lambda a, psi: expectation_trace_samples(a, psi, 1.0),
                 id="expectation_trace_samples"),
    pytest.param(critical_point_eigensolve, id="critical_point_eigensolve"),
])
def test_operator_on_another_space_refused(call):
    psi = RealifiedState([0.6, 0.8], [0.0, 0.0])
    with pytest.raises(DimensionError, match=r"^expected an operator of "
                       r"shape \(2, 2\), got \(3, 3\)$"):
        call(np.eye(3), psi)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: check_hermitian(np.stack([np.eye(2)] * 2), 2),
                 DimensionError, r"got \(2, 2, 2\)$", id="stack-for-operator"),
    pytest.param(lambda: from_dual(np.zeros(3), gellmann_basis(2)),
                 DimensionError, r"^coordinates must have shape \(4,\), got "
                 r"\(3,\)$", id="from_dual"),
    pytest.param(lambda: OrthogonalBasis(2, np.zeros((3, 2, 2))), BasisError,
                 "need 4 elements", id="basis-shape"),
    # trace-orthonormal, with the identity last
    pytest.param(lambda: OrthogonalBasis(
        2, gellmann_basis(2).elements[::-1]).verify(), BasisError,
        r"element 0 must be sqrt\(2/n\) \* identity", id="basis-element-0"),
    # refused before the (n^2, n, n) array is allocated
    pytest.param(lambda: gellmann_basis(MAX_BASIS_N + 1), DimensionError,
                 f"must be <= {MAX_BASIS_N}, got {MAX_BASIS_N + 1}$",
                 id="basis-cap"),
    pytest.param(lambda: gellmann_basis(10**6), DimensionError,
                 f"must be <= {MAX_BASIS_N}", id="basis-far-above-cap"),
    # eigh's inf for an eigenvalue beyond the float range once made the cut
    # TOL_RANK * max|w| inf, and every mask empty
    *[pytest.param(lambda w=w: eigenpair_masks(np.array(w)), OverflowError,
                   "^spectrum overflow: an eigenvalue is beyond the float "
                   "range$", id=f"masks-{name}")
      for name, w in [("inf", [np.inf, 1.0]), ("nan", [1.0, np.nan]),
                      ("stack", [[1.0, 0.0], [0.0, -np.inf]])]],
    # einsum overflows silently: y_1 = (9e307 + 9e307) / 2
    pytest.param(lambda: to_dual(np.array([[0.5, 9e307], [9e307, 0.5]]),
                                 gellmann_basis(2)), OverflowError,
                 r"^coordinates overflow: a Tr\(b_mu A\) / 2 is beyond the "
                 "float range$", id="to_dual-overflow"),
])
def test_basis_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("k", [-900, -1, 0, 1, 1021, 1023])
def test_eigenpair_masks_do_not_depend_on_the_scale(k):
    # At 2**1023, w_i - w_j and w_i + w_j overflow; each spectrum is read at
    # its own exact scale, so the masks are those at 2**0, with no warning.
    w = np.array([[1.5, 1.5, 0.0, -1.5], [1.0, 0.5, 1e-12, 0.0],
                  [0.0, 0.0, 0.0, 0.0]])
    want = eigenpair_masks(w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eigenpair_masks(np.ldexp(w, k))
    assert all(np.array_equal(g, m) for g, m in zip(got, want))


def test_real_array_reads_a_real_vector_of_known_shape():
    x = real_array([1, -2.5, 1e308], (3,), "x")
    assert x.dtype == float and x.tolist() == [1.0, -2.5, 1e308]
    for bad in ([1.0, 2.0], 0.5, [[1.0, 2.0, 3.0]]):
        got = re.escape(str(np.shape(bad)))
        with pytest.raises(DimensionError,
                           match=rf"^x must have shape \(3,\), got {got}$"):
            real_array(bad, (3,), "x")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^x must be finite$"):
            real_array([0.0, bad, 0.0], (3,), "x")


@pytest.mark.parametrize("x, k", [
    (np.array([3.0, -0.25, 0.0]), 2),
    (np.array([[0.6, -1e-300], [7.0, 1.0]]), 3),
    (np.array([3 + 4j, -1e-3j]), 3),  # |3 + 4i| = 5
    (np.float64(5e-324), -1073),
    (1.7e308, 1024),
    (-0.75, 0),
    (np.zeros(4), 0),
    (np.zeros(2, dtype=complex), 0),
])
def test_exact_scale(x, k):
    out, got = exact_scale(x)
    assert got == k
    out = np.asarray(out)
    assert out.dtype == np.asarray(x).dtype
    m = np.abs(out).max()
    assert m == 0.0 or 0.5 <= m < 1.0
    # exact: scaling back by 2**k gives x bit for bit
    assert np.array_equal(np.ldexp(out.real, k), np.real(x))
    assert np.array_equal(np.ldexp(out.imag, k), np.imag(x))
