import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomstates import (
    PAIRING_SCALE,
    calibrate_pairing_scale,
    distributions_at,
    from_dual,
    gellmann_basis,
    jtilde_endo,
    lambda_at,
    pushforward_check,
    r_endo,
    riemann_jordan_at,
    structure_constants,
    to_dual,
)
from geomstates.basis import triple_traces
from geomstates.states import certify_density, orbit_dimension

from conftest import (
    BRACKET_DRAWS,
    bracket_sample,
    operator_of_kind,
    random_hermitian,
    random_state,
)

B2 = gellmann_basis(2)
B3 = gellmann_basis(3)
SC3 = structure_constants(B3)


def expected_lambda_rank(y):
    return 0 if np.dot(y[1:], y[1:]) < 1e-18 else 2


def expected_r_rank(y):
    y0, v2 = y[0], float(np.dot(y[1:], y[1:]))
    if y0 * y0 + v2 < 1e-18:
        return 0
    if abs(y0) < 1e-9:
        return 2
    if abs(y0 * y0 - v2) < 1e-12:
        return 3
    return 4


def test_lambda_vanishes_at_identity_direction():
    for n, basis in ((2, B2), (3, B3)):
        y = np.zeros(n * n)
        y[0] = 1.0
        assert np.abs(lambda_at(y, basis).matrix).max() < 1e-14


def test_lambda_rank_two_at_pure_state():
    t = lambda_at(np.array([0.5, 0, 0, 0.5]), B2)
    assert t.rank() == 2
    assert np.abs(t.matrix + t.matrix.T).max() < 1e-12


def test_lambda_qubit_closed_form(rng):
    # 2 (y1 d2^d3 + y2 d3^d1 + y3 d1^d2) as a matrix over differentials
    y = np.concatenate([[0.5], rng.normal(size=3)])
    m = lambda_at(y, B2).matrix
    ref = np.zeros((4, 4))
    ref[2, 3] = 2 * y[1]
    ref[3, 1] = 2 * y[2]
    ref[1, 2] = 2 * y[3]
    ref -= ref.T
    assert np.abs(m - ref).max() < 1e-12


def test_lambda_qutrit_matches_constant_contraction(rng):
    y = rng.normal(size=9)
    m = lambda_at(y, B3).matrix
    ref = 2 * np.einsum("mnr,r->mn", SC3.c, y)
    assert np.abs(m + m.T).max() < 1e-12
    assert np.abs(m - ref).max() < 1e-10


def test_lambda_annihilates_identity_coordinate(rng):
    for basis in (B2, B3):
        y = rng.normal(size=basis.size)
        m = lambda_at(y, basis).matrix
        assert np.abs(m[0]).max() < 1e-12
        assert np.abs(m[:, 0]).max() < 1e-12


def test_lambda_bracket_jacobi_identity(rng):
    # cyclic sum of nested brackets of linear coordinate functions
    c = SC3.c
    for _ in range(20):
        y = rng.normal(size=9)
        a, b, d = (rng.normal(size=9) for _ in range(3))

        def brk(u, v):
            return 2 * np.einsum("mnr,m,n->r", c, u, v)

        total = (
            np.dot(brk(a, brk(b, d)), y)
            + np.dot(brk(b, brk(d, a)), y)
            + np.dot(brk(d, brk(a, b)), y)
        )
        assert abs(total) < 1e-10


def test_riemann_jordan_zero_point():
    assert np.abs(riemann_jordan_at(np.zeros(4), B2).matrix).max() == 0.0


def test_riemann_jordan_qubit_ranks():
    assert riemann_jordan_at(np.array([0.5, 0, 0, 0.5]), B2).rank() == 3
    assert riemann_jordan_at(np.array([0.5, 0, 0, 0.0]), B2).rank() == 4
    assert riemann_jordan_at(np.array([0.0, 0.1, 0.2, 0.0]), B2).rank() == 2


def test_riemann_jordan_symmetry_and_d_form(rng):
    y = rng.normal(size=9)
    m = riemann_jordan_at(y, B3).matrix
    assert np.abs(m - m.T).max() < 1e-12
    # coordinate form: 2 sqrt(2/3) y0 delta + 2 d_{mu nu rho} y^rho
    ref = (2 * np.sqrt(2 / 3) * y[0] * np.eye(9)
           + 2 * np.einsum("mnr,r->mn", SC3.d, y))
    assert np.abs(m - ref).max() < 1e-10


def test_qubit_rank_laws_small_grid():
    grid = np.linspace(-0.4, 0.4, 9)
    for y0 in grid:
        for y1 in grid:
            for y3 in (0.0, 0.2, -y1, y1):
                y = np.array([y0, y1, 0.0, y3])
                assert lambda_at(y, B2).rank() == expected_lambda_rank(y)
                assert riemann_jordan_at(y, B2).rank() == expected_r_rank(y)


def test_endomorphism_trivial_cases(rng):
    xi = random_hermitian(rng, 3)
    assert np.abs(jtilde_endo(xi, xi)).max() < 1e-12
    assert np.abs(r_endo(xi, np.eye(3)) - 2 * xi).max() < 1e-12


def test_endomorphisms_commute(rng):
    for _ in range(100):
        xi, a = random_hermitian(rng, 3), random_hermitian(rng, 3)
        jr = jtilde_endo(xi, r_endo(xi, a))
        rj = r_endo(xi, jtilde_endo(xi, a))
        assert np.abs(jr - rj).max() < 1e-12
        xi2 = xi @ xi
        assert np.abs(jr - (-1j) * (a @ xi2 - xi2 @ a)).max() < 1e-10


def test_distributions_central_point():
    y = np.array([1.0, 0, 0, 0])
    rep = distributions_at(y, B2)
    assert rep.dims[:3] == (0, 4, 0)


def test_distributions_generic_qubit():
    rep = distributions_at(np.array([0.5, 0.1, 0.2, 0.1]), B2)
    assert rep.dims == (2, 4, 2, 4)


def test_distributions_pure_qubit():
    rep = distributions_at(np.array([0.5, 0, 0, 0.5]), B2)
    assert rep.dims[2] == rep.dims[0] == 2


def test_distributions_where_xi_squared_is_scalar(rng):
    # At traceless qubit points xi^2 = |y|^2 I, and at multiples of the
    # identity xi^2 is one too: the Lambda matrix at xi^2 is round-off only,
    # and D_0 has dimension 0 at any scale of y.
    for _ in range(20):
        y = np.concatenate([[0.0], rng.normal(size=3)])
        assert distributions_at(y * 10.0 ** rng.integers(-6, 7), B2).dims \
            == (2, 2, 0, 4)
    for n in (3, 4):
        basis = gellmann_basis(n)
        for c in (1e-6, 0.3, 1.0, -2.5, 1e6):
            y = np.zeros(n * n)
            y[0] = c
            assert distributions_at(y, basis).dims == (0, n * n, 0, n * n)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 3, 4, 6]), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["degenerate", "rank-deficient"]),
       e=st.integers(-1000, 1000))
def test_distributions_dims_at_any_exact_scale(n, seed, kind, e):
    # The four distributions at xi and c xi (c > 0) are the same spaces.
    basis = gellmann_basis(n)
    y = to_dual(operator_of_kind(np.random.default_rng(seed), n, kind), basis)
    scaled = np.ldexp(y, e)
    assume(np.array_equal(np.ldexp(scaled, -e), y))  # exact scalings only
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert distributions_at(scaled, basis).dims == \
            distributions_at(y, basis).dims


@pytest.mark.parametrize("w", [[1.0, 1e-6, 0.0], [1.0, 3e-6, 1e-6],
                               [1.0, 1e-6, -2e-6, 0.0]])
def test_distributions_with_small_distinct_eigenvalues(rng, w):
    # Two distinct eigenvalues far below max|w| pass both the |w_i - w_j|
    # and the |w_i + w_j| cut, so their pair is in D_0, and the cross-check
    # through xi^2 must count it too.  The eigenvalues are distinct, no two
    # are opposite and at most one is zero.
    w = np.array(w)
    n, n0 = w.size, int((w == 0).sum())
    u = np.linalg.qr(random_hermitian(rng, n) + 1j * random_hermitian(rng, n))[0]
    basis = gellmann_basis(n)
    for xi in (np.diag(w), (u * w) @ u.conj().T):
        rep = distributions_at(to_dual(xi, basis), basis)
        assert rep.dims == (n * n - n, n * n - n0, n * n - n, n * n - n0)


def test_distribution_dimension_inequalities(rng):
    for _ in range(10):
        rep = distributions_at(rng.normal(size=9), B3)
        dim_lambda, dim_r, dim_0, dim_1 = rep.dims
        assert dim_0 <= min(dim_lambda, dim_r)
        assert dim_1 <= dim_lambda + dim_r
        assert dim_1 <= 9


def test_distribution_basis_operators_are_hermitian(rng):
    rep = distributions_at(rng.normal(size=4), B2)
    for op in from_dual(rep.basis_1.T, B2):
        assert np.abs(op - op.conj().T).max() < 1e-12


def _reference_span(m):
    """Orthonormal columns spanning the image of m (relative SVD cut 1e-9)."""
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, s > 1e-9 * s[0]] if s[0] > 0 else u[:, :0]


def _reference_distributions(y, basis):
    # Column nu holds the coordinates of jtilde/r applied to basis element nu.
    xi = from_dual(y, basis)
    ml, mr, m0 = (np.array([to_dual(f(x, b), basis) for b in basis.elements]).T
                  for f, x in ((jtilde_endo, xi), (r_endo, xi),
                               (jtilde_endo, xi @ xi)))
    # (1/i)[A, xi^2] = jtilde(r(A)) spans D_0 = D_lambda & D_R.
    return [_reference_span(m)
            for m in (ml, mr, m0, np.hstack([ml, mr]))]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_distributions_match_endomorphism_columns(rng, n):
    basis = gellmann_basis(n)
    points = [rng.normal(size=n * n) for _ in range(3)]
    for _ in range(6):
        # Repeated, zero and opposite eigenvalues put xi where Lambda, R
        # and Lambda(xi^2) lose rank.  The eigenvalues 1 and 0 keep Lambda
        # and Lambda(xi^2) away from zero, where only round-off is left.
        w = np.concatenate([[1.0, 0.0, -1.0][:n],
                            rng.choice([-1.0, -0.5, 0.0, 0.25, 1.0],
                                       size=max(n - 3, 0))])
        u = np.linalg.qr(random_hermitian(rng, n) + 1j * random_hermitian(rng, n))[0]
        points.append(to_dual((u * w) @ u.conj().T, basis))
    for y in points:
        rep = distributions_at(y, basis)
        got = (rep.basis_lambda, rep.basis_r, rep.basis_0, rep.basis_1)
        for mine, ref in zip(got, _reference_distributions(y, basis)):
            assert mine.shape == ref.shape
            assert np.abs(mine @ mine.T - ref @ ref.T).max() < 1e-12


def _principal_intersection(u, v):
    """span(u) & span(v) for orthonormal columns: the singular vectors of
    u^T v whose principal angle is within 1e-8 of 0."""
    if u.shape[1] == 0 or v.shape[1] == 0:
        return u[:, :0]
    w, s, _ = np.linalg.svd(u.T @ v)
    return u @ w[:, s > 1.0 - 1e-8]


def _svd_distributions(y, basis):
    """The SVD construction: column spaces of the Lambda and R matrices,
    each ranked against its own largest singular value, their principal-
    angle intersection, and the column space of the two bases side by
    side."""
    p = triple_traces(from_dual(y, basis), basis.elements)
    bl, br = _reference_span(p.imag), _reference_span(p.real)
    return bl, br, _principal_intersection(bl, br), \
        _reference_span(np.hstack([bl, br]))


# Eigenvalues with repeats, zeros and opposite pairs, whose distinct values
# are far apart on the scale of the largest.
PALETTE = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 2.0)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 12), data=st.data(),
       scale=st.sampled_from([1e-3, 1.0, 1e3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_distributions_closed_forms(n, data, scale, seed):
    w = scale * np.array(data.draw(st.one_of(
        st.lists(st.sampled_from(PALETTE), min_size=n, max_size=n),
        st.sampled_from(PALETTE).map(lambda c: [c] * n))))
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(random_hermitian(rng, n) + 1j * random_hermitian(rng, n))[0]
    basis = gellmann_basis(n)
    y = to_dual((u * w) @ u.conj().T, basis)
    rep = distributions_at(y, basis)

    mult = np.unique(w, return_counts=True)[1]
    n0 = int((w == 0).sum())
    # dim D_lambda = n^2 - sum m_k^2 (unitary orbit), dim D_1 = n^2 - n_0^2
    # (GL orbit); D_R misses the ordered pairs with w_i + w_j = 0.
    dim_lambda, dim_r, dim_0, dim_1 = rep.dims
    assert dim_lambda == n * n - int((mult ** 2).sum())
    assert dim_1 == n * n - n0 ** 2
    assert dim_r == n * n - int((w[:, None] + w == 0).sum())
    assert dim_0 == int(((w[:, None] != w) & (w[:, None] + w != 0)).sum())
    assert lambda_at(y, basis).rank() == dim_lambda
    assert riemann_jordan_at(y, basis).rank() == dim_r
    got = (rep.basis_lambda, rep.basis_r, rep.basis_0, rep.basis_1)
    for b in got:
        assert np.abs(b.T @ b - np.eye(b.shape[1])).max(initial=0.0) < 1e-12
    if mult.size > 1:  # at scalar points the SVD ranks round-off
        for mine, ref in zip(got, _svd_distributions(y, basis)):
            assert mine.shape == ref.shape
            assert np.abs(mine @ mine.T - ref @ ref.T).max() < 1e-12

    if np.abs(w).sum() > 0:
        p = np.abs(w) / np.abs(w).sum()
        rho = certify_density((u * p) @ u.conj().T)
        mult = np.unique(p, return_counts=True)[1]
        assert orbit_dimension(rho) == n * n - int((mult ** 2).sum())
        assert orbit_dimension(rho) == \
            distributions_at(to_dual(rho.op, basis), basis).dims[0]


def test_d1_matches_gl_orbit_tangent_rank(rng):
    # differentiate T -> T xi T^dagger at T = I by central differences over a
    # real basis of gl(n) and compare the span's rank with dim D1
    for spec in ([0.6, 0.4, 0.0], [1.0, 0.0, 0.0], [0.5, 0.3, 0.2]):
        w = np.array(spec)
        u = np.linalg.qr(random_hermitian(rng, 3)
                         + 1j * random_hermitian(rng, 3))[0]
        xi = u @ np.diag(w) @ u.conj().T
        xi = (xi + xi.conj().T) / 2
        y = to_dual(xi, B3)
        rep = distributions_at(y, B3)
        eps = 1e-5
        cols = []
        for i in range(3):
            for j in range(3):
                for scale in (1.0, 1j):
                    x = np.zeros((3, 3), complex)
                    x[i, j] = scale
                    tp = np.eye(3) + eps * x
                    tm = np.eye(3) - eps * x
                    diff = (tp @ xi @ tp.conj().T
                            - tm @ xi @ tm.conj().T) / (2 * eps)
                    cols.append(to_dual(diff, B3))
        m = np.array(cols).T
        s = np.linalg.svd(m, compute_uv=False)
        fd_rank = int(np.sum(s > 1e-9 * s[0]))
        assert fd_rank == rep.dims[3]


def test_pushforward_identity_samples(rng):
    for n in (2, 3):
        for _ in range(20):
            a, b = random_hermitian(rng, n), random_hermitian(rng, n)
            psi = random_state(rng, n)
            lhs, rhs = pushforward_check(psi, a, b)
            assert abs(lhs - rhs) < 1e-10


# lhs is <A psi, B psi> from two matvecs; rhs takes the traces of
# |psi><psi| (AB + BA) and |psi><psi| (AB - BA), from three n-term matrix
# products.  Each side is within a small multiple of
# n eps ||A|| ||B|| ||psi||^2 of the exact value (entrywise bounds bring in
# |A| and |B|, whose norms can exceed those of A and B).  Over 33,000 draws
# of the sampler at n = 2...12 the difference stayed under 1.11 of that
# unit; C_PUSH = 8 leaves a margin of 7x.
C_PUSH = 8.0


@settings(max_examples=200, deadline=None)
@given(**BRACKET_DRAWS)
def test_pushforward_identity_across_n(n, seed, kind, exps):
    a, b, psi = bracket_sample(n, seed, kind, exps)
    lhs, rhs = pushforward_check(psi, a, b)
    eps = np.finfo(float).eps
    assert abs(lhs - rhs) <= (C_PUSH * n * eps * np.linalg.norm(a, 2)
                              * np.linalg.norm(b, 2) * psi.norm() ** 2)


def test_pushforward_identity_operator(rng):
    psi = random_state(rng, 2)
    lhs, rhs = pushforward_check(psi, np.eye(2), np.eye(2))
    assert abs(lhs.imag) < 1e-12 and abs(rhs.imag) < 1e-12
    assert abs(lhs - psi.norm() ** 2) < 1e-12


def test_pushforward_commuting_real(rng):
    d1, d2 = np.diag(rng.normal(size=3)), np.diag(rng.normal(size=3))
    psi = random_state(rng, 3)
    lhs, rhs = pushforward_check(psi, d1, d2)
    assert abs(lhs.imag) < 1e-12 and abs(rhs.imag) < 1e-12


def test_pairing_scale_is_frozen_at_one():
    assert PAIRING_SCALE == 1.0
    assert abs(calibrate_pairing_scale() - 1.0) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fn", [from_dual, distributions_at, lambda_at,
                                riemann_jordan_at])
def test_non_finite_point_refused(fn, bad):
    # a NaN point once read as the origin: dims (0, 0, 0, 0) and rank 0
    with pytest.raises(ValueError, match="finite"):
        fn(np.array([bad, 0.0, 0.0, 0.0]), B2)
    with pytest.raises(ValueError, match="finite"):
        fn(np.array([0.5, 0.0, bad, 0.0]), B2)


@pytest.mark.parametrize("fn", [from_dual, distributions_at, lambda_at,
                                riemann_jordan_at])
def test_overflowing_point_refused(fn):
    # Finite coordinates whose operator overflows: einsum returns inf with
    # no floating-point error, and distributions_at once read all four
    # dimensions as 0.  from_dual refuses it with an ArithmeticError (a
    # numeric failure, exit 3 in the CLI), not a ValueError, under any
    # errstate.  The maps read y at its exact scale first: distributions_at
    # gives the dimensions of (1, 1, 1, 1), and Lambda and R, whose entries
    # are 2e308 and more there, refuse a true overflow.
    y = np.full(4, 1e308)
    for mode in ("ignore", "raise"):
        with np.errstate(all=mode):
            if fn is distributions_at:
                assert fn(y, B2).dims == (2, 4, 2, 4)
                continue
            what = "coordinates" if fn is from_dual else "tensor"
            with pytest.raises(OverflowError, match=f"^{what} overflow: "):
                fn(y, B2)
    # below the overflow the point keeps the dimensions of (1, 1, 1, 1)
    assert distributions_at(y / 10.0, B2).dims == (2, 4, 2, 4)


@pytest.mark.parametrize("fn", [distributions_at, lambda_at,
                                riemann_jordan_at])
def test_overflowing_spectrum_refused(fn):
    # A finite point whose operator is finite but whose top eigenvalue,
    # 8e307 * (1 + sqrt 3), is not: eigh returns inf, and the rank cut
    # TOL_RANK * max|w| was inf too, so Lambda and R once read rank 0 and
    # distributions_at dims (0, 0, 0, 0), with RuntimeWarnings.  All three,
    # once refused, read y at its exact scale: distributions_at has the
    # dimensions and bases of y * 2**-k, and Lambda and R's matrix is 2**k
    # times the one at y * 2**-k, and their rank is the same.
    y = np.full(4, 8e307)
    assert np.isfinite(from_dual(y, B2)).all()
    for mode in ("ignore", "raise"):
        with np.errstate(all=mode):
            if fn is distributions_at:
                got, small = fn(y, B2), fn(np.ldexp(y, -8), B2)
                assert got.dims == small.dims == (2, 4, 2, 4)
                for name in ("lambda", "r", "0", "1"):
                    assert np.array_equal(getattr(got, f"basis_{name}"),
                                          getattr(small, f"basis_{name}"))
            else:
                got, small = fn(y, B2), fn(np.ldexp(y, -8), B2)
                assert np.array_equal(got.matrix, np.ldexp(small.matrix, 8))
                assert got.rank() == small.rank()
    # below the overflow the point keeps the dimensions of (1, 1, 1, 1)
    assert distributions_at(y / 4.0, B2).dims == (2, 4, 2, 4)


@pytest.mark.parametrize("endo", [jtilde_endo, r_endo])
def test_endomorphisms_of_a_stack_are_the_per_point_directions(rng, endo):
    for n in (2, 3, 5):
        xi = np.stack([random_hermitian(rng, n) for _ in range(4)])
        a = random_hermitian(rng, n)
        out = endo(xi, a)
        assert out.shape == xi.shape
        for k in range(len(xi)):
            assert out[k].tobytes() == endo(xi[k], a).tobytes()
