"""The library's refusal contract and scale rule, over every re-export.

A table of argument kinds drives each function that geomstates re-exports.
The kinds are operator, stack, state, tangent, dual vector, traceless
coordinates, ball coordinate, time, time list (a sampled curve), transform,
certified record, pure record, basis and dimension.  Each kind lists the
faults that apply to it: a mismatched n, the wrong ndim (one axis fewer or
more), an empty stack, NaN, +-inf, and values near 1e+-300.

The contract: called with one faulty argument, or with none, a function
either returns finite values or raises ValueError (or a subclass),
OverflowError or ArithmeticError from a raise statement of the library, in
its own words.  It never shows numpy's text and never warns.

The scale rule: each row names, for some arguments, how a result scales
with them.  A scaling multiplies argument j by 2**(m_j u) and output i by
2**(d_i u); f at the scaled arguments equals the scaled f bit for bit
wherever both sides are normal, and refuses with OverflowError exactly
where a scaled output, or a bound the map must represent, is beyond the
float range.  Inputs are drawn with parts 0 or of magnitude in [1/4, 1), so
that they stay exact at every scale drawn."""

import dataclasses
import traceback
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import geomstates
from geomstates import (
    PureDensity,
    RealifiedState,
    TangentVector,
    gellmann_basis,
)
from geomstates.basis import MAX_BASIS_N

TINY = np.finfo(float).tiny
PACKAGE = Path(geomstates.__file__).resolve().parent
FAULTS = ("n+1", "ndim-", "ndim+", "empty", "nan", "inf", "-inf", "huge",
          "tiny")
VALUE_FAULTS = ("nan", "inf", "-inf", "huge", "tiny")


def _parts(rng, shape, zeros=0.0):
    """Reals 0 (with probability zeros) or of magnitude in [1/4, 1)."""
    x = rng.uniform(0.25, 1.0, shape) * rng.choice([-1.0, 1.0], shape)
    return np.where(rng.random(shape) < zeros, 0.0, x)


def _ldexp(x, u):
    """x * 2**u, complex x part by part; inf or NaN where that overflows."""
    x = np.asarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.iscomplexobj(x):
            return np.ldexp(x.real, u) + 1j * np.ldexp(x.imag, u)
        return np.ldexp(x, u)


def _hermitian(rng, n):
    """Conjugate mirror entries, not sums, so that no part cancels."""
    a = np.triu(_parts(rng, (n, n)) + 1j * _parts(rng, (n, n)), 1)
    return a + a.conj().T + np.diag(_parts(rng, n))


def _density(rng, n):
    m = _hermitian(rng, n)
    rho = m @ m
    return rho / rho.trace().real


def _pure(rng, n):
    u = _parts(rng, n) + 1j * _parts(rng, n)
    u = u / np.linalg.norm(u)
    return np.outer(u, u.conj())


def _transform(rng, n):
    """Well conditioned: 1/2 on the diagonal, off-diagonal parts below 2**-6."""
    t = _ldexp(_parts(rng, (n, n)) + 1j * _parts(rng, (n, n)), -6)
    return t + np.eye(n) / 2


def _tangent(x):
    half = np.zeros(np.shape(x)[-1] // 2)
    return TangentVector(RealifiedState(half, half), x)


def _curve(rng, n, fault=None):
    """tangency_check samples (t, op) of a rank-one curve at uniform t."""
    if fault == "n+1":
        n += 1
    t = np.arange(5) * rng.uniform(0.25, 1.0) / 4
    u = np.zeros((5, n))
    u[:, 0], u[:, 1] = np.cos(t), np.sin(t)
    ops = u[:, :, None] * u[:, None, :] + 0j
    if fault in ("nan", "inf", "-inf"):
        t[2] = float(fault)
    elif fault in ("huge", "tiny"):
        t = _ldexp(t, 997 if fault == "huge" else -997)
    elif fault == "ndim-":
        ops = ops[..., 0]
    elif fault == "ndim+":
        ops = ops[:, None]
    elif fault == "empty":
        t, ops = t[:0], ops[:0]
    return list(zip(t, ops))


def _dimension(rng, n, fault=None):
    return {None: n, "n+1": n + 1, "empty": 0, "tiny": 1,
            "huge": MAX_BASIS_N + 1}[fault]


# make(rng, n) draws the raw value and wrap builds the argument from it;
# faults and scalings act on the raw array.  A kind with its own `fault`
# function draws a faulty value itself.
Kind = namedtuple("Kind", "make wrap faults fault", defaults=(None,))
_same = lambda x: x  # noqa: E731
KINDS = {
    "operator": Kind(_hermitian, _same, FAULTS),
    "stack": Kind(lambda rng, n: np.stack([_hermitian(rng, n)] * 2), _same,
                  FAULTS),
    "state": Kind(lambda rng, n: _parts(rng, 2 * n),
                  lambda x: RealifiedState(*np.split(x, 2, axis=-1)),
                  ("n+1", "ndim+") + VALUE_FAULTS),
    "tangent": Kind(lambda rng, n: _parts(rng, 2 * n), _tangent,
                    ("n+1", "ndim+") + VALUE_FAULTS),
    "dual": Kind(lambda rng, n: _parts(rng, n * n, zeros=0.3), _same, FAULTS),
    "traceless": Kind(lambda rng, n: _parts(rng, n * n - 1), _same, FAULTS),
    "coordinate": Kind(lambda rng, n: _parts(rng, 3) / 4, _same,
                       FAULTS[1:]),  # broadcast scalars: no n to mismatch
    "time": Kind(lambda rng, n: np.array(rng.uniform(0.25, 1.0)), float,
                 VALUE_FAULTS),
    "transform": Kind(_transform, _same, FAULTS),
    "density": Kind(_density, geomstates.certify_densities,
                    ("n+1", "ndim+", "empty")),
    "pure": Kind(_pure, PureDensity, ("n+1", "ndim+", "empty")),
    "basis": Kind(lambda rng, n: n, gellmann_basis, ("n+1",),
                  lambda rng, n, f: n + 1),
    "dim": Kind(_dimension, _same, ("n+1", "empty", "tiny", "huge"),
                _dimension),
    "curve": Kind(_curve, _same, FAULTS, _curve),
}


def _raw(kind, rng, n, fault=None):
    k = KINDS[kind]
    if fault is None:
        return k.make(rng, n)
    if k.fault is not None:
        return k.fault(rng, n, fault)
    if fault == "n+1":
        return k.make(rng, n + 1)
    x = np.asarray(k.make(rng, n))
    if fault == "ndim-":
        return x[..., 0]
    if fault == "ndim+":
        return x[None]
    if fault == "empty":
        return x[None][:0]
    if fault in ("huge", "tiny"):
        return _ldexp(x, 997 if fault == "huge" else -997)
    x = x.copy()
    x.flat[0] = float(fault)
    return x


# A scaling: multipliers m_j per argument, degrees d_i per output, and
# optionally a bound(args) of degree 1 that the map must represent (an
# eigenvalue of A, say), so that it refuses where the bound overflows.
Scaling = namedtuple("Scaling", "m d bound", defaults=(None,))
Row = namedtuple("Row", "name call kinds scalings out ns",
                 defaults=((), lambda r: (r,), (2, 5)))


def each(*degrees):
    """One scaling per argument with a degree: an int for every output or a
    tuple with one per output."""
    k = len(degrees)
    return tuple(Scaling(tuple(int(i == j) for i in range(k)), d)
                 for j, d in enumerate(degrees) if d is not None)


def _top(args):
    """max |eigenvalue| of the operator argument, of degree 1 in it."""
    return float(np.abs(np.linalg.eigvalsh(args[0])).max())


def _eigensolve(a, psi):
    return geomstates.critical_point_eigensolve(a, psi, max_iter=40)


def _flow(a, psi, t):
    return geomstates.flow_hamiltonian(a, psi, t, t / 8)


g = geomstates
_pairs = lambda r: (r.matrix, r.rank())  # noqa: E731
ROWS = (
    Row("check_hermitian", g.check_hermitian, ("operator",), each(1)),
    Row("from_dual", g.from_dual, ("dual", "basis"), each(1, None)),
    Row("to_dual", g.to_dual, ("operator", "basis"), each(1, None)),
    Row("spectral_oracle", g.spectral_oracle, ("operator",), each((1, 0)),
        tuple),
    Row("gellmann_basis", g.gellmann_basis, ("dim",)),
    Row("structure_constants", g.structure_constants, ("basis",), ns=(2, 3)),
    Row("calibrate_pairing_scale",
        lambda d: g.calibrate_pairing_scale(dim=d), ("dim",), ns=(2, 2)),
    Row("distributions_at", g.distributions_at, ("dual", "basis"),
        each(0, None), lambda r: (np.array(r.dims), r.basis_lambda,
                                  r.basis_r, r.basis_0, r.basis_1)),
    Row("lambda_at", g.lambda_at, ("dual", "basis"), each((1, 0), None),
        _pairs),
    Row("riemann_jordan_at", g.riemann_jordan_at, ("dual", "basis"),
        each((1, 0), None), _pairs),
    Row("jtilde_endo", g.jtilde_endo, ("stack", "operator"), each(1, 1)),
    Row("r_endo", g.r_endo, ("stack", "operator"), each(1, 1)),
    Row("pushforward_check", g.pushforward_check,
        ("state", "operator", "operator"), each(2, 1, 1), tuple),
    Row("connection_form", g.connection_form, ("state", "tangent"),
        each(-1, 1)),
    Row("expectation", g.expectation, ("operator", "state"), each(1, 0)),
    Row("momentum_map", g.momentum_map, ("state",), each(0),
        lambda r: (r.op,)),
    Row("projected_hermitian", g.projected_hermitian,
        ("state", "tangent", "tangent"), each(-2, 1, 1)),
    Row("transition_probability", g.transition_probability,
        ("pure", "pure")),
    *(Row(f.__name__, f, ("operator", "operator", "state"), each(1, 1, 2))
      for f in (g.bracket_g, g.bracket_omega, g.star_product)),
    Row("critical_point_eigensolve", _eigensolve, ("operator", "state"),
        (Scaling((1, 0), (1, 0, 0), _top), Scaling((0, 1), 0)),
        lambda r: (r[0], r[1].q, r[1].p), ns=(2, 12)),
    Row("flow_hamiltonian", _flow, ("operator", "state", "time"),
        (Scaling((1, 0, -1), (-1, 0), _top), Scaling((0, 1, 0), (0, 1))),
        tuple, ns=(2, 12)),
    *(Row(f.__name__, f, ("operator", "state"), each(1, 1),
          lambda r: (r.components,))
      for f in (g.gradient_vf, g.hamiltonian_vf)),
    Row("hermitian_split", g.hermitian_split, ("state", "state"),
        each(1, 1), tuple),
    Row("quadratic_function", g.quadratic_function, ("operator", "state"),
        each(1, 2)),
    Row("bloch_decompose_along", g.bloch_decompose_along,
        ("density", "traceless"), each(None, 0),
        lambda r: (r.weights, *(c.op for c in r.components)), ns=(2, 2)),
    Row("certify_densities", g.certify_densities, ("stack",)),
    Row("certify_density", g.certify_density, ("operator",)),
    Row("require_density", g.require_density, ("operator",)),
    Row("convex_decompose_spectral", g.convex_decompose_spectral,
        ("density",)),
    Row("face_of", g.face_of, ("density",)),
    Row("face_contains", lambda rho, c: g.face_contains(g.face_of(rho), c),
        ("density", "density")),
    Row("gl_act_cone", g.gl_act_cone, ("transform", "operator"), each(2, 1)),
    Row("gl_act_states", g.gl_act_states, ("transform", "density"),
        each(0, None), lambda r: (r.op,)),
    Row("orbit_dimension", g.orbit_dimension, ("density",)),
    Row("weyl_reduce", g.weyl_reduce, ("density",)),
    Row("qubit_bloch_vector", g.qubit_bloch_vector, ("density",), ns=(2, 2)),
    Row("qubit_from_bloch", g.qubit_from_bloch,
        ("coordinate", "coordinate", "coordinate")),
    Row("qutrit_pure_from_bloch", g.qutrit_pure_from_bloch, ("traceless",),
        ns=(3, 3)),
    Row("qutrit_star", g.qutrit_star, ("traceless", "traceless"),
        each(1, 1), ns=(3, 3)),
    Row("tangency_check", lambda s: g.tangency_check(s, 1), ("curve",)),
    Row("DensityState.__iter__", list, ("density",)),
)
BY_NAME = {row.name: row for row in ROWS}


def _leaves(x):
    """The numeric arrays of a result, through tuples, lists and records."""
    if x is None or isinstance(x, (str, bool)):
        return
    if isinstance(x, (tuple, list)):
        for item in x:
            yield from _leaves(item)
    elif dataclasses.is_dataclass(x):
        for item in vars(x).values():
            yield from _leaves(item)
    elif not isinstance(x, np.ndarray) or x.dtype.kind in "biufc":
        yield np.asarray(x)


def _library_refusal(exc):
    """exc is raised by a raise statement of the library, in its words."""
    if not isinstance(exc, (ValueError, OverflowError, ArithmeticError)):
        return False
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (Path(frame.filename).resolve().parent == PACKAGE
            and frame.line.startswith("raise "))


def _contract(build, call):
    """call(*build()) returns finite values or raises a library refusal,
    and never warns; the result, or None after a refusal."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(*build())
        except Exception as exc:  # noqa: BLE001  judged just below
            assert _library_refusal(exc), "".join(
                traceback.format_exception(exc))
            return None
    for leaf in _leaves(out):
        assert np.isfinite(leaf).all(), leaf
    return out


def _args(row, rng, n, fault=None, at=None):
    """The row's arguments at n, argument `at` drawn with the fault."""
    raw = [_raw(kind, np.random.default_rng(rng.integers(2**32)), n,
                fault if j == at else None)
           for j, kind in enumerate(row.kinds)]
    return [KINDS[kind].wrap(x) for kind, x in zip(row.kinds, raw)]


def test_every_reexported_function_has_a_row():
    names = {name for name, obj in vars(geomstates).items()
             if callable(obj) and not isinstance(obj, type)}
    assert names <= set(BY_NAME)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
@settings(max_examples=2, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_refusal_contract(row, data, seed):
    n = data.draw(st.integers(*row.ns), label="n")
    rng = np.random.default_rng(seed)
    _contract(lambda: _args(row, rng, n), row.call)
    for at, kind in enumerate(row.kinds):
        for fault in KINDS[kind].faults:
            _contract(lambda: _args(row, rng, n, fault, at), row.call)


SCALED = [(row, s) for row in ROWS for s in row.scalings]


def _outputs(row, result):
    return [np.asarray(x) for x in row.out(result)]


def _parts_of(x):
    """A real array: the real and imaginary parts of a complex one."""
    return np.stack([x.real, x.imag]) if x.dtype.kind == "c" else x


def _check_scaling(row, scaling, n, seed, u):
    """f at the arguments scaled by 2**(m u) is f scaled by 2**(d u) where
    normal, or an OverflowError where that or the bound is not finite."""
    rng = np.random.default_rng(seed)
    raw = [_raw(kind, rng, n) for kind in row.kinds]
    scaled = [_ldexp(x, m * u) if m else x for x, m in zip(raw, scaling.m)]
    if not all(np.isfinite(x).all() for x, m in zip(scaled, scaling.m) if m):
        return  # an input beyond the float range
    wrap = [KINDS[kind].wrap for kind in row.kinds]
    ref = _outputs(row, row.call(*(w(x) for w, x in zip(wrap, raw))))
    degrees = np.broadcast_to(scaling.d, len(ref))
    want = [x if d == 0 else _ldexp(x, d * u) for x, d in zip(ref, degrees)]
    bound = (0.0 if scaling.bound is None
             else _ldexp(scaling.bound(raw), u))
    got = _contract(lambda: [w(x) for w, x in zip(wrap, scaled)], row.call)
    if not (np.isfinite(bound) and all(np.isfinite(x).all() for x in want)):
        with pytest.raises(OverflowError, match=" overflow: "):
            row.call(*(w(x) for w, x in zip(wrap, scaled)))
        return
    assert got is not None, "refused a representable result"
    for x, y in zip(_outputs(row, got), want):
        x, y = _parts_of(x), _parts_of(y)
        normal = np.abs(y) >= TINY if y.dtype.kind == "f" else True
        assert np.array_equal(np.where(normal, x, 0), np.where(normal, y, 0))


@pytest.mark.parametrize("row, scaling", SCALED,
                         ids=[f"{r.name}-{r.scalings.index(s)}"
                              for r, s in SCALED])
@settings(max_examples=4, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       u=st.integers(-1000, 1000))
@example(data=None, seed=1, u=600)
@example(data=None, seed=2, u=-600)
def test_scale_rule(row, scaling, data, seed, u):
    n = row.ns[0] if data is None else data.draw(st.integers(*row.ns))
    _check_scaling(row, scaling, n, seed, u)


@pytest.mark.parametrize("name", ["critical_point_eigensolve",
                                  "flow_hamiltonian"])
def test_flows_scale_exactly_in_a_at_two_to_the_600(name):
    """Non-diagonal A at 2**+-600, where LAPACK would rescale A by a factor
    that is not a power of two, for n = 2...12."""
    row = BY_NAME[name]
    for n in range(2, 13):
        for u in (600, -600):
            _check_scaling(row, row.scalings[0], n, n, u)


def _refuses(exc_type, match, call, *args):
    with pytest.raises(exc_type, match=match) as info:
        call(*args)
    assert _library_refusal(info.value)


def test_star_product_at_opposite_scales():
    # <A psi, B psi> = 1e20, though A psi = 1e310 alone is not representable
    psi = RealifiedState([1e10, 0.0], [0.0, 0.0])
    assert g.star_product(1e300 * np.eye(2), 1e-300 * np.eye(2), psi) == 1e20


def test_lambda_and_distributions_where_the_operator_overflows():
    basis = gellmann_basis(2)
    y = np.array([1.79e308, 0.0, 0.0, 1e306])
    low = np.array([0.0, 0.0, 0.0, 1e306])
    with pytest.raises(OverflowError, match="^coordinates overflow: "):
        g.from_dual(y, basis)
    # Lambda does not depend on y_0, but y_0 +- y_3 round there, to within
    # eps y_0 each: 2 eps y_0 / (2 y_3) = 4e-14 relative to Lambda
    lam, want = g.lambda_at(y, basis), g.lambda_at(low, basis)
    assert np.allclose(lam.matrix, want.matrix, rtol=4e-14, atol=0.0)
    assert lam.rank() == want.rank() == 2
    assert g.distributions_at(y, basis).dims == (2, 4, 2, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_qubit_from_bloch_refuses_non_finite_coordinates(bad):
    for at in range(3):
        coords = [0.1, 0.2, 0.0]
        coords[at] = bad
        _refuses(ValueError, "^ball coordinates must be finite$",
                 g.qubit_from_bloch, *coords)


def test_iterating_one_record_is_refused():
    _refuses(geomstates.DimensionError,
             r"^expected a stack of states, got shape \(\)$",
             list, g.certify_density(np.eye(2) / 2))
