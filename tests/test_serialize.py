import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from geomstates import (
    StructureConstants,
    certify_density,
    distributions_at,
    from_dual,
    gellmann_basis,
    lambda_at,
    structure_constants,
)
from geomstates.serialize import (
    constants_csv_rows,
    csv_float,
    distributions_to_dict,
    dual_from_dict,
    dumps,
    operator_from_dict,
    operator_to_dict,
    state_from_dict,
    state_to_dict,
    tensor_to_dict,
    trace_csv,
)

from conftest import random_hermitian, random_state


def test_operator_round_trip(rng):
    a = random_hermitian(rng, 3)
    d = operator_to_dict(a)
    back = operator_from_dict(json.loads(dumps(d)))
    assert np.array_equal(back, a)  # shortest round-trip repr: bit-exact


def test_operator_rejects_non_hermitian():
    a = operator_from_dict({"dim": 2, "re": [[0, 1], [0, 0]],
                            "im": [[0, 0], [0, 0]]})
    with pytest.raises(ValueError):
        certify_density(a)


def test_operator_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        operator_from_dict({"dim": 3, "re": [[1, 0], [0, 1]],
                            "im": [[0, 0], [0, 0]]})
    with pytest.raises(ValueError):
        operator_to_dict(np.stack([np.eye(2)] * 3))


def test_dual_round_trip(rng):
    y = rng.normal(size=9)
    n, back = dual_from_dict(json.loads(dumps({"dim": 3, "y": y.tolist()})))
    assert n == 3 and np.array_equal(back, y)


def test_dual_length_checks():
    """from_dual, which knows n^2, judges the length of y."""
    for y, got in (([0.0, 0.0, 0.0], r"\(3,\)"), (0.5, r"\(\)")):
        n, y = dual_from_dict({"dim": 2, "y": y})
        with pytest.raises(ValueError, match=r"^coordinates must have shape "
                           r"\(4,\), got " + got + "$"):
            from_dual(y, gellmann_basis(n))
    with pytest.raises(ValueError, match="^y entries must be numbers$"):
        dual_from_dict({"dim": 2, "y": None})


@pytest.mark.parametrize("dim", [1, 0, -1])
def test_payloads_reject_dim_below_two(dim):
    with pytest.raises(ValueError, match="dim must be >= 2"):
        operator_from_dict({"dim": dim, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(ValueError, match="dim must be >= 2"):
        dual_from_dict({"dim": dim, "y": [1.0]})


@pytest.mark.parametrize("dim", [float("inf"), float("nan"), 2.5, True, "3"])
def test_payloads_reject_dim_that_is_not_an_integer(dim):
    for parse, rest in ((operator_from_dict, {"re": [[1.0]], "im": [[0.0]]}),
                        (dual_from_dict, {"y": [1.0, 0.0, 0.0, 0.0]}),
                        (state_from_dict, {"q": [1.0, 0.0], "p": [0.0, 0.0]})):
        with pytest.raises(ValueError, match="dim must be an integer"):
            parse({"dim": dim, **rest})


@pytest.mark.parametrize("bad", [True, False, "0.5", "1", None])
def test_payload_entries_must_be_numbers(bad):
    """dim's number test, applied to every entry: numpy would read a bool
    or a numeric string as a float."""
    zeros = [[0.0, 0.0], [0.0, 0.0]]
    for parse, key, d in (
            (operator_from_dict, "re", {"re": [[0.5, bad], [0.0, 0.5]],
                                        "im": zeros}),
            (operator_from_dict, "im", {"re": zeros,
                                        "im": [[bad, 0.0], [0.0, 0.0]]}),
            (dual_from_dict, "y", {"y": [0.5, 0, bad, 0]}),
            (state_from_dict, "q", {"q": [1.0, bad], "p": [0.0, 0.0]}),
            (state_from_dict, "p", {"q": [1.0, 0.0], "p": [bad, 0.0]})):
        with pytest.raises(ValueError,
                           match=f"^{key} entries must be numbers$"):
            parse({"dim": 2, **d})


def test_payload_entries_may_be_numpy_reals():
    a = operator_from_dict({"dim": 2, "re": np.eye(2, dtype=np.int64),
                            "im": np.zeros((2, 2), dtype=np.float32)})
    assert np.array_equal(a, np.eye(2))


def test_dual_rejects_non_finite():
    n, y = dual_from_dict({"dim": 2, "y": [0.5, float("inf"), 0.0, 0.0]})
    with pytest.raises(ValueError, match="coordinates must be finite"):
        from_dual(y, gellmann_basis(n))


def test_state_round_trip(rng):
    psi = random_state(rng, 4)
    back = state_from_dict(json.loads(dumps(state_to_dict(psi))))
    assert np.array_equal(back.q, psi.q) and np.array_equal(back.p, psi.p)


def test_state_rejects_length_mismatch():
    with pytest.raises(ValueError):
        state_from_dict({"dim": 2, "q": [1.0], "p": [0.0, 0.0]})


def _f17_reference(x: float) -> float:
    # 17 significant digits determine a double, so this rounding is the
    # identity; the writers rely on that and pass tolist() unchanged.
    return float(format(x, ".17g"))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308)
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_FLOATS))


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(
    st.lists(_FINITE, max_size=40).map(lambda xs: np.array(xs, dtype=float)),
    hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
               elements=_FINITE)))
def test_tolist_matches_17_digit_reference(a):
    """ndarray.tolist() writes the same JSON as the 17-digit rule, and every
    value reads back bit-exact."""
    def reference(arr):
        if arr.ndim == 1:
            return [_f17_reference(float(x)) for x in arr]
        return [reference(row) for row in arr]

    text = dumps(a.tolist())
    assert text == json.dumps(reference(a), indent=2, sort_keys=True)
    back = np.array(json.loads(text), dtype=float).reshape(a.shape)
    assert [_bits(x) for x in back.ravel().tolist()] == \
        [_bits(x) for x in a.ravel().tolist()]


def test_dumps_is_deterministic(rng):
    a = random_hermitian(rng, 2)
    assert dumps(operator_to_dict(a)) == dumps(operator_to_dict(a))


def test_csv_float_digits():
    assert csv_float(1.0) == "1"
    assert csv_float(np.sqrt(3) / 2) == "0.866025403784"
    assert csv_float(-1 / np.sqrt(3)) == "-0.57735026919"


def test_tensor_dict_fields():
    y = np.array([0.5, 0.1, 0.0, 0.2])
    t = lambda_at(y, gellmann_basis(2))
    d = tensor_to_dict(t)
    assert d["kind"] == "lambda"
    assert np.array_equal(np.array(d["matrix"]), t.matrix)
    assert np.array_equal(np.array(d["y"]), y)


def test_distributions_dict_fields(rng):
    rep = distributions_at(np.array([0.5, 0.1, 0.2, 0.1]), gellmann_basis(2))
    d = distributions_to_dict(rep)
    assert d["dims"] == {"lambda": 2, "R": 4, "D0": 2, "D1": 4}
    assert len(d["basis_lambda"]) == 2
    assert len(d["basis_lambda"][0]) == 4


def test_constants_rows_qutrit_expected_values():
    sc = structure_constants(gellmann_basis(3))
    rows = constants_csv_rows(sc)
    assert rows[0] == "mu,nu,rho,C,d,check"
    assert "1,2,3,1,0,match" in rows
    assert "8,8,8,0,-0.57735026919,match" in rows
    # zero-index rows are recorded but never asserted
    for row in rows[1:]:
        idx = row.split(",")[:3]
        assert row.endswith(",reported") == ("0" in idx)
    assert any(r.startswith("0,1,1,") and r.endswith(",reported") for r in rows)
    assert not any(r.endswith(",mismatch") for r in rows)
    c = sc.c.copy()
    c[1, 2, 3] += 1e-9
    rows = constants_csv_rows(StructureConstants(3, c, sc.d))
    assert "1,2,3,1.000000001,0,mismatch" in rows


def test_constants_rows_qubit_levi_civita():
    sc = structure_constants(gellmann_basis(2))
    rows = constants_csv_rows(sc)
    assert rows[0] == "mu,nu,rho,C,d"
    assert "1,2,3,1,0" in rows
    assert "2,1,3,-1,0" in rows
    # every traceless-sector C entry is +-1 (Levi-Civita)
    for row in rows[1:]:
        mu, nu, rho, c, d = row.split(",")
        if "0" not in (mu, nu, rho) and float(c) != 0:
            assert abs(abs(float(c)) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_constants_rows_follow_index_order(n):
    sc = structure_constants(gellmann_basis(n))
    m = n * n
    want = [f"{mu},{nu},{rho},{csv_float(sc.c[mu, nu, rho])},"
            f"{csv_float(sc.d[mu, nu, rho])}"
            for mu in range(m) for nu in range(m) for rho in range(m)
            if abs(sc.c[mu, nu, rho]) + abs(sc.d[mu, nu, rho]) > 1e-12]
    header, *rows = constants_csv_rows(sc)
    if n == 3:  # the check column comes last
        assert header == "mu,nu,rho,C,d,check"
        rows = [row.rsplit(",", 1)[0] for row in rows]
    else:
        assert header == "mu,nu,rho,C,d"
    assert rows == want


def test_trace_csv_format():
    out = trace_csv([(0, 1.0, 0.5), (1, 1.25, 0.125)])
    lines = out.strip().split("\n")
    assert lines[0] == "iter,e_A,residual"
    assert lines[1] == "0,1,0.5"
    assert lines[2] == "1,1.25,0.125"


# Cells at the edges of the 12-digit format: signed zeros, subnormals, the
# float range, non-finite values, integers and numpy scalars.
_EDGE_CELLS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
               np.inf, -np.inf, np.nan, 1 / 3, 0.1, 123456789012.5, 1e16,
               1e-5, 0, 7, 10**12, 2**53 + 1, np.float64(-2.5e-7),
               np.int64(-3)]


def test_csv_rows_write_each_cell_as_csv_float():
    # A row is formatted in one call; each cell must read as csv_float's,
    # which is the 12-digit format() of the value as a float.
    for x in _EDGE_CELLS:
        assert csv_float(x) == format(float(x), ".12g")
    rows = [(it, x, y) for it, (x, y) in enumerate(
        zip(_EDGE_CELLS, _EDGE_CELLS[::-1]))]
    for header in ("iter,e_A,residual", "t,e_A,norm"):
        lines = trace_csv(rows, header=header).split("\n")
        assert lines == [header] + [",".join(map(csv_float, row))
                                    for row in rows] + [""]
    c, d = np.zeros((2, 4, 4, 4))
    at = (np.array([1, 1, 2, 3, 3, 3]), np.array([2, 3, 1, 0, 1, 2]),
          np.array([3, 2, 3, 1, 2, 3]))
    c[at] = [-0.0, np.inf, 5e-324, -1e308, 1 / 3, np.nan]
    d[at] = [1e308, 5e-324, -np.inf, 0.1, -0.0, 2.0]
    # the NaN row at (3, 2, 3) fails the |C| + |d| > 1e-12 filter
    want = ["mu,nu,rho,C,d"] + [
        f"{mu},{nu},{rho},{csv_float(c[mu, nu, rho])},"
        f"{csv_float(d[mu, nu, rho])}"
        for mu, nu, rho in zip(*at) if mu != 3 or rho != 3]
    assert constants_csv_rows(StructureConstants(2, c, d)) == want

