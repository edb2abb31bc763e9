from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from rackyd.errors import ShapeError, ValidationError
from rackyd.linalg import Matrix, kron, mat_mul
from rackyd.linalg import nullspace, reduce_mod, rref, vec_from_json
from rackyd.scalars import QQ, PrimeField

F = Fraction


def M(rows):
    return Matrix([[F(v) for v in row] for row in rows])


def test_kron_identity_case():
    assert kron(Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(4)


def test_kron_unit_factor():
    a = M([[1, 2], [3, 4]])
    assert kron(a, M([[1]])) == a
    assert kron(M([[1]]), a) == a


def test_kron_direct_expansion():
    # expanding the defining formula by hand
    assert kron(M([[0, 1], [1, 0]]), M([[2]])) == M([[0, 2], [2, 0]])


def test_kron_index_convention():
    # entry at (i + rows_a*i2, j + cols_a*j2) is a[i,j]*b[i2,j2]
    a = M([[1, 2], [3, 4]])
    b = M([[5, 6], [7, 8]])
    c = kron(a, b)
    for i in range(2):
        for j in range(2):
            for i2 in range(2):
                for j2 in range(2):
                    assert c[i + 2 * i2, j + 2 * j2] == a[i, j] * b[i2, j2]


def test_mat_mul_identity_and_zero():
    a = M([[1, 2], [3, 4]])
    assert mat_mul(Matrix.identity(2), a) == a
    assert mat_mul(a, Matrix.zeros(2, 3)) == Matrix.zeros(2, 3)


def test_mat_mul_hand_expansion():
    assert mat_mul(M([[1, 1], [0, 1]]), M([[1, 0], [1, 1]])) == M([[2, 1], [1, 1]])


def test_mat_mul_shape_error():
    with pytest.raises(ShapeError):
        mat_mul(M([[1, 2]]), M([[1, 2]]))


small = st.integers(min_value=-3, max_value=3)


def _matrices(rows, cols):
    return st.lists(
        st.lists(small.map(F), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(Matrix)


@given(st.data())
def test_kron_bifunctoriality(data):
    m, n, p, q, r = (data.draw(st.integers(min_value=1, max_value=3)) for _ in range(5))
    a = data.draw(_matrices(m, n))
    c = data.draw(_matrices(n, p))
    b = data.draw(_matrices(q, r))
    d = data.draw(_matrices(r, q))
    assert mat_mul(kron(a, b), kron(c, d)) == kron(mat_mul(a, c), mat_mul(b, d))


@given(st.data())
def test_kron_unit_factor_any_matrix(data):
    m, n = (data.draw(st.integers(min_value=1, max_value=4)) for _ in range(2))
    a = data.draw(_matrices(m, n))
    unit = Matrix([[F(1)]])
    assert kron(a, unit) == a
    assert kron(unit, a) == a


@given(st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=40))
def test_rational_normalization(p, q):
    assert F(2 * p, 2 * q) == F(p, q)
    assert QQ.parse(f"{2 * p}/{2 * q}") == F(p, q)


def test_matrix_json_roundtrip():
    a = Matrix([[F(1, 2), F(-3)], [F(0), F(7, 5)]])
    d = a.to_json_dict()
    assert d["entries"][0][0] == "1/2"
    assert Matrix.from_json_dict(d) == a


def test_matrix_json_lowest_terms():
    d = {"rows": 1, "cols": 1, "entries": [["2/4"]]}
    assert Matrix.from_json_dict(d)[0, 0] == F(1, 2)


def test_as_int_rows_rejects_fractions():
    with pytest.raises(ValidationError):
        Matrix([[F(1, 2)]]).as_int_rows()


def test_gf_matrix_arithmetic():
    gf5 = PrimeField(5)
    a = Matrix([[gf5.parse("2"), gf5.parse("3")], [gf5.parse("4"), gf5.parse("1")]])
    sq = mat_mul(a, a)
    assert sq[0, 0] == gf5.parse(str(2 * 2 + 3 * 4))
    assert gf5.parse("1/2") == gf5.parse("3")  # 2 * 3 = 6 = 1 mod 5
    with pytest.raises(ValidationError):
        PrimeField(6)


def test_rref_and_nullspace():
    rows = rref([{1: F(2), 2: F(4)}, {0: F(1), 1: F(1), 2: F(1)}])
    assert sorted(rows) == [0, 1]
    assert not reduce_mod({0: F(1), 1: F(3), 2: F(5)}, rows)
    assert reduce_mod({2: F(1)}, rows)
    kernel = nullspace([{0: F(1), 1: F(1), 2: F(1)}], 3)
    assert len(kernel) == 2
    for vec in kernel:
        assert sum(vec.values(), F(0)) == 0


def _from_sympy(x):
    return F(int(x.p), int(x.q))


def _dense(vec, n):
    """A sparse vector with no stored zeros and no index outside range(n), as a tuple."""
    assert all(vec.values()) and set(vec) <= set(range(n))
    return tuple(vec.get(k, F(0)) for k in range(n))


@given(st.data())
def test_rref_and_nullspace_match_sympy(data):
    m, n = (data.draw(st.integers(min_value=1, max_value=5)) for _ in range(2))
    entry = st.builds(F, small, st.integers(min_value=1, max_value=3))
    vectors = data.draw(st.lists(
        st.lists(entry, min_size=n, max_size=n).map(tuple), min_size=m, max_size=m,
    ))
    sparse = [{k: x for k, x in enumerate(v) if x} for v in vectors]
    ref, ref_pivots = sympy.Matrix(vectors).rref()
    rows = rref(sparse)
    pivots = sorted(rows)
    assert pivots == list(ref_pivots)
    assert [_dense(rows[p], n) for p in pivots] == [
        tuple(_from_sympy(x) for x in ref.row(r)) for r in range(len(pivots))]
    kernel = nullspace(sparse, n)
    ref_kernel = sympy.Matrix(vectors).nullspace()
    assert [_dense(v, n) for v in kernel] == [tuple(_from_sympy(x) for x in v) for v in ref_kernel]


def test_sparse_indices_are_read_in_canonical_decimal():
    assert vec_from_json({"0": "1", "17": "-2", "3": "0"}, QQ, "v") == {0: 1, 17: -2}
    for key in ("01", " 1", "+1", "1_0", "-1", "\u0661", ""):
        with pytest.raises(ValidationError, match="is not an integer in canonical decimal"):
            vec_from_json({key: "1"}, QQ, "v")
