"""The facts ``lie_quotient`` and ``first_order_yd`` read off the Leibniz
identity, swept as references on basis changes of every Leibniz algebra.

The Leibniz identity survives a change of basis, so each constructor and
fixture, rewritten in a basis ``f_i = sum_j P[i][j] e_j`` for an integer
matrix P of determinant +-1 drawn by hypothesis, is again a Leibniz algebra, with its squares ideal in a new position.  On each, the
sweeps that the constructions no longer run must pass: the squares ideal is
closed under right brackets, ``[g, I] = 0``, the quotient passes
``check_lie``, and the first-order module induces the unital shelf.
"""

import json

import pytest
from conftest import FIXTURES
from hypothesis import given, settings, strategies as st

from rackyd.envelope import check_lie
from rackyd.leibniz import (
    LeibnizAlgebra,
    _squares_ideal_rows,
    abelian_lie,
    central_square2,
    check_leibniz,
    first_order_yd,
    heisenberg_voros,
    lie_quotient,
    nonabelian_lie2,
    sl2,
    unital_shelf,
)
from rackyd.linalg import reduce_mod
from rackyd.scalars import QQ, PrimeField, quotient

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(7), id="GF7"),
          pytest.param(PrimeField(2), id="GF2")]


def _algebras():
    for path in sorted(FIXTURES.glob("leibniz_*.json")):
        if path.name != "leibniz_not.json":
            yield pytest.param(lambda f, d=json.loads(path.read_text()):
                               LeibnizAlgebra.from_json_dict(d, f), id=path.stem)
    for make in (heisenberg_voros, nonabelian_lie2, sl2, central_square2):
        yield pytest.param(make, id=make.__name__)
    for n in (1, 2, 3):
        yield pytest.param(lambda f, n=n: abelian_lie(n, f), id=f"abelian_lie{n}")


def unimodular(n):
    """Integer n x n matrices of determinant +-1: the rows of ``L U``, L unit
    lower and U unit upper triangular, in a drawn order.  They are invertible
    over every field."""
    entries = st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)

    def product(lower, upper, order):
        l = [[lower[i * n + k] if k < i else int(k == i) for k in range(n)] for i in range(n)]
        u = [[upper[k * n + j] if k < j else int(k == j) for j in range(n)] for k in range(n)]
        return [[sum(l[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in order]
    return st.builds(product, entries, entries, st.permutations(range(n)))


def inverse(matrix, field):
    """The inverse of an invertible square matrix over ``field``, by
    Gauss-Jordan elimination."""
    n = len(matrix)
    rows = [list(row) + [field.one if i == j else field.zero for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        hit = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[hit] = rows[hit], rows[col]
        lead = rows[col][col]
        rows[col] = [quotient(x, lead) for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def changed_basis(alg, matrix):
    """``alg`` in the basis ``f_i = sum_j matrix[i][j] e_j``."""
    field, n = alg.field, alg.dim
    p = [[field.one * c for c in row] for row in matrix]
    q = inverse(p, field)  # e_k = sum_l q[k][l] f_l
    f = [{j: c for j, c in enumerate(row) if c} for row in p]
    table = []
    for i in range(n):
        table.append([])
        for j in range(n):
            v = alg.bracket_vec(f[i], f[j])
            out = {l: sum((c * q[k][l] for k, c in v.items()), field.zero) for l in range(n)}
            table[-1].append({l: c for l, c in out.items() if c})
    return LeibnizAlgebra(alg.basis, table, field)


def ideal_is_closed_under_right_brackets(alg):
    rows, one = _squares_ideal_rows(alg), alg.field.one
    return not any(reduce_mod(alg.bracket_vec(w, {j: one}), rows)
                   for w in rows.values() for j in range(alg.dim))


def ideal_brackets_to_zero_from_the_right(alg):
    """``[g, I] = 0``: the lifted action does not depend on the section."""
    rows, one = _squares_ideal_rows(alg), alg.field.one
    return not any(alg.bracket_vec({i: one}, w) for w in rows.values() for i in range(alg.dim))


def induces_the_unital_shelf(alg, degree=2):
    module, lq, one = first_order_yd(alg, degree), lie_quotient(alg), alg.field.one
    gen = module.hopf.gen_index
    shelf = unital_shelf(alg).table
    return all(
        module.act_hvec({i: one}, {module.hopf.unit: one} if j == 0
                        else {gen[k]: c for k, c in lq.pi[j - 1].items()}) == shelf[i][j]
        for i in range(alg.dim + 1) for j in range(alg.dim + 1))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("make", _algebras())
def test_the_deleted_sweeps_pass_after_a_basis_change(make, field, data):
    alg = make(field)
    new = changed_basis(alg, data.draw(unimodular(alg.dim), label="basis change"))
    assert check_leibniz(new).ok
    assert len(_squares_ideal_rows(new)) == len(_squares_ideal_rows(alg))
    assert ideal_is_closed_under_right_brackets(new)
    assert ideal_brackets_to_zero_from_the_right(new)
    assert check_lie(lie_quotient(new).quotient.brackets) is None
    assert induces_the_unital_shelf(new)


def test_the_references_fail_on_a_bracket_that_is_not_leibniz():
    # [x, x] = y and [y, z] = -[z, y] = w: the squares span y alone, and
    # neither [y, z] nor [z, y] lies in that span
    one = QQ.one
    table = [[{} for _ in range(4)] for _ in range(4)]
    table[0][0], table[1][2], table[2][1] = {1: one}, {3: one}, {3: -one}
    alg = LeibnizAlgebra(("x", "y", "z", "w"), table)
    assert not check_leibniz(alg).ok
    assert not ideal_is_closed_under_right_brackets(alg)
    assert not ideal_brackets_to_zero_from_the_right(alg)
