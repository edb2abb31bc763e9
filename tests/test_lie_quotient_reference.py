"""The sparse Lie quotient against a dense batch reference.

``lie_quotient`` closes the squares ideal by a worklist of sparse vectors.
The reference below is the batch closure it replaced, on dense rows: seed
with the squares and polarizations, reduce to echelon form by Gauss-Jordan
elimination, add every bracket with a basis element that leaves the span,
and eliminate again until nothing changes.  The reduced echelon basis of a
span is unique, so the ideal, pi, the quotient brackets and the lifted
action must agree exactly.
"""

import itertools
import json

import pytest

from rackyd.errors import ValidationError
from rackyd.leibniz import (
    LeibnizAlgebra,
    abelian_lie,
    central_square2,
    check_leibniz,
    heisenberg_voros,
    lie_quotient,
    nonabelian_lie2,
    sl2,
    squares_ideal,
)
from rackyd.scalars import QQ, PrimeField, quotient

from conftest import FIXTURES

FIELDS = [QQ, PrimeField(10007)]


def pivot_not_one(field=QQ):
    """[c, c] = 2a + 3b, every other bracket 0."""
    two, three = field.parse("2"), field.parse("3")
    table = [[{}, {}, {}], [{}, {}, {}], [{}, {}, {0: two, 1: three}]]
    return LeibnizAlgebra(("a", "b", "c"), table, field)


CONSTRUCTORS = [heisenberg_voros, nonabelian_lie2, sl2, central_square2, pivot_not_one,
                lambda f: abelian_lie(1, f), lambda f: abelian_lie(2, f)]


def direct_sum(a, b):
    n, m = a.dim, b.dim
    table = [[{} for _ in range(n + m)] for _ in range(n + m)]
    for i, j in itertools.product(range(n), repeat=2):
        table[i][j] = a.brackets[i][j]
    for i, j in itertools.product(range(m), repeat=2):
        table[n + i][n + j] = {n + k: c for k, c in b.brackets[i][j].items()}
    return LeibnizAlgebra(a.basis + tuple(f"{x}'" for x in b.basis), table, a.field)


def dense_rref(vectors, n):
    """Gauss-Jordan elimination on dense rows: (reduced rows, pivot columns)."""
    rows, pivots = [list(v) for v in vectors], []
    for col in range(n):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        lead = rows[r][col]
        rows[r] = [quotient(x, lead) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return [tuple(row) for row in rows[:len(pivots)]], pivots


def dense_reduce(vec, rows, pivots):
    v = list(vec)
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = [x - c * y for x, y in zip(v, row)]
    return v


def reference_quotient(alg):
    """(ideal rows, dense pi, quotient brackets, dense action) by batch closure."""
    n, zero, one = alg.dim, alg.field.zero, alg.field.one

    def dense(d):
        return [d.get(k, zero) for k in range(n)]

    def sparse(v):
        return {k: c for k, c in enumerate(v) if c}

    gens = [dense(alg.brackets[i][i]) for i in range(n)]
    gens += [[x + y for x, y in zip(dense(alg.brackets[i][j]), dense(alg.brackets[j][i]))]
             for i in range(n) for j in range(i + 1, n)]
    rows, pivots = dense_rref(gens, n)
    while True:
        new = [dense(c) for row in rows for j in range(n)
               for c in (alg.bracket_vec(sparse(row), {j: one}),
                         alg.bracket_vec({j: one}, sparse(row)))
               if any(dense_reduce(dense(c), rows, pivots))]
        if not new:
            break
        rows, pivots = dense_rref(rows + new, n)
    complement = [j for j in range(n) if j not in pivots]

    def project(d):
        res = dense_reduce(dense(d), rows, pivots)
        return {k: res[j] for k, j in enumerate(complement) if res[j]}

    pi = [[project({m: one}).get(k, zero) for m in range(n)] for k in range(len(complement))]
    brackets = tuple(tuple(project(alg.brackets[a][b]) for b in complement) for a in complement)
    action = [[[alg.brackets[i][w].get(j, zero) for i in range(n)] for j in range(n)]
              for w in complement]
    return tuple(rows), pi, brackets, action, complement


def leibniz_algebras(field):
    for path in sorted(FIXTURES.glob("leibniz_*.json")):
        yield path.name, LeibnizAlgebra.from_json_dict(json.loads(path.read_text()), field)
    for k, make in enumerate(CONSTRUCTORS):
        yield f"constructor {k}", make(field)
    for (k, a), (l, b) in itertools.combinations_with_replacement(enumerate(CONSTRUCTORS), 2):
        yield f"constructors {k} + {l}", direct_sum(a(field), b(field))


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_lie_quotient_matches_the_dense_batch_reference(field):
    checked = 0
    for name, alg in leibniz_algebras(field):
        if not check_leibniz(alg).ok:
            with pytest.raises(ValidationError):
                lie_quotient(alg)
            continue
        lq = lie_quotient(alg)
        ideal, pi, brackets, action, complement = reference_quotient(alg)
        n, q, zero = alg.dim, len(complement), field.zero
        assert lq.ideal == ideal, name
        assert squares_ideal(alg) == ideal, name
        assert [[lq.pi[m].get(k, zero) for m in range(n)] for k in range(q)] == pi, name
        assert lq.section == tuple({c: field.one} for c in complement), name
        assert lq.quotient.brackets == brackets, name
        assert [[[lq.action[k][i].get(j, zero) for i in range(n)] for j in range(n)]
                for k in range(q)] == action, name
        checked += 1
    assert checked >= 5 + len(CONSTRUCTORS) + 28


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF10007"])
def test_squares_ideal_of_a_direct_sum_is_the_sum_of_the_ideals(field):
    for a, b in itertools.product(CONSTRUCTORS, repeat=2):
        a, b = a(field), b(field)
        n, m, zero = a.dim, b.dim, field.zero
        expected = (tuple(row + (zero,) * m for row in squares_ideal(a))
                    + tuple((zero,) * n + row for row in squares_ideal(b)))
        assert squares_ideal(direct_sum(a, b)) == expected
