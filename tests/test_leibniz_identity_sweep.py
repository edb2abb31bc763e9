"""The one braided Leibniz sweep against the three triple loops it replaced.

``check_braided_leibniz``, ``check_leibniz`` and the Jacobi half of
``check_lie`` each ran their own loop over basis triples; all three now call
``yd.braided_leibniz_witness``.  The loops are rewritten here as references,
and verdict and witness must match on random tables, most of which fail.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from rackyd.envelope import check_lie
from rackyd.leibniz import LeibnizAlgebra, check_leibniz
from rackyd.linalg import lincomb, vsum
from rackyd.yd import BraidedLeibnizData, BraidingMatrix, check_braided_leibniz

coeff = st.sampled_from([Fraction(-1), Fraction(1), Fraction(2)])


def sparse(n):
    return st.dictionaries(st.integers(0, n - 1), coeff, max_size=2)


@st.composite
def tables(draw, antisymmetric=False):
    n = draw(st.integers(1, 3))
    table = [[draw(sparse(n)) for _ in range(n)] for _ in range(n)]
    if antisymmetric:
        for i in range(n):
            table[i][i] = {}
            for j in range(i):
                table[i][j] = {k: -c for k, c in table[j][i].items()}
    return table


def bra(table, u, v):
    return lincomb(u, lambda i: lincomb(v, table[i].__getitem__))


def braided_loop(table, tau):
    """(x <| y) <| z = x <| (y <| z) + (x <| z<1>) <| y<2>, one triple at a time."""
    n = len(table)
    for i, j, k in product(range(n), repeat=3):
        x, y, z = {i: 1}, {j: 1}, {k: 1}
        rhs = vsum(bra(table, x, bra(table, y, z)), lincomb(
            tau[j + n * k], lambda r: bra(table, bra(table, x, {r % n: 1}), {r // n: 1})))
        if bra(table, bra(table, x, y), z) != rhs:
            return (i, j, k)
    return None


def leibniz_loop(table):
    """[[x, y], z] = [x, [y, z]] + [[x, z], y]."""
    n = len(table)
    for i, j, k in product(range(n), repeat=3):
        x, y, z = {i: 1}, {j: 1}, {k: 1}
        rhs = vsum(bra(table, x, bra(table, y, z)), bra(table, bra(table, x, z), y))
        if bra(table, bra(table, x, y), z) != rhs:
            return (i, j, k)
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_braided_sweep_matches_the_triple_loop(data):
    table = data.draw(tables())
    n = len(table)
    tau = [data.draw(sparse(n * n)) for _ in range(n * n)]
    basis = tuple(f"b{i}" for i in range(n))
    rep = check_braided_leibniz(BraidedLeibnizData(basis, table, BraidingMatrix(tau, basis)))
    assert rep.witness == braided_loop(table, tau)
    assert rep.ok is (rep.witness is None)


@settings(max_examples=200, deadline=None)
@given(tables())
def test_leibniz_sweep_matches_the_triple_loop(table):
    rep = check_leibniz(LeibnizAlgebra([f"b{i}" for i in range(len(table))], table))
    assert rep.witness == leibniz_loop(table)
    assert rep.ok is (rep.witness is None)


@settings(max_examples=200, deadline=None)
@given(tables(antisymmetric=True))
def test_jacobi_sweep_matches_the_triple_loop(table):
    witness = leibniz_loop(table)
    assert check_lie(table) == (None if witness is None else ("jacobi", *witness))
