"""Monomial braidings and permutation modules are decided on index tables.

``braid.check_ybe`` sweeps a braiding whose every column is one nonzero
entry on an image-index table and a coefficient table, and
``GroupAlgebraDescriptor.check_action_axioms`` reads an action table whose
every entry is a basis vector as integer images.  Each must give the verdict
and the witness of the sparse sweep it stands in for; the references here
are those sweeps, written out.
"""

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rackyd import braid, group_hopf
from rackyd.braid import BraidingMatrix, check_ybe
from rackyd.group_hopf import GroupAlgebraDescriptor
from rackyd.linalg import flat2, lincomb
from rackyd.racks import FiniteGroup, conjugation_rack, dihedral_quandle
from rackyd.scalars import QQ, PrimeField, quotient

GF = PrimeField(10007)
FIELDS = st.sampled_from([QQ, GF])


def sparse_witness(t):
    """The least (i, j, k) at which the two sides differ as sparse vectors."""
    n, sides = braid._ybe_sides(t)
    for i, j, k in product(range(n), repeat=3):
        lhs, rhs = sides(flat2(flat2(i, j, n), k, n * n))
        if lhs != rhs:
            return (i, j, k)
    return None


def checked(t):
    """check_ybe's report, and whether it took the monomial sweep."""
    calls = []
    real = braid._monomial_failures
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(braid, "_monomial_failures", lambda *a: calls.append(a) or real(*a))
        rep = check_ybe(t)
    return rep, bool(calls)


def _alexander(n, t):
    return [[(t * x + (1 - t) * y) % n for y in range(n)] for x in range(n)]


# shelves x <| y, given by their tables; the set braiding (y, x <| y) of each
# satisfies the braid relation
SHELVES = [
    *(dihedral_quandle(n).op for n in range(1, 7)),
    conjugation_rack(FiniteGroup.symmetric(3)).op,
    _alexander(5, 2), _alexander(7, 3),
    [[(x + 1) % 4 for _ in range(4)] for x in range(4)],  # a permutation rack
    [[0] * 3 for _ in range(3)],  # x <| y = 0, a shelf that is no rack
]


def scalar(field, value):
    return field.one * value


@st.composite
def rack_form_braidings(draw):
    """lambda (D (x) D) c (D (x) D)^-1 for the set braiding c of a shelf and
    a diagonal D, so the coefficient of column (i, j) is lambda d[i<|j] / d[i];
    kind picks unit, signed or scaled d and lambda."""
    field = draw(FIELDS)
    op = draw(st.sampled_from(SHELVES))
    n = len(op)
    kind = draw(st.sampled_from(["unit", "signed", "scaled"]))
    values = {"unit": st.just(1), "signed": st.sampled_from([1, -1]),
              "scaled": st.integers(-6, 6).filter(bool)}[kind]
    d = [scalar(field, draw(values)) for _ in range(n)]
    lam = scalar(field, draw(values))
    columns = [None] * (n * n)
    for i, j in product(range(n), repeat=2):
        columns[flat2(i, j, n)] = {flat2(j, op[i][j], n): quotient(lam * d[op[i][j]], d[i])}
    return field, n, columns


@st.composite
def perturbed(draw, braidings):
    """A braiding with a few columns replaced by other single entries."""
    field, n, columns = draw(braidings)
    columns = list(columns)
    for _ in range(draw(st.integers(0, 2))):
        f = draw(st.integers(0, n * n - 1))
        row = draw(st.integers(0, n * n - 1))
        columns[f] = {row: scalar(field, draw(st.sampled_from([1, -1, 2, 3])))}
    return field, n, columns


@settings(max_examples=150, deadline=None)
@given(rack_form_braidings())
def test_a_rack_form_braiding_passes_on_the_monomial_sweep(case):
    _, n, columns = case
    t = BraidingMatrix(columns, range(n))
    rep, monomial = checked(t)
    assert monomial and rep.ok and rep.witness is None and rep.size == n ** 3
    assert sparse_witness(t) is None


@settings(max_examples=300, deadline=None)
@given(perturbed(rack_form_braidings()))
def test_the_monomial_sweep_gives_the_sparse_verdict_and_witness(case):
    _, n, columns = case
    t = BraidingMatrix(columns, range(n))
    rep, monomial = checked(t)
    witness = sparse_witness(t)
    assert monomial
    assert (rep.ok, rep.witness) == (witness is None, witness)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_non_monomial_braiding_keeps_the_sparse_sweep(data):
    field, n, columns = data.draw(perturbed(rack_form_braidings()))
    columns = list(columns)
    f = data.draw(st.integers(0, n * n - 1))
    if data.draw(st.booleans()):
        columns[f] = {}
    else:
        row = data.draw(st.integers(0, n * n - 1).filter(lambda r: r not in columns[f]))
        columns[f] = {**columns[f], row: field.one}
    t = BraidingMatrix(columns, range(n))
    rep, monomial = checked(t)
    witness = sparse_witness(t)
    assert not monomial
    assert (rep.ok, rep.witness) == (witness is None, witness)


def test_the_witness_is_the_least_failing_triple_not_the_least_flat_index():
    # two redirected columns of the flip of a 3-dimensional space: the defect's
    # first nonzero column is the flat triple e_1 e_0 e_0, the least failing
    # triple is (0, 1, 0)
    n = 3
    columns = braid.flip_columns(n)
    columns[flat2(0, 0, n)] = {flat2(1, 0, n): 1}
    columns[flat2(1, 0, n)] = {flat2(2, 1, n): 1}
    t = BraidingMatrix(columns, range(n))
    rep, monomial = checked(t)
    assert monomial and rep.witness == sparse_witness(t) == (0, 1, 0)
    assert next(f for f, col in enumerate(braid.ybe_defect(t)) if col) == flat2(1, 0, n)


GROUPS = [FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)]


def _actions(group):
    """Right actions on the group's own elements: conjugation and
    multiplication, as tables of images."""
    n = group.size
    return [
        [[group.conj(x, g) for g in range(n)] for x in range(n)],
        [[group.mul[x][g] for g in range(n)] for x in range(n)],
    ]


@st.composite
def action_tables(draw, permutation):
    """A table of images, a few of them redrawn, as sparse entries; without
    ``permutation`` one entry is also made other than a basis vector."""
    field = draw(FIELDS)
    group = draw(st.sampled_from(GROUPS))
    n = group.size
    images = [list(row) for row in draw(st.sampled_from(_actions(group)))]
    for _ in range(draw(st.integers(0, 2))):
        images[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
            draw(st.integers(0, n - 1))
    rows = [[{k: field.one} for k in row] for row in images]
    if not permutation:
        m, g = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        k = images[m][g]
        rows[m][g] = draw(st.sampled_from([
            {}, {k: scalar(field, 2)}, {k: scalar(field, -1)},
            {k: field.one, (k + 1) % n: field.one},
        ]))
    return GroupAlgebraDescriptor(group, field), SimpleNamespace(dim=n, action=rows)


def sparse_action_witness(hopf, module):
    """The sparse sweep: action_witness on basis vectors, labels in the witness."""
    one, rows = hopf.field.one, module.action
    witness = hopf.group.action_witness(
        [{m: one} for m in range(module.dim)],
        lambda vec, g: lincomb(vec, lambda m: rows[m][g]))
    return None if witness is None else (witness[0], *(hopf.labels[g] for g in witness[1:]))


def action_checked(hopf, module):
    """check_action_axioms' witness, and how many sparse vectors it combined."""
    calls = []
    real = group_hopf.lincomb
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(group_hopf, "lincomb", lambda *a: calls.append(a) or real(*a))
        witness = hopf.check_action_axioms(module)
    return witness, len(calls)


@settings(max_examples=200, deadline=None)
@given(action_tables(permutation=True))
def test_a_permutation_table_is_proved_on_indices_with_the_sparse_witness(case):
    hopf, module = case
    witness, combined = action_checked(hopf, module)
    assert combined == 0
    assert witness == sparse_action_witness(hopf, module)


@settings(max_examples=200, deadline=None)
@given(action_tables(permutation=False))
def test_any_other_table_keeps_the_sparse_sweep(case):
    hopf, module = case
    witness, combined = action_checked(hopf, module)
    assert combined > 0
    assert witness == sparse_action_witness(hopf, module)


def test_the_true_actions_pass_on_indices():
    for group, field in product(GROUPS, (QQ, GF)):
        hopf = GroupAlgebraDescriptor(group, field)
        for images in _actions(group):
            rows = [[{k: field.one} for k in row] for row in images]
            assert action_checked(hopf, SimpleNamespace(dim=group.size, action=rows)) == (None, 0)
