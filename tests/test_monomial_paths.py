"""Rack-form braidings are decided on their table, permutation modules on
integer images.

``braid.check_ybe`` decides a braiding in rack form,
``tau(e_x (x) e_y) = c(x, y) e_y (x) e_(x <| y)``, by the self-distributivity
kernel ``rackyd.selfdist.witnesses`` on the table ``<|`` (plus a sweep of the
cocycle identity of c when the c differ); ``yd.check_braided_leibniz``
decides data in unit rack form, c = 1 and ``e_x <| e_y = e_(x <| y) - e_x``
with the same table, by that kernel alone; and
``GroupAlgebraDescriptor.check_action_axioms`` reads an action table whose
every entry is a basis vector as integer images.  Each must give the verdict
and the witness of the sparse sweep it stands in for; the references here
are those sweeps, written out, and ``yd.braided_leibniz_witness``.  Every
other braiding, monomial or not, and every look-alike of unit rack-form data
must take the sparse sweep itself.
"""

from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rackyd import braid, group_hopf, yd
from rackyd.braid import BraidingMatrix, check_ybe
from rackyd.errors import ShapeError
from rackyd.group_hopf import GroupAlgebraDescriptor, LinearizedRack
from rackyd.linalg import flat2, lincomb
from rackyd.racks import (
    FiniteGroup, conjugation_augmented, conjugation_rack, dihedral_quandle, inner_augmentation,
)
from rackyd.scalars import QQ, PrimeField, quotient
from rackyd.yd import BraidedLeibnizData, braided_leibniz_witness, check_braided_leibniz

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
    """check_ybe's report, and whether it called the self-distributivity kernel."""
    calls = []
    real = braid.witnesses
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(braid, "witnesses", lambda op: calls.append(op) or real(op))
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
def perturbed_tables(draw):
    """A table of SHELVES with a few entries redrawn or two columns swapped."""
    op = [list(row) for row in draw(st.sampled_from(SHELVES))]
    n = len(op)
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            op[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = \
                draw(st.integers(0, n - 1))
        else:
            y1, y2 = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            for row in op:
                row[y1], row[y2] = row[y2], row[y1]
    return op


@st.composite
def rack_form_braidings(draw, tables=st.sampled_from(SHELVES)):
    """lambda (D (x) D) c (D (x) D)^-1 for the set braiding c of a table and
    a diagonal D, so the coefficient of column (i, j) is lambda d[i<|j] / d[i];
    kind picks unit, signed or scaled d and lambda."""
    field = draw(FIELDS)
    op = draw(tables)
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
def rescaled(draw, braidings):
    """A rack-form braiding with a few coefficients multiplied by 2, -1 or 3,
    which breaks the cocycle identity at some triples but not the form."""
    field, n, columns = draw(braidings)
    columns = list(columns)
    for _ in range(draw(st.integers(0, 2))):
        f = draw(st.integers(0, n * n - 1))
        factor = scalar(field, draw(st.sampled_from([2, -1, 3])))
        columns[f] = {r: c * factor for r, c in columns[f].items()}
    return field, n, columns


@settings(max_examples=150, deadline=None)
@given(rack_form_braidings())
def test_a_rack_form_braiding_passes_on_the_kernel(case):
    _, n, columns = case
    t = BraidingMatrix(columns, range(n))
    rep, kernel = checked(t)
    assert kernel and rep.ok and rep.witness is None and rep.size == n ** 3
    assert sparse_witness(t) is None


@settings(max_examples=300, deadline=None)
@given(rescaled(rack_form_braidings(perturbed_tables())))
def test_the_kernel_gives_the_sparse_verdict_and_witness(case):
    _, n, columns = case
    t = BraidingMatrix(columns, range(n))
    rep, kernel = checked(t)
    witness = sparse_witness(t)
    assert kernel
    assert (rep.ok, rep.witness) == (witness is None, witness)


@pytest.mark.parametrize("field", [QQ, GF], ids=str)
@pytest.mark.parametrize("edit", [None, (1, 2, 1), (2, 0, 2)])
def test_a_table_that_is_not_bijective_is_swept_by_the_kernel(field, edit):
    # x <| y = 0 is a shelf whose translations are not bijections, so no
    # generating set stands in for the triples; one edited entry breaks it
    n = 3
    op = [[0] * n for _ in range(n)]
    if edit is not None:
        x, y, v = edit
        op[x][y] = v
    t = BraidingMatrix([{flat2(j, op[i][j], n): field.one} for j in range(n) for i in range(n)],
                       range(n))
    rep, kernel = checked(t)
    assert kernel and (rep.ok, rep.witness) == (edit is None, sparse_witness(t))
    assert edit is None or rep.witness is not None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_monomial_braiding_not_in_rack_form_keeps_the_sparse_sweep(data):
    # column (i, j) is sent to e_a (x) e_b with a != j
    field, n, columns = data.draw(rescaled(rack_form_braidings(perturbed_tables())))
    if n == 1:
        return
    columns = list(columns)
    f = data.draw(st.integers(0, n * n - 1))
    a = data.draw(st.integers(0, n - 1).filter(lambda a: a != f // n))
    columns[f] = {flat2(a, data.draw(st.integers(0, n - 1)), n): field.one}
    t = BraidingMatrix(columns, range(n))
    rep, kernel = checked(t)
    witness = sparse_witness(t)
    assert not kernel
    assert (rep.ok, rep.witness) == (witness is None, witness)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_non_monomial_braiding_keeps_the_sparse_sweep(data):
    field, n, columns = data.draw(rescaled(rack_form_braidings(perturbed_tables())))
    columns = list(columns)
    f = data.draw(st.integers(0, n * n - 1))
    if data.draw(st.booleans()):
        columns[f] = {}
    else:
        row = data.draw(st.integers(0, n * n - 1).filter(lambda r: r not in columns[f]))
        columns[f] = {**columns[f], row: field.one}
    t = BraidingMatrix(columns, range(n))
    rep, kernel = checked(t)
    witness = sparse_witness(t)
    assert not kernel
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
    rep, _ = checked(t)
    assert rep.witness == sparse_witness(t) == (0, 1, 0)
    assert next(f for f, col in enumerate(braid.ybe_defect(t)) if col) == flat2(1, 0, n)


def test_a_row_outside_the_square_is_a_shape_error():
    with pytest.raises(ShapeError, match="rows 0..3"):
        BraidingMatrix([{5: 1}, {0: 1}, {0: 1}, {0: 1}], "ab")
    with pytest.raises(ShapeError):
        BraidingMatrix([{0: 1}, {-1: 1}, {0: 1}, {0: 1}], "ab")


def unit_rack_data(field, op):
    """The bracket e_x <| e_y = e_(x<|y) - e_x and the sparse columns of
    tau(e_x (x) e_y) = e_y (x) e_(x<|y) for the table ``op``."""
    n, one = len(op), field.one
    bracket = [[{} if xy == x else {xy: one, x: -one} for xy in row] for x, row in enumerate(op)]
    return bracket, [{flat2(f // n, op[f % n][f // n], n): one} for f in range(n * n)]


def leibniz_checked(field, bracket, tau):
    """check_braided_leibniz's report, and whether it called the kernel."""
    calls = []
    real = yd.witnesses
    basis = tuple(f"b{i}" for i in range(len(bracket)))
    data = BraidedLeibnizData(basis, bracket, BraidingMatrix(tau, basis), field)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(yd, "witnesses", lambda op: calls.append(op) or real(op))
        rep = check_braided_leibniz(data)
    return rep, bool(calls)


@settings(max_examples=300, deadline=None)
@given(FIELDS, perturbed_tables())
def test_unit_rack_form_data_gets_the_sparse_verdict_and_witness_from_the_kernel(field, op):
    bracket, tau = unit_rack_data(field, op)
    rep, kernel = leibniz_checked(field, bracket, tau)
    witness = braided_leibniz_witness(bracket, tau)
    assert kernel
    assert (rep.ok, rep.witness) == (witness is None, witness)


LOOK_ALIKES = ["tau scaled", "bracket coefficient 2", "tau column redirected", "bracket table"]


@settings(max_examples=300, deadline=None)
@given(st.data(), FIELDS, perturbed_tables().filter(lambda op: len(op) > 1),
       st.sampled_from(LOOK_ALIKES))
def test_look_alikes_of_unit_rack_form_data_keep_the_sparse_sweep(data, field, op, kind):
    bracket, tau = unit_rack_data(field, op)
    n, one = len(op), field.one
    x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    other = data.draw(st.integers(0, n - 1).filter(lambda v: v != op[x][y]))
    if kind == "tau scaled":
        lam = scalar(field, data.draw(st.sampled_from([2, -1, 3])))
        tau = [{r: c * lam for r, c in col.items()} for col in tau]
    elif kind == "bracket coefficient 2":
        bracket[x][y] = {k: c + c for k, c in bracket[x][y].items()} or {x: one + one}
    elif kind == "tau column redirected":
        # still rack form, but for a table that differs from the bracket's at (x, y)
        tau[flat2(x, y, n)] = {flat2(y, other, n): one}
    else:
        # the unit bracket of a table that differs from tau's at (x, y)
        bracket[x][y] = {} if other == x else {other: one, x: -one}
    rep, kernel = leibniz_checked(field, bracket, tau)
    witness = braided_leibniz_witness(bracket, tau)
    assert not kernel
    assert (rep.ok, rep.witness) == (witness is None, witness)


def _rack_q_data(module):
    """braided_leibniz_from_q with q(x) = p(x) - 1 for a grading coaction."""
    p = tuple(terms[0][1] for terms in module.coaction)
    return yd.braided_leibniz_from_q(module, group_hopf.rack_q_map(LinearizedRack(module, p)))


@pytest.mark.parametrize("field", [QQ, GF], ids=str)
def test_linearized_racks_and_ker_eps_are_decided_by_the_kernel(field):
    s3 = FiniteGroup.symmetric(3)
    modules = [group_hopf.ker_eps_yd(s3, field)] + [
        group_hopf.linearize_augmented(aug, field).module
        for aug in (conjugation_augmented(s3), inner_augmentation(dihedral_quandle(5)))]
    for module in modules:
        data = _rack_q_data(module)
        rep, kernel = leibniz_checked(field, data.bracket, data.tau.columns)
        assert kernel and rep.ok
        assert braided_leibniz_witness(data.bracket, data.tau.columns) is None


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
