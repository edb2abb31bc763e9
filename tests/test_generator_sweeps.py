"""Sweeps decided on generating sets, against whole-range references written here.

``check_yd`` and the equivariance half of ``check_q_conditions`` decide their
identities on the group's generating set S, and ``check_shelf`` decides
self-distributivity of a rack on its generating set Z.  Each is compared with
the plain sweep over every group element or every triple, on perturbations of
valid modules, q-maps and rack tables: the verdict and the witness must be
the ones the full sweep gives.
"""

import json
import pathlib
import random
from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from rackyd import jsonio
from rackyd.group_hopf import LinearizedRack, ker_eps_yd, rack_q_map
from rackyd.racks import (
    FiniteGroup,
    FiniteShelf,
    check_shelf,
    conjugation_rack,
    dihedral_quandle,
)
from rackyd.selfdist import greedy_generators
from rackyd.yd import YDModule, check_q_conditions, check_yd

ONE = Fraction(1)
S3_CONJ_MODULE = jsonio.yd_from_dict(json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "yd_s3_conj.json").read_text()))
S3_KER_EPS = ker_eps_yd(FiniteGroup.symmetric(3))
MODULES = [S3_CONJ_MODULE, S3_KER_EPS]


def add(vec, key, c):
    vec[key] = vec.get(key, 0) + c


def nonzero(vec):
    return {k: c for k, c in vec.items() if c}


def yd_reference(module, hs=None):
    """Least (m, g), g in ``hs`` (default: all of G), with
    delta(e_m g) != (rho_g (x) c_g) delta(e_m), where c_g(h) = g^-1 h g;
    None if there is none."""
    group, rows, coact = module.hopf.group, module.action, module.coaction
    for m, g in product(range(module.dim), hs or range(group.size)):
        lhs, rhs = {}, {}
        for y, c in rows[m][g].items():
            for x, h, d in coact[y]:
                add(lhs, (x, h), c * d)
        for x, h, c in coact[m]:
            for y, d in rows[x][g].items():
                add(rhs, (y, group.conj(h, g)), c * d)
        if nonzero(lhs) != nonzero(rhs):
            return (m, g)
    return None


def equivariance_reference(module, q, hs=None):
    """Least (m, g), g in ``hs`` (default: all of G), with q(e_m g) != g^-1 q(e_m) g."""
    group, rows = module.hopf.group, module.action
    for m, g in product(range(module.dim), hs or range(group.size)):
        lhs = {}
        for y, c in rows[m][g].items():
            for h, d in q[y].items():
                add(lhs, h, c * d)
        if nonzero(lhs) != nonzero({group.conj(h, g): c for h, c in q[m].items()}):
            return (m, g)
    return None


def twisted_action(module, sigma, k):
    """x . g := sigma^-1(sigma(x) . k^-1 g k): again a right action of G."""
    group, inv = module.hopf.group, {s: i for i, s in enumerate(sigma)}
    return [[{inv[y]: c for y, c in module.action[sigma[x]][group.conj(g, k)].items()}
             for g in range(group.size)] for x in range(module.dim)]


@st.composite
def perturbed_modules(draw):
    """A valid module over kS3 whose action is twisted and whose coaction has
    terms moved to other group elements or gained a cancelling pair, so it
    stays counital."""
    module = draw(st.sampled_from(MODULES))
    n, size = module.dim, module.hopf.size
    action = module.action
    if draw(st.booleans()):
        sigma = draw(st.permutations(range(n)))
        action = twisted_action(module, sigma, draw(st.integers(0, size - 1)))
    coaction = [list(terms) for terms in module.coaction]
    for _ in range(draw(st.integers(0, 2))):
        m = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            t = draw(st.integers(0, len(coaction[m]) - 1))
            x, _, c = coaction[m][t]
            coaction[m][t] = (x, draw(st.integers(0, size - 1)), c)
        else:
            x = draw(st.integers(0, n - 1))
            h1, h2 = (draw(st.integers(0, size - 1)) for _ in range(2))
            c = draw(st.sampled_from([ONE, -ONE, Fraction(1, 2)]))
            coaction[m] += [(x, h1, c), (x, h2, -c)]
    return YDModule(module.hopf, module.basis, action, coaction)


@settings(max_examples=200, deadline=None)
@given(perturbed_modules())
def test_check_yd_matches_the_whole_group_sweep(module):
    ref = yd_reference(module)
    rep = check_yd(module)
    assert rep.ok == rep.ok_coproduct_form == rep.ok_antipode_form == (ref is None)
    assert rep.witness == ref


def graded(module, grading):
    """``module`` with the coaction x -> x (x) grading(x)."""
    coaction = [[(x, h, ONE)] for x, h in enumerate(grading)]
    return YDModule(module.hopf, module.basis, module.action, coaction)


@st.composite
def modules_with_q(draw):
    """A module with the rack q-map of an edited grading (``--rack-q``), or
    with a q-map into ker(counit) drawn entry by entry."""
    module = draw(st.sampled_from(MODULES))
    n, size = module.dim, module.hopf.size
    if draw(st.booleans()):
        grading = [terms[0][1] for terms in module.coaction]
        for _ in range(draw(st.integers(0, 2))):
            grading[draw(st.integers(0, n - 1))] = draw(st.integers(0, size - 1))
        module = graded(module, grading)
        return module, rack_q_map(LinearizedRack(module, tuple(grading)))
    q = []
    for _ in range(n):
        vec = {}
        for _ in range(draw(st.integers(0, 2))):
            a, b = (draw(st.integers(0, size - 1)) for _ in range(2))
            c = draw(st.sampled_from([ONE, -ONE, 2 * ONE]))
            add(vec, a, c)
            add(vec, b, -c)
        q.append(nonzero(vec))
    return module, q


@settings(max_examples=200, deadline=None)
@given(modules_with_q())
def test_q_equivariance_matches_the_whole_group_sweep(module_and_q):
    module, q = module_and_q
    ref = equivariance_reference(module, q)
    rep = check_q_conditions(module, q)
    assert rep.equivariance == (ref is None)
    assert rep.witnesses.get("equivariance") == ref


# Two gradings of the S3 conjugation module (S = ((2 3), (1 2)), indices 1, 2).
# Grading (2 3) - basis 1 - by e breaks the condition at every g outside the
# centraliser <(2 3)> of (2 3), so only the second generator sees it.  Grading
# (1 2) - basis 2 - by e makes the least failing pair (1, (1 3 2)), whose
# group element is not in S.
SECOND_GENERATOR_ONLY = (0, 0, 2, 3, 4, 5)
WITNESS_OUTSIDE_S = (0, 1, 0, 3, 4, 5)


def test_yd_and_equivariance_sweep_every_generator():
    module = graded(S3_CONJ_MODULE, SECOND_GENERATOR_ONLY)
    q = rack_q_map(LinearizedRack(module, SECOND_GENERATOR_ONLY))
    first, second = module.hopf.algebra_generators
    assert yd_reference(module, [first]) is None
    assert equivariance_reference(module, q, [first]) is None
    rep = check_yd(module)
    assert not rep.ok and rep.witness == yd_reference(module) == (1, second)
    assert check_q_conditions(module, q).witnesses == {"equivariance": (1, second)}


def test_yd_and_equivariance_witness_outside_s():
    group = S3_CONJ_MODULE.hopf.group
    module = graded(S3_CONJ_MODULE, WITNESS_OUTSIDE_S)
    m, h = yd_reference(module)
    assert (m, h) == (1, 4) and h not in group.generators
    assert check_yd(module).witness == (m, h)
    q = rack_q_map(LinearizedRack(module, WITNESS_OUTSIDE_S))
    assert equivariance_reference(module, q) == (m, h)
    assert check_q_conditions(module, q).witnesses == {"equivariance": (m, h)}


def shelf_reference(op):
    """Flags and least witnesses of the shelf, rack and quandle axioms,
    each swept over every tuple."""
    n = len(op)
    witnesses = {}
    sd = next(((x, y, z) for x, y, z in product(range(n), repeat=3)
               if op[op[x][y]][z] != op[op[x][z]][op[y][z]]), None)
    if sd is not None:
        witnesses["self_distributivity"] = sd
    bij = next(((x1, x2, y) for y in range(n) for x2 in range(n) for x1 in range(x2)
                if op[x1][y] == op[x2][y]), None)
    if bij is not None:
        witnesses["bijectivity"] = bij
    idem = next(((x,) for x in range(n) if op[x][x] != x), None)
    if idem is not None:
        witnesses["idempotence"] = idem
    is_rack = sd is None and bij is None
    return sd is None, is_rack, is_rack and idem is None, witnesses


def relabelled(shelf, sigma):
    """The isomorphic table with element x renamed sigma[x]."""
    n = shelf.size
    op = [[None] * n for _ in range(n)]
    labels = [None] * n
    for x, y in product(range(n), repeat=2):
        labels[sigma[x]] = shelf.elements[x]
        op[sigma[x]][sigma[y]] = sigma[shelf.op[x][y]]
    return FiniteShelf(labels, op)


RACKS = [dihedral_quandle(n) for n in range(3, 10)] + [
    conjugation_rack(FiniteGroup.symmetric(3)),
    conjugation_rack(FiniteGroup.symmetric(4)),
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_check_shelf_matches_the_whole_table_sweep(data):
    shelf = data.draw(st.sampled_from(RACKS))
    n = shelf.size
    op = [list(row) for row in relabelled(shelf, data.draw(st.permutations(range(n)))).op]
    for _ in range(data.draw(st.integers(0, 2))):
        a, b = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        for row in op:
            row[a], row[b] = row[b], row[a]
    if data.draw(st.booleans()):
        op[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] = \
            data.draw(st.integers(0, n - 1))
    rep = check_shelf(FiniteShelf(shelf.elements, op))
    assert (rep.is_shelf, rep.is_rack, rep.is_quandle, rep.witnesses) == shelf_reference(op)


def swapped_columns(shelf, a, b):
    op = [list(row) for row in shelf.op]
    for row in op:
        row[a], row[b] = row[b], row[a]
    return FiniteShelf(shelf.elements, op)


def test_check_shelf_sweeps_every_generator():
    # D3 with columns 1 and 2 swapped: still bijective, R_0 is still an
    # endomorphism, and only z = 1, the second element of Z, shows the defect
    shelf = swapped_columns(dihedral_quandle(3), 1, 2)
    assert greedy_generators(shelf.op) == (0, 1)
    witnesses = shelf_reference(shelf.op)[3]
    assert witnesses == {"self_distributivity": (0, 0, 1), "idempotence": (1,)}
    op = shelf.op
    assert all(op[op[x][y]][0] == op[op[x][0]][op[y][0]] for x, y in product(range(3), repeat=2))
    rep = check_shelf(shelf)
    assert not rep.is_shelf and rep.witnesses == witnesses


def test_check_shelf_witness_outside_z():
    shelf = swapped_columns(dihedral_quandle(5), 1, 2)
    x, y, z = check_shelf(shelf).witnesses["self_distributivity"]
    assert (x, y, z) == shelf_reference(shelf.op)[3]["self_distributivity"] == (0, 0, 2)
    assert z not in greedy_generators(shelf.op)


def test_check_shelf_sweeps_every_triple_of_a_non_rack():
    # R_0 and R_1 are endomorphisms and Z = (0, 1), but the table is not
    # bijective, so the closure argument does not apply: z = 2 fails
    shelf = FiniteShelf("abc", [[0, 0, 0], [1, 2, 1], [2, 0, 0]])
    assert greedy_generators(shelf.op) == (0, 1)
    rep = check_shelf(shelf)
    assert not rep.is_shelf and rep.witnesses == shelf_reference(shelf.op)[3]
    assert rep.witnesses["self_distributivity"] == (1, 1, 2)


def subrack_generated(op, gens):
    """Close ``gens`` under x <| y for every pair of elements already reached."""
    closed = set(gens)
    while True:
        new = {op[x][y] for x in closed for y in closed} - closed
        if not new:
            return closed
        closed |= new


def test_rack_generators_reach_every_element():
    s5 = conjugation_rack(FiniteGroup.symmetric(5))
    shelves = [dihedral_quandle(n) for n in range(3, 14)]
    shelves += [conjugation_rack(FiniteGroup.symmetric(n)) for n in (3, 4)]
    sigma = list(range(s5.size))
    random.Random(0).shuffle(sigma)
    shelves += [s5, relabelled(s5, sigma)]
    for shelf in shelves:
        gens = greedy_generators(shelf.op)
        assert subrack_generated(shelf.op, gens) == set(range(shelf.size))
        assert all(z not in subrack_generated(shelf.op, gens[:k]) for k, z in enumerate(gens))


def test_rack_generators_are_fixed_by_the_table():
    assert all(greedy_generators(dihedral_quandle(n).op) == (0, 1) for n in range(3, 14))
    assert greedy_generators(dihedral_quandle(1).op) == (0,)
    # a conjugation quandle needs a generator in every conjugacy class
    assert len(greedy_generators(conjugation_rack(FiniteGroup.symmetric(4)).op)) >= 5
