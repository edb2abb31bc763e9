"""Generator-set proofs against whole-group references written here.

``FiniteGroup`` checks associativity with Light's test over its generating
set, and ``FiniteGroup.action_witness`` proves a right action from the
generators alone.  Each is compared with the plain whole-group sweep on
single-entry perturbations of valid tables, and every witness returned is
checked to be a real failure.
"""

import json
import pathlib
import random
import re
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rackyd import jsonio
from rackyd.errors import ValidationError
from rackyd.racks import (
    AugmentedRack,
    FiniteGroup,
    conjugation_augmented,
    dihedral_quandle,
    inner_augmentation,
)
from rackyd.yd import YDModule

ONE = Fraction(1)
S3_CONJ_MODULE = jsonio.yd_from_dict(json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "yd_s3_conj.json").read_text()))


def dihedral4():
    return FiniteGroup.from_permutations([(1, 2, 3, 0), (0, 3, 2, 1)], 4)[0]


CAYLEY_TABLES = [FiniteGroup.cyclic(n).mul for n in range(1, 7)] + [
    FiniteGroup.symmetric(3).mul,
    dihedral4().mul,
]


def is_group_table(mul):
    """Identity, two-sided inverses and associativity on all |G|^3 triples."""
    n = len(mul)
    idents = [e for e in range(n) if all(mul[e][x] == x == mul[x][e] for x in range(n))]
    if not idents:
        return False
    e = idents[0]
    if not all(any(mul[x][y] == e == mul[y][x] for y in range(n)) for x in range(n)):
        return False
    return all(mul[mul[a][b]][c] == mul[a][mul[b][c]] for a, b, c in product(range(n), repeat=3))


def reached_from_identity(group):
    """Elements reached from e by right multiplication with the generators."""
    seen, frontier = {group.identity}, [group.identity]
    while frontier:
        frontier = [y for y in {group.mul[x][s] for x in frontier for s in group.generators}
                    if y not in seen]
        seen.update(frontier)
    return seen


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_light_test_matches_the_whole_group_sweep(data):
    table = data.draw(st.sampled_from(CAYLEY_TABLES))
    n = len(table)
    a, b, c = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    mul = [list(row) for row in table]
    mul[a][b] = c
    labels = [f"g{i}" for i in range(n)]
    if is_group_table(mul):
        FiniteGroup(labels, mul)
        return
    with pytest.raises(ValidationError) as exc:
        FiniteGroup(labels, mul)
    found = re.fullmatch(r"mul table not associative at \(g(\d+), g(\d+), g(\d+)\)",
                         str(exc.value))
    if found:
        x, s, y = map(int, found.groups())
        assert mul[mul[x][s]][y] != mul[x][mul[s][y]]


def test_light_test_rejects_a_loop():
    # a Latin square with identity 0 and every element its own inverse; only
    # associativity fails, so the generator sweep alone must catch it
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    assert not is_group_table(loop)
    with pytest.raises(ValidationError, match="not associative"):
        FiniteGroup("abcde", loop)


def test_light_test_sweeps_every_generator():
    # Z/2 x loop, indexed 2*l + h: the first generator (1, 0) is central and
    # associates with everything, so only a later generator shows the defect
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    mul = [[2 * loop[i // 2][j // 2] + (i + j) % 2 for j in range(10)] for i in range(10)]
    assert not is_group_table(mul)
    with pytest.raises(ValidationError, match="not associative"):
        FiniteGroup([f"g{i}" for i in range(10)], mul)


def whole_group_action_ok(group, points, act):
    """x.e = x and (x.a).b = x.(ab) for every x, a and b."""
    e, g = group.identity, range(group.size)
    return all(act(x, e) == x for x in points) and all(
        act(act(x, a), b) == act(x, group.mul[a][b]) for x in points for a in g for b in g)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rack_action_proof_matches_the_whole_group_sweep(data):
    aug = conjugation_augmented(FiniteGroup.symmetric(3))
    group, nx = aug.group, aug.size
    x = data.draw(st.integers(0, nx - 1))
    g = data.draw(st.integers(0, group.size - 1))
    action = [list(row) for row in aug.action]
    action[x][g] = data.draw(st.integers(0, nx - 1))

    def act(y, h):
        return action[y][h]

    witness = group.action_witness(range(nx), act)
    assert (witness is None) == whole_group_action_ok(group, range(nx), act)
    if witness is None:
        AugmentedRack(aug.elements, group, action, aug.p)
        return
    if len(witness) == 2:
        i, e = witness
        assert e == group.identity and act(i, e) != i
    else:
        i, a, s = witness
        assert s in group.generators
        assert act(act(i, a), s) != act(i, group.mul[a][s])
    with pytest.raises(ValidationError):
        AugmentedRack(aug.elements, group, action, aug.p)


def test_action_proof_sweeps_every_generator():
    # rho(c s^k) = rho(s^k) for c the least element of its coset c<s>, s the
    # first generator: compatible with s, yet not an action of S3
    s3 = FiniteGroup.symmetric(3)
    true = conjugation_augmented(s3).action
    s = s3.generators[0]
    twisted = {g: s3.mul[s3.inv[min(g, s3.mul[g][s])]][g] for g in range(s3.size)}

    def act(x, g):
        return true[x][twisted[g]]

    assert all(act(act(x, a), s) == act(x, s3.mul[a][s]) for x in range(6) for a in range(6))
    assert not whole_group_action_ok(s3, range(6), act)
    i, a, t = s3.action_witness(range(6), act)
    assert t != s and act(act(i, a), t) != act(i, s3.mul[a][t])


def test_action_proof_needs_the_unit_row():
    # every element acting as the same idempotent passes (x a) s = x (a s)
    s3 = FiniteGroup.symmetric(3)
    assert s3.action_witness(range(3), lambda x, g: 0) == (1, s3.identity)
    hopf = S3_CONJ_MODULE.hopf
    rows = [[{0: ONE}] * 6 for _ in range(6)]
    assert hopf.check_action_axioms(SimpleNamespace(dim=6, action=rows)) == (1, "e")


def apply(rows, vec, g):
    """Linear extension of the action table column of g, written out."""
    out = {}
    for m, c in vec.items():
        for k, d in rows[m][g].items():
            out[k] = out.get(k, 0) + c * d
    return {k: v for k, v in out.items() if v}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_module_action_proof_matches_the_whole_group_sweep(data):
    module = S3_CONJ_MODULE
    hopf, group, n = module.hopf, module.hopf.group, module.dim
    m = data.draw(st.integers(0, n - 1))
    g = data.draw(st.integers(0, group.size - 1))
    rows = [list(row) for row in module.action]
    rows[m][g] = {data.draw(st.integers(0, n - 1)): data.draw(st.sampled_from([ONE, -ONE, 2 * ONE]))}
    points = [{i: ONE} for i in range(n)]

    def act(vec, h):
        return apply(rows, vec, h)

    witness = hopf.check_action_axioms(SimpleNamespace(dim=n, action=rows))
    assert (witness is None) == whole_group_action_ok(group, points, act)
    if witness is None:
        YDModule(hopf, module.basis, rows, module.coaction)
        return
    i, *labels = witness
    if len(labels) == 1:
        assert labels == ["e"] and rows[i][group.identity] != {i: ONE}
    else:
        a, s = (group.index_of(label) for label in labels)
        assert s in group.generators
        assert act(rows[i][a], s) != rows[i][group.mul[a][s]]
    with pytest.raises(ValidationError, match="module axioms"):
        YDModule(hopf, module.basis, rows, module.coaction)


def relabelled(group, seed):
    perm = list(range(group.size))
    random.Random(seed).shuffle(perm)
    labels = [None] * group.size
    mul = [[None] * group.size for _ in perm]
    for a, b in product(range(group.size), repeat=2):
        labels[perm[a]] = group.elements[a]
        mul[perm[a]][perm[b]] = perm[group.mul[a][b]]
    return FiniteGroup(labels, mul)


def test_generators_reach_every_element():
    groups = [FiniteGroup.cyclic(n) for n in range(1, 9)]
    groups += [FiniteGroup.symmetric(n) for n in (3, 4, 5)]
    groups.append(relabelled(FiniteGroup.symmetric(5), seed=0))
    groups += [inner_augmentation(dihedral_quandle(n)).group for n in range(5, 10)]
    for group in groups:
        assert reached_from_identity(group) == set(range(group.size))
        assert 2 ** len(group.generators) <= group.size
        assert FiniteGroup(group.elements, group.mul).generators == group.generators


def test_generators_are_fixed_by_the_table():
    assert FiniteGroup.cyclic(1).generators == ()
    assert all(FiniteGroup.cyclic(n).generators == (1,) for n in range(2, 9))
    s5 = FiniteGroup.symmetric(5)
    assert [s5.elements[s] for s in s5.generators] == ["(4 5)", "(3 4)", "(2 3)", "(1 2)"]
