from collections import Counter
from itertools import product

import pytest

from rackyd import racks
from rackyd.errors import ValidationError
from rackyd.racks import (
    DIHEDRAL_MAX_ORDER,
    AugmentedRack,
    FiniteGroup,
    FiniteShelf,
    check_augmented,
    check_shelf,
    conjugation_augmented,
    conjugation_rack,
    dihedral_quandle,
    induced_rack,
    inner_augmentation,
    rack_braiding_ybe,
    rack_tensor_and_braiding,
)


def brute_is_shelf(op):
    n = len(op)
    return all(
        op[op[x][y]][z] == op[op[x][z]][op[y][z]]
        for x, y, z in product(range(n), repeat=3)
    )


def test_trivial_shelf_is_quandle():
    s = FiniteShelf("abc", [[i] * 3 for i in range(3)])
    rep = check_shelf(s)
    assert rep.is_shelf and rep.is_rack and rep.is_quandle


def test_dihedral3_is_quandle():
    rep = check_shelf(dihedral_quandle(3))
    assert rep.is_quandle
    # independent sweep straight from the defining formula
    op = [[(2 * y - x) % 3 for y in range(3)] for x in range(3)]
    assert brute_is_shelf(op)


def test_shelf_that_is_not_a_rack():
    # 0 <| 0 = 1 and first argument otherwise: self-distributive on all 8
    # triples, but x -> x <| 0 is not injective
    s = FiniteShelf("01", [[1, 0], [1, 1]])
    rep = check_shelf(s)
    assert brute_is_shelf(s.op)
    assert rep.is_shelf
    assert not rep.is_rack
    assert rep.witnesses["bijectivity"] == (0, 1, 0)


def test_not_a_shelf_with_witness():
    s = FiniteShelf("01", [[0, 1], [0, 0]])
    rep = check_shelf(s)
    assert not rep.is_shelf
    assert rep.witnesses["self_distributivity"] == (0, 0, 1)


def test_rack_that_is_not_a_quandle():
    # constant translation: x <| y = x + 1 mod 3
    s = FiniteShelf("012", [[(x + 1) % 3] * 3 for x in range(3)])
    rep = check_shelf(s)
    assert rep.is_rack and not rep.is_quandle
    assert rep.witnesses["idempotence"] == (0,)


def test_dihedral_arithmetic_and_involution():
    q = dihedral_quandle(3)
    assert q.apply(0, 1) == 2
    q4 = dihedral_quandle(4)
    for x, y in product(range(4), repeat=2):
        assert q4.apply(q4.apply(x, y), y) == x
    assert dihedral_quandle(1).size == 1
    with pytest.raises(ValidationError):
        dihedral_quandle(0)


def test_group_constructor_verifies_axioms():
    with pytest.raises(ValidationError):
        FiniteGroup("ab", [[0, 1], [1, 1]])  # second row breaks the group laws
    z4 = FiniteGroup.cyclic(4)
    assert z4.identity == 0
    assert z4.inv_idx(1) == 3


def test_symmetric_group_and_conjugation_rack():
    s3 = FiniteGroup.symmetric(3)
    assert s3.size == 6
    rep = check_shelf(conjugation_rack(s3))
    assert rep.is_quandle
    # (12) <| (13) = (23)
    r = conjugation_rack(s3)
    i12, i13, i23 = (s3.index_of(t) for t in ("(1 2)", "(1 3)", "(2 3)"))
    assert r.apply(i12, i13) == i23


def test_conjugation_rack_of_abelian_group_is_trivial():
    z5 = FiniteGroup.cyclic(5)
    r = conjugation_rack(z5)
    assert all(r.apply(x, y) == x for x, y in product(range(5), repeat=2))
    z2 = FiniteGroup.cyclic(2)
    assert check_shelf(conjugation_rack(z2)).is_quandle


def test_conjugation_quandle_for_every_small_group():
    for g in (FiniteGroup.cyclic(1), FiniteGroup.cyclic(6),
              FiniteGroup.symmetric(3), FiniteGroup.symmetric(4)):
        assert check_shelf(conjugation_rack(g)).is_quandle


def test_check_augmented():
    s3 = FiniteGroup.symmetric(3)
    assert check_augmented(conjugation_augmented(s3)).ok
    z2 = FiniteGroup.cyclic(2)
    aug = AugmentedRack("01", z2, [[0, 0], [1, 1]], [0, 1])
    assert check_augmented(aug).ok
    # trivial action with p = id over S3: fails wherever xg != gx
    trivial = AugmentedRack(
        s3.elements, s3, [[x] * 6 for x in range(6)], list(range(6))
    )
    rep = check_augmented(trivial)
    assert not rep.ok
    x, h = rep.witness
    assert s3.mul_idx(x, h) != s3.mul_idx(h, x)


def test_augmented_constructor_rejects_non_actions():
    z2 = FiniteGroup.cyclic(2)
    with pytest.raises(ValidationError):
        AugmentedRack("01", z2, [[1, 0], [0, 1]], [0, 1])  # identity must fix


def test_induced_rack():
    s3 = FiniteGroup.symmetric(3)
    aug = conjugation_augmented(s3)
    assert induced_rack(aug) == conjugation_rack(s3)
    z2 = FiniteGroup.cyclic(2)
    triv = AugmentedRack("01", z2, [[0, 0], [1, 1]], [0, 1])
    rack = induced_rack(triv)
    assert check_shelf(rack).is_quandle
    assert all(rack.apply(x, y) == x for x, y in product(range(2), repeat=2))


def test_induced_rack_requires_augmentation():
    s3 = FiniteGroup.symmetric(3)
    bad = AugmentedRack(s3.elements, s3, [[x] * 6 for x in range(6)], list(range(6)))
    with pytest.raises(ValidationError):
        induced_rack(bad)


def test_inner_augmentation_trivial_quandle():
    s = FiniteShelf("abcd", [[i] * 4 for i in range(4)])
    aug = inner_augmentation(s)
    assert aug.group.size == 1


def test_inner_augmentation_dihedral3():
    # every column of the dihedral quandle on Z/3 is a reflection; two
    # reflections compose to a translation, so the generated group is the
    # full dihedral group of order 6 (enumerated independently here)
    aug = inner_augmentation(dihedral_quandle(3))
    perms = {tuple((2 * y - x) % 3 for x in range(3)) for y in range(3)}
    frontier = set(perms)
    closure = {(0, 1, 2)} | perms
    while frontier:
        new = set()
        for a in closure:
            for b in perms:
                c = tuple(b[a[i]] for i in range(3))
                if c not in closure:
                    new.add(c)
        closure |= new
        frontier = new
    assert len(closure) == 6
    assert aug.group.size == 6
    assert not aug.group.is_abelian()
    assert induced_rack(aug) == dihedral_quandle(3)


def test_inner_augmentation_sizes():
    # enumerated orders of the inner groups of the dihedral quandles
    sizes = {3: 6, 4: 4, 5: 10, 6: 6, 7: 14}
    for n, order in sizes.items():
        assert inner_augmentation(dihedral_quandle(n)).group.size == order


def test_inner_augmentation_s3_conjugation():
    s3 = FiniteGroup.symmetric(3)
    aug = inner_augmentation(conjugation_rack(s3))
    # inner automorphisms of S3 form a group isomorphic to S3 itself
    assert aug.group.size == 6
    assert not aug.group.is_abelian()
    assert induced_rack(aug) == conjugation_rack(s3)


def test_inner_augmentation_rejects_non_racks():
    with pytest.raises(ValidationError):
        inner_augmentation(FiniteShelf("01", [[1, 0], [1, 1]]))


def test_inner_augmentation_proves_each_fact_once(monkeypatch):
    calls = Counter()
    for name in ("check_shelf", "check_augmented"):
        def counted(arg, _real=getattr(racks, name), _name=name):
            calls[_name] += 1
            return _real(arg)
        monkeypatch.setattr(racks, name, counted)
    inner_augmentation(dihedral_quandle(7))
    assert calls == {"check_shelf": 1, "check_augmented": 1}


def test_dihedral_order_is_capped():
    with pytest.raises(ValidationError, match="exceeds"):
        dihedral_quandle(DIHEDRAL_MAX_ORDER + 1)


def test_roundtrip_induced_inner():
    for shelf in (dihedral_quandle(5), conjugation_rack(FiniteGroup.symmetric(3))):
        assert induced_rack(inner_augmentation(shelf)) == shelf


def test_rack_tensor_and_braiding():
    s3 = FiniteGroup.symmetric(3)
    aug = conjugation_augmented(s3)
    tensor, c = rack_tensor_and_braiding(aug, aug)
    assert tensor.size == 36
    assert check_augmented(tensor).ok
    i12, i13, i23 = (s3.index_of(t) for t in ("(1 2)", "(1 3)", "(2 3)"))
    assert c[(i12, i13)] == (i13, i23)
    assert sorted(c.values()) == sorted(c.keys())  # a bijection on pairs


def test_rack_tensor_heterogeneous():
    s3 = FiniteGroup.symmetric(3)
    conj = conjugation_augmented(s3)
    point = AugmentedRack(["*"], s3, [[0] * 6], [s3.identity])
    tensor, c = rack_tensor_and_braiding(point, conj)
    assert tensor.size == 6
    assert check_augmented(tensor).ok
    # the braiding on X (x) Y moves x by p2: c(*, y) = (y, * . p2(y)) = (y, *)
    assert all(c[(0, y)] == (y, 0) for y in range(6))



TENSOR_INPUTS = [
    *(pytest.param(lambda n=n: inner_augmentation(dihedral_quandle(n)), id=f"D{n}")
      for n in range(3, 10)),
    *(pytest.param(lambda n=n: conjugation_augmented(FiniteGroup.symmetric(n)),
                   id=f"S{n}-conjugation") for n in (3, 4)),
]


@pytest.mark.parametrize("make", TENSOR_INPUTS)
def test_the_tensor_passes_the_verifying_constructor(make, monkeypatch):
    aug = make()
    sweeps = []
    real = FiniteGroup.action_witness

    def counted(self, points, act):
        sweeps.append(len(points))
        return real(self, points, act)

    monkeypatch.setattr(FiniteGroup, "action_witness", counted)
    tensor, _ = rack_tensor_and_braiding(aug, aug)
    assert sweeps == []  # the diagonal action is not swept again
    checked = AugmentedRack(tensor.elements, tensor.group, tensor.action, tensor.p)
    assert sweeps == [aug.size ** 2]
    assert checked == tensor and check_augmented(checked).ok

def test_braiding_of_trivial_action_is_swap():
    z2 = FiniteGroup.cyclic(2)
    aug = AugmentedRack("01", z2, [[0, 0], [1, 1]], [0, 0])
    _, c = rack_tensor_and_braiding(aug, aug)
    assert all(c[(x, y)] == (y, x) for x, y in c)


def test_set_level_ybe():
    s3 = FiniteGroup.symmetric(3)
    assert rack_braiding_ybe(conjugation_augmented(s3)).ok
    for n in range(3, 6):
        assert rack_braiding_ybe(inner_augmentation(dihedral_quandle(n))).ok


def test_rack_tensor_needs_one_group():
    a1 = conjugation_augmented(FiniteGroup.symmetric(3))
    a2 = conjugation_augmented(FiniteGroup.cyclic(2))
    with pytest.raises(ValidationError):
        rack_tensor_and_braiding(a1, a2)


def test_json_roundtrips(fixtures_dir):
    shelf = dihedral_quandle(4)
    assert FiniteShelf.from_json_dict(shelf.to_json_dict()) == shelf
    g = FiniteGroup.symmetric(3)
    assert FiniteGroup.from_json_dict(g.to_json_dict()) == g
    aug = conjugation_augmented(g)
    assert AugmentedRack.from_json_dict(aug.to_json_dict()) == aug
