from fractions import Fraction

import pytest

from rackyd.errors import ValidationError
from rackyd.group_hopf import (
    GroupAlgebraDescriptor,
    function_dual_check,
    grading_module,
    ker_eps_yd,
    linearize_augmented,
    rack_q_map,
    trivial_coaction_module,
)
from rackyd.racks import (
    AugmentedRack,
    FiniteGroup,
    conjugation_augmented,
    dihedral_quandle,
    inner_augmentation,
)
from rackyd.linalg import lincomb
from rackyd.yd import check_hopf_axioms, check_yd, hvec_coproduct, hvec_counit, hvec_mul

F = Fraction


def test_hopf_ops_identity():
    kz2 = GroupAlgebraDescriptor(FiniteGroup.cyclic(2))
    e = kz2.unit
    assert kz2.coproduct(e) == [(1, e, e)]
    assert kz2.counit(e) == 1
    assert kz2.antipode(e) == {e: 1}


def test_hopf_ops_involution():
    # S(g) = g^-1, and the generator of Z/2 is its own inverse
    kz2 = GroupAlgebraDescriptor(FiniteGroup.cyclic(2))
    assert kz2.antipode(1) == {1: 1}


def test_counit_is_linear():
    s3 = FiniteGroup.symmetric(3)
    x = {s3.index_of("(1 2)"): F(3), s3.index_of("(1 3)"): F(-3)}
    assert hvec_counit(GroupAlgebraDescriptor(s3), x) == 0


def test_group_algebra_arithmetic():
    s3 = FiniteGroup.symmetric(3)
    ks3 = GroupAlgebraDescriptor(s3)
    assert hvec_mul(ks3, {1: F(1)}, {2: F(1)}) == {s3.mul_idx(1, 2): 1}


def test_hopf_axioms_on_group_algebras():
    for g in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
        assert check_hopf_axioms(GroupAlgebraDescriptor(g)) is None


def test_adjoint_action():
    # on ker eps of S3: (1 2) <- (1 3) = (1 3)^-1 (1 2) (1 3) = (2 3), and e acts trivially
    s3 = FiniteGroup.symmetric(3)
    m = ker_eps_yd(s3)
    i12, i23 = (m.basis.index(f"{t}-1") for t in ("(1 2)", "(2 3)"))
    assert m.act_basis({i12: F(1)}, s3.identity) == {i12: 1}
    assert m.act_basis({i12: F(1)}, s3.index_of("(1 3)")) == {i23: 1}
    # x <- h = S(h_(1)) x h_(2) = counit(h) x when G is abelian
    kz6 = GroupAlgebraDescriptor(FiniteGroup.cyclic(6))
    y, h = {2: F(5)}, {1: F(2), 3: F(1)}
    adjoint = lincomb(hvec_coproduct(kz6, h), lambda ab: hvec_mul(
        kz6, hvec_mul(kz6, kz6.antipode(ab[0]), y), {ab[1]: F(1)}))
    assert adjoint == {2: 5 * hvec_counit(kz6, h)}


def test_ker_eps_z2():
    z2 = FiniteGroup.cyclic(2)
    m = ker_eps_yd(z2)
    assert m.basis == ("1-1",)
    # coaction (s-1) -> (s-1) (x) s, from s (x) s - 1 (x) s
    assert m.coaction[0] == ((0, 1, F(1)),)
    # action (s-1) . s = s^-1 (s-1) s = s-1
    assert m.act_basis({0: F(1)}, 1) == {0: F(1)}
    assert check_yd(m).ok


def test_ker_eps_trivial_group():
    m = ker_eps_yd(FiniteGroup.cyclic(1))
    assert m.dim == 0
    assert check_yd(m).ok


def test_ker_eps_s3():
    m = ker_eps_yd(FiniteGroup.symmetric(3))
    assert m.dim == 5
    assert check_yd(m).ok


def test_linearize_trivial_action():
    z2 = FiniteGroup.cyclic(2)
    aug = AugmentedRack("01", z2, [[0, 0], [1, 1]], [0, 0])
    lin = linearize_augmented(aug)
    assert all(terms == ((x, z2.identity, F(1)),) for x, terms in enumerate(lin.module.coaction))
    assert check_yd(lin.module).ok


def test_linearize_s3_conjugation():
    s3 = FiniteGroup.symmetric(3)
    lin = linearize_augmented(conjugation_augmented(s3))
    assert check_yd(lin.module).ok
    # grading by p, action moves degree h to g^-1 h g
    one = F(1)
    for x in range(6):
        for g in range(6):
            ((x2, c),) = lin.module.act_basis({x: one}, g).items()
            assert c == one
            assert lin.p[x2] == s3.conj(lin.p[x], g)


def test_linearize_dihedral3():
    aug = inner_augmentation(dihedral_quandle(3))
    lin = linearize_augmented(aug)
    assert lin.module.dim == 3
    assert lin.module.hopf.group.size == 6  # inner group is dihedral of order 6
    assert check_yd(lin.module).ok


def test_linearize_requires_augmented():
    s3 = FiniteGroup.symmetric(3)
    bad = AugmentedRack(s3.elements, s3, [[x] * 6 for x in range(6)], list(range(6)))
    with pytest.raises(ValidationError):
        linearize_augmented(bad)


def test_bicomodule_morphism_identity():
    # (p (x) 1) Delta_r x = p(x) (x) p(x)
    s3 = FiniteGroup.symmetric(3)
    lin = linearize_augmented(conjugation_augmented(s3))
    for x in range(lin.module.dim):
        ((x0, h, c),) = lin.module.coaction[x]
        assert c == F(1) and x0 == x
        assert lin.p[x0] == lin.p[x] == h


def test_negative_control_scrambled_grading():
    s3 = FiniteGroup.symmetric(3)
    aug = conjugation_augmented(s3)
    e = s3.identity
    grading = list(range(6))
    a, b = [i for i in range(6) if i != e][:2]
    grading[a], grading[b] = grading[b], grading[a]
    broken = grading_module(aug, grading)
    rep = check_yd(broken)
    assert not rep.ok
    assert rep.witness is not None


def test_trivial_coaction_module_is_yd():
    s3 = FiniteGroup.symmetric(3)
    perms = [[s3.conj(x, g) for x in range(6)] for g in range(6)]
    m = trivial_coaction_module(s3, perms, labels=s3.elements)
    assert check_yd(m).ok


def test_trivial_coaction_module_refuses_too_few_or_ragged_permutations():
    # the action of S3 needs a permutation for each of its 6 elements, and
    # every permutation moves the same basis
    s3 = FiniteGroup.symmetric(3)
    perms = [[s3.conj(x, g) for x in range(6)] for g in range(6)]
    with pytest.raises(ValidationError, match="action row must have one entry per generator"):
        trivial_coaction_module(s3, perms[:3])
    with pytest.raises(ValidationError, match="must all have the same length"):
        trivial_coaction_module(s3, perms[:3] + [perms[3][:4]] + perms[4:])


def test_rack_q_map():
    s3 = FiniteGroup.symmetric(3)
    lin = linearize_augmented(conjugation_augmented(s3))
    q = rack_q_map(lin)
    e = s3.identity
    assert q[e] == {}  # p(e) = e, so q(e) = 0
    for x in range(6):
        if x != e:
            assert q[x] == {x: F(1), e: F(-1)}


def test_function_dual_trivial_action():
    z2 = FiniteGroup.cyclic(2)
    aug = AugmentedRack("01", z2, [[0, 0], [1, 1]], [0, 0])
    assert function_dual_check(aug).ok


def test_function_dual_z2_and_s3():
    z2 = FiniteGroup.cyclic(2)
    aug2 = AugmentedRack("01", z2, [[0, 0], [1, 1]], [0, 1])
    rep2 = function_dual_check(aug2)
    assert rep2.ok and rep2.p_star_right_colinear
    s3 = FiniteGroup.symmetric(3)
    rep3 = function_dual_check(conjugation_augmented(s3))
    assert rep3.ok and rep3.p_star_right_colinear


def test_function_dual_detects_broken_augmentation():
    s3 = FiniteGroup.symmetric(3)
    bad = AugmentedRack(s3.elements, s3, [[x] * 6 for x in range(6)], list(range(6)))
    rep = function_dual_check(bad)
    assert not rep.p_star_right_colinear
    assert "p_star_right_colinear" in rep.witnesses
