"""Rack-level facts decided by the check that owns them, against references written here.

``rack_braiding_ybe`` decides the braid relation of ``c(x, y) = (y, x.p(y))``
as self-distributivity of the induced table, and ``function_dual_check``
decides colinearity of p* in one pass over (x, h).  Each is compared with the
sweep it replaced, on augmented racks whose p is edited so that the
augmentation identity may fail: the literal c12/c23 sweep over every triple,
and the per-a comparison of the two coaction supports.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from rackyd.group_hopf import function_dual_check
from rackyd.racks import (
    AugmentedRack,
    FiniteGroup,
    conjugation_augmented,
    dihedral_quandle,
    inner_augmentation,
    rack_braiding_ybe,
)

S3 = FiniteGroup.symmetric(3)
S3_CONJ = conjugation_augmented(S3)
INSTANCES = [
    S3_CONJ,
    inner_augmentation(dihedral_quandle(5)),
    inner_augmentation(dihedral_quandle(6)),
    conjugation_augmented(FiniteGroup.cyclic(4)),
]


def with_p(aug, p):
    return AugmentedRack(aug.elements, aug.group, aug.action, p)


def ybe_reference(aug):
    """Least (x, y, z) with c12 c23 c12 != c23 c12 c23, or None."""
    def c12(t):
        return (t[1], aug.act(t[0], aug.p[t[1]]), t[2])

    def c23(t):
        return (t[0], t[2], aug.act(t[1], aug.p[t[2]]))

    return next((t for t in product(range(aug.size), repeat=3)
                 if c12(c23(c12(t))) != c23(c12(c23(t)))), None)


def colinearity_reference(aug):
    """The least a whose two coaction supports differ, with the least (x, h)
    in their symmetric difference, or None."""
    g, nx, ng = aug.group, aug.size, aug.group.size
    for a in range(ng):
        lhs = {(x, h) for x in range(nx) for h in range(ng) if aug.p[aug.act(x, h)] == a}
        rhs = {(x, h) for x in range(nx) for h in range(ng) if g.conj(aug.p[x], h) == a}
        if lhs != rhs:
            return (a, sorted(lhs ^ rhs)[0])
    return None


@st.composite
def edited_augmentations(draw):
    """An instance with up to three entries of p moved to other group elements."""
    aug = draw(st.sampled_from(INSTANCES))
    p = list(aug.p)
    for _ in range(draw(st.integers(0, 3))):
        p[draw(st.integers(0, aug.size - 1))] = draw(st.integers(0, aug.group.size - 1))
    return with_p(aug, p)


@settings(max_examples=200, deadline=None)
@given(edited_augmentations())
def test_rack_braiding_ybe_matches_the_triple_sweep(aug):
    ref = ybe_reference(aug)
    rep = rack_braiding_ybe(aug)
    assert rep.ok == (ref is None)
    assert rep.witness == ref


@settings(max_examples=200, deadline=None)
@given(edited_augmentations())
def test_dual_check_matches_the_per_element_sweep(aug):
    ref = colinearity_reference(aug)
    rep = function_dual_check(aug)
    assert rep.ok == rep.p_star_right_colinear == (ref is None)
    assert rep.witnesses == ({} if ref is None else {"p_star_right_colinear": ref})


# S3 is ordered e, (2 3), (1 2), (1 2 3), (1 3 2), (1 3).
def test_ybe_fails_where_self_distributivity_fails():
    # p((2 3)) = e: x <| y = x.p(y) is first not self-distributive at
    # ((2 3), (1 2), (1 2 3))
    aug = with_p(S3_CONJ, [0, 0, 2, 3, 4, 5])
    assert ybe_reference(aug) == (1, 2, 3)
    rep = rack_braiding_ybe(aug)
    assert not rep.ok and rep.witness == (1, 2, 3)


def test_dual_check_witness_is_the_least_element_not_the_first_pair():
    # p((2 3)) = (1 2): the first failing pair is (x, h) = (1, 1), where
    # {p(x.h), h^-1 p(x) h} = {2, 5}; the least element whose supports differ
    # is 1, first reached at (1, 3).
    aug = with_p(S3_CONJ, [0, 2, 2, 3, 4, 5])
    assert colinearity_reference(aug) == (1, (1, 3))
    rep = function_dual_check(aug)
    assert not rep.ok
    assert rep.witnesses == {"p_star_right_colinear": (1, (1, 3))}
