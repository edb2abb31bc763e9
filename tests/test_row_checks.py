"""Row-at-a-time group and action checks against their entrywise references.

``FiniteGroup.__init__``, ``FiniteGroup.action_witness``,
``check_augmented`` and ``function_dual_check`` compare whole rows through
:mod:`rackyd.grouptable` and read a row entry by entry only when it differs.  The references below are
the entrywise loops they replaced; on seeded perturbations of the S4 and D7
tables both must raise the same message or return the same witness.
"""

import random

import pytest

from rackyd.errors import ValidationError
from rackyd.group_hopf import function_dual_check
from rackyd.linalg import lincomb
from rackyd.racks import (
    AugmentedRack,
    FiniteGroup,
    check_augmented,
    conjugation_augmented,
    dihedral_quandle,
    inner_augmentation,
)
from rackyd.selfdist import greedy_generators

TRIALS = 40


def group_axioms_reference(elements, mul):
    """``(identity, inverses)`` of the table, or the ValidationError that
    FiniteGroup raises, checked entry by entry."""
    n = len(mul)
    ident = None
    for e in range(n):
        if all(mul[e][x] == x == mul[x][e] for x in range(n)):
            ident = e
            break
    if ident is None:
        raise ValidationError("no identity element")
    inv = [None] * n
    for x in range(n):
        for y in range(n):
            if mul[x][y] == ident and mul[y][x] == ident:
                inv[x] = y
                break
        if inv[x] is None:
            raise ValidationError(f"element {elements[x]} has no inverse")
    for a in range(n):
        for s in greedy_generators(mul, (ident,)):
            a_s = mul[a][s]
            for c in range(n):
                if mul[a_s][c] != mul[a][mul[s][c]]:
                    raise ValidationError(
                        f"mul table not associative at ({elements[a]}, {elements[s]}, {elements[c]})")
    return ident, tuple(inv)


def action_witness_reference(group, points, act):
    """The least failure of ``act`` as a right action, entry by entry."""
    e = group.identity
    for i, x in enumerate(points):
        if act(x, e) != x:
            return (i, e)
    for i, x in enumerate(points):
        for a in range(group.size):
            xa = act(x, a)
            for s in group.generators:
                if act(xa, s) != act(x, group.mul[a][s]):
                    return (i, a, s)
    return None


def check_augmented_reference(aug):
    g = aug.group
    for x in range(aug.size):
        for h in range(g.size):
            if aug.p[aug.act(x, h)] != g.conj(aug.p[x], h):
                return (False, (x, h))
    return (True, None)


def function_dual_witness_reference(aug):
    """The least ``(min(u, v), (x, h))`` over the pairs with ``u = p(x.h) != v = h^-1 p(x) h``."""
    g = aug.group
    failures = ((min(u, v), (x, h))
                for x in range(aug.size) for h in range(g.size)
                for u, v in [(aug.p[aug.act(x, h)], g.conj(aug.p[x], h))] if u != v)
    return min(failures, default=None)


def _first_failing_generator(group, points, act):
    """The failure found by stopping at the first generator whose row fails,
    which is not the least (i, a, s) when a later generator fails at a
    smaller a."""
    for i, x in enumerate(points):
        for s in group.generators:
            for a in range(group.size):
                if act(act(x, a), s) != act(x, group.mul[a][s]):
                    return (i, a, s)
    return None


def _outcome(call, *args):
    try:
        return call(*args)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _d7():
    rotation, reflection = [(x + 1) % 7 for x in range(7)], [(-x) % 7 for x in range(7)]
    return FiniteGroup.from_permutations([rotation, reflection], 7)[0]


GROUPS = {"S4": FiniteGroup.symmetric(4), "D7": _d7()}
# a conjugation action of S4 on itself, and D7 on the seven points of its quandle
AUGMENTED = {"S4": conjugation_augmented(GROUPS["S4"]),
             "D7": inner_augmentation(dihedral_quandle(7))}


def _swap_in_row(rng, table, avoid):
    """Swap two entries of one row, leaving the entries equal to ``avoid``."""
    table = [list(row) for row in table]
    row = rng.choice(table)
    i, j = rng.sample([k for k, v in enumerate(row) if v != avoid], 2)
    row[i], row[j] = row[j], row[i]
    return table


def _group_perturbations(group, rng):
    n, e = group.size, group.identity
    mul = group.mul
    yield "swapped entries", _swap_in_row(rng, mul, e)
    table = [list(row) for row in mul]
    a, b = rng.sample(range(n), 2), rng.sample(range(n), 2)
    table[a[0]][b[0]], table[a[1]][b[1]] = table[a[1]][b[1]], table[a[0]][b[0]]
    yield "swapped anywhere", table
    table = [list(row) for row in mul]
    x = rng.randrange(n)
    table[rng.choice([e, x])][rng.choice([e, x])] = rng.randrange(n)
    yield "broken identity", table
    table = [list(row) for row in mul]
    x = rng.choice([x for x in range(n) if x != e])
    y = table[x].index(e)
    table[x][y] = rng.choice([v for v in range(n) if v != e])
    yield "a row that misses the identity", table
    # the identity first at a y with y x != e: a one-sided inverse before the real one
    table = [list(row) for row in mul]
    x = rng.choice([x for x in range(n) if x != e])
    y = rng.choice([y for y in range(table[x].index(e)) if y != e] or [None])
    if y is not None:
        table[x][y] = e
        yield "a one-sided inverse first", table


def _group(elements, table):
    group = FiniteGroup(elements, table)
    return group.identity, group.inv


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_axioms_fail_as_the_entrywise_reference_fails(name):
    group, rng = GROUPS[name], random.Random(f"group {name}")
    failed = set()
    for _ in range(TRIALS):
        for kind, table in _group_perturbations(group, rng):
            want = _outcome(group_axioms_reference, group.elements, table)
            assert _outcome(_group, group.elements, table) == want, kind
            if isinstance(want, str):
                failed.add(want.split()[1])
    assert failed == {"no", "element", "mul"}  # identity, inverse and associativity


def _action_perturbations(aug, rng):
    table, group = [list(row) for row in aug.action], aug.group
    e, n, size = group.identity, aug.size, group.size
    yield "swapped entries", _swap_in_row(rng, table, None)
    changed = [list(row) for row in table]
    x, g = rng.randrange(n), rng.choice([g for g in range(size) if g != e])
    changed[x][g] = rng.choice([y for y in range(n) if y != changed[x][g]])
    yield "one entry changed", changed
    twice = [list(row) for row in changed]
    x, g = rng.randrange(n), rng.choice([g for g in range(size) if g != e])
    twice[x][g] = rng.randrange(n)
    yield "two entries changed", twice
    broken = [list(row) for row in table]
    x = rng.randrange(n)
    broken[x][e] = (x + 1) % n
    yield "broken identity", broken


@pytest.mark.parametrize("name", sorted(AUGMENTED))
def test_action_witness_is_the_entrywise_reference_witness(name):
    aug, rng = AUGMENTED[name], random.Random(f"action {name}")
    group, points = aug.group, range(aug.size)
    traps = 0
    for _ in range(TRIALS):
        for kind, table in _action_perturbations(aug, rng):
            act = lambda x, g: table[x][g]  # noqa: E731
            want = action_witness_reference(group, points, act)
            assert group.action_witness(points, act) == want, kind
            if want is not None and len(want) == 3:
                traps += _first_failing_generator(group, points, act) != want
            # the same action on basis vectors, with one image scaled by 2
            scale = {(rng.randrange(aug.size), rng.randrange(group.size)): 2}
            vectors = [{x: 1} for x in points]
            act_vec = lambda vec, g: lincomb(  # noqa: E731
                vec, lambda m: {table[m][g]: scale.get((m, g), 1)})
            assert (group.action_witness(vectors, act_vec)
                    == action_witness_reference(group, vectors, act_vec)), kind
    # tables where a later generator fails at a smaller a than the first failing one
    assert traps > 0


@pytest.mark.parametrize("name", sorted(AUGMENTED))
def test_check_augmented_is_the_entrywise_reference(name):
    aug, rng = AUGMENTED[name], random.Random(f"augmented {name}")
    group, n = aug.group, aug.size
    failing = 0
    for _ in range(TRIALS):
        p = list(aug.p)
        p[rng.randrange(n)] = rng.randrange(group.size)
        cases = [AugmentedRack(aug.elements, group, aug.action, p)]
        for _, table in _action_perturbations(aug, rng):
            cases.append(AugmentedRack(aug.elements, group,
                                       tuple(map(tuple, table)), aug.p, proved=True))
        for case in cases:
            want = check_augmented_reference(case)
            assert tuple(check_augmented(case)) == want
            failing += not want[0]
    assert failing > TRIALS


@pytest.mark.parametrize("name", sorted(AUGMENTED))
def test_function_dual_check_is_the_entrywise_reference(name):
    aug, rng = AUGMENTED[name], random.Random(f"dual {name}")
    group, n = aug.group, aug.size
    failing = 0
    for _ in range(TRIALS):
        p = list(aug.p)
        p[rng.randrange(n)] = rng.randrange(group.size)
        cases = [AugmentedRack(aug.elements, group, aug.action, p)]
        for _, table in _action_perturbations(aug, rng):
            cases.append(AugmentedRack(aug.elements, group,
                                       tuple(map(tuple, table)), aug.p, proved=True))
        for case in cases:
            want = function_dual_witness_reference(case)
            rep = function_dual_check(case)
            assert rep.ok == (want is None)
            assert rep.witnesses == ({} if want is None else {"p_star_right_colinear": want})
            failing += want is not None
    assert failing > TRIALS


def test_check_augmented_over_the_trivial_group():
    # each row has one entry, where itemgetter returns an item, not a tuple
    trivial = FiniteGroup.cyclic(1)
    for p in ([0, 0], [0]):
        aug = AugmentedRack("ab"[:len(p)], trivial, [[x] for x in range(len(p))], p)
        assert tuple(check_augmented(aug)) == check_augmented_reference(aug) == (True, None)
