"""Acceptance suite: one test per criterion, exact tolerances throughout.

A one-line PASS/FAIL summary per criterion is printed by the terminal-summary
hook in conftest.py.
"""

import time
from fractions import Fraction
from itertools import product

import sympy

from rackyd.cli import run
from rackyd.envelope import build_env, f_tilde_checks, inv_part, phi_map
from rackyd.group_hopf import (
    grading_module,
    ker_eps_yd,
    linearize_augmented,
    rack_q_map,
    trivial_coaction_module,
)
from rackyd.leibniz import (
    abelian_lie,
    central_square2,
    first_order_yd,
    heisenberg_voros,
    lie_map_object,
    nonabelian_lie2,
    sl2,
    unital_shelf,
)
from rackyd.linalg import mat_mul
from rackyd.racks import (
    FiniteGroup,
    conjugation_augmented,
    dihedral_quandle,
    inner_augmentation,
)
from rackyd.yd import (
    braided_leibniz_from_q,
    braiding,
    check_braided_leibniz,
    check_q_conditions,
    check_yd,
    check_ybe,
)

F = Fraction

# the expected 16x16 braiding matrix of the Heisenberg-Voros module, in
# second-factor-major order over the basis (1, x, y, z)
EXPECTED_GRID = """
1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0
0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0
0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0
0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0
0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0
0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0
0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0
0 0 0 1 0 1 -1 0 0 1 1 0 0 0 0 0
0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0
0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1
"""

EXPECTED_ROWS = [[int(v) for v in line.split()] for line in EXPECTED_GRID.strip().splitlines()]


def test_c01_braiding_matrix_reproduction(capsys):
    t0 = time.perf_counter()
    code = run(["hv-rmatrix", "--paper-layout"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    rows = [[int(v) for v in line.split()] for line in out.strip().splitlines()]
    assert rows == EXPECTED_ROWS
    # anchors stated explicitly (1-based rows/columns of the display)
    row13 = rows[12]
    assert [row13[3], row13[5], row13[6], row13[9], row13[10]] == [1, 1, -1, 1, 1]
    assert all(v == 0 for i, v in enumerate(row13) if i not in (3, 5, 6, 9, 10))
    for one_based_row, one_based_col in ((2, 5), (4, 13), (5, 2), (8, 14)):
        expect = [0] * 16
        expect[one_based_col - 1] = 1
        assert rows[one_based_row - 1] == expect
    assert elapsed < 1.0


def test_c02_not_involutive():
    bm = braiding(first_order_yd(heisenberg_voros()))
    square = mat_mul(bm.matrix, bm.matrix)
    assert not square.is_identity()


def test_c03_ybe_exact():
    bm = braiding(first_order_yd(heisenberg_voros()))
    t0 = time.perf_counter()
    rep = check_ybe(bm)
    elapsed = time.perf_counter() - t0
    assert rep.ok
    assert elapsed < 5.0


def test_c04_shelf_formula_symbolic():
    shelf = unital_shelf(heisenberg_voros())
    a, b, c, d, a2, b2, c2, d2 = sympy.symbols("a b c d ap bp cp dp")
    left = [a, b, c, d]
    right = [a2, b2, c2, d2]
    got = [sympy.Integer(0)] * 4
    for i in range(4):
        for j in range(4):
            for k, coeff in shelf.table[i][j].items():
                got[k] += sympy.Rational(coeff) * left[i] * right[j]
    expect = [
        a * a2,
        a2 * b,
        a2 * c,
        a2 * d + b * b2 + b * c2 - c * b2 + c * c2,
    ]
    for lhs, rhs in zip(got, expect):
        assert sympy.expand(lhs - rhs) == 0


def test_c05_classical_recovery():
    from rackyd.envelope import enveloping_bracket
    from rackyd.yd import flip_matrix

    for make in (heisenberg_voros, lambda: abelian_lie(2), nonabelian_lie2, sl2):
        alg = make()
        data = enveloping_bracket(build_env(lie_map_object(alg), 2))
        for i, j in product(range(alg.dim), repeat=2):
            assert data.bracket[i][j] == alg.brackets[i][j]
        assert data.tau.matrix == flip_matrix(alg.dim)


def test_c06_rack_bracket_suite():
    t0 = time.perf_counter()
    cases = [linearize_augmented(conjugation_augmented(FiniteGroup.symmetric(3)))]
    for n in range(3, 8):
        cases.append(linearize_augmented(inner_augmentation(dihedral_quandle(n))))
    for lin in cases:
        assert check_yd(lin.module).ok
        q = rack_q_map(lin)
        assert check_q_conditions(lin.module, q).ok
        data = braided_leibniz_from_q(lin.module, q)
        assert check_braided_leibniz(data).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0


def _biconditional_corpus():
    s3 = FiniteGroup.symmetric(3)
    s3_conj = conjugation_augmented(s3)
    corpus = [("s3 conjugation", linearize_augmented(s3_conj).module)]
    for n in range(3, 8):
        corpus.append(
            (f"dihedral {n}", linearize_augmented(inner_augmentation(dihedral_quandle(n))).module)
        )
    corpus.append(("ker eps Z/2", ker_eps_yd(FiniteGroup.cyclic(2))))
    corpus.append(("ker eps Z/3", ker_eps_yd(FiniteGroup.cyclic(3))))
    corpus.append(("ker eps S3", ker_eps_yd(s3)))
    corpus.append(("first order hv", first_order_yd(heisenberg_voros())))
    corpus.append(("first order sl2", first_order_yd(sl2())))
    corpus.append(("first order central square", first_order_yd(central_square2())))
    perms = [[s3.conj(x, g) for x in range(6)] for g in range(6)]
    corpus.append(("trivial coaction S3", trivial_coaction_module(s3, perms)))
    e = s3.identity
    swapped = list(range(6))
    a, b = [i for i in range(6) if i != e][:2]
    swapped[a], swapped[b] = swapped[b], swapped[a]
    corpus.append(("broken s3 swap", grading_module(s3_conj, swapped)))
    aug3 = inner_augmentation(dihedral_quandle(3))
    g2 = list(aug3.p)
    g2[0], g2[1] = g2[1], g2[0]
    corpus.append(("broken dihedral3 swap", grading_module(aug3, g2)))
    return corpus


def test_c07_biconditional_corpus():
    corpus = _biconditional_corpus()
    assert len(corpus) >= 10
    broken = 0
    for name, module in corpus:
        yd_ok = check_yd(module).ok
        ybe_ok = check_ybe(braiding(module)).ok
        assert yd_ok == ybe_ok, name
        if not yd_ok:
            broken += 1
    assert broken >= 2


def test_c08_restriction_lemma_suite():
    makes = (heisenberg_voros, lambda: abelian_lie(2), nonabelian_lie2, sl2, central_square2)
    for make in makes:
        env = build_env(lie_map_object(make()), 2)
        rep = f_tilde_checks(env)
        assert rep.im_in_ker_eps and rep.colinear and rep.yd_morphism
        inv = inv_part(env)
        for vec in inv.vectors:
            fv = phi_map(env, vec)
            eps = env.field.zero
            for k, c in fv.items():
                eps = eps + c * env.pbw.counit(k)
            assert not eps


def test_c09_ker_counit_modules():
    t0 = time.perf_counter()
    groups = (
        FiniteGroup.cyclic(2),
        FiniteGroup.cyclic(3),
        FiniteGroup.symmetric(3),
        FiniteGroup.symmetric(4),
    )
    for g in groups:
        module = ker_eps_yd(g)
        assert module.dim == g.size - 1
        assert check_yd(module).ok
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0


def test_c10_function_dual():
    from rackyd.group_hopf import function_dual_check
    from rackyd.racks import AugmentedRack

    z2 = FiniteGroup.cyclic(2)
    aug2 = AugmentedRack(["0", "1"], z2, [[0, 0], [1, 1]], [0, 1])
    rep2 = function_dual_check(aug2)
    assert rep2.ok and rep2.p_star_right_colinear
    rep3 = function_dual_check(conjugation_augmented(FiniteGroup.symmetric(3)))
    assert rep3.ok and rep3.p_star_right_colinear
