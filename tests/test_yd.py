import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rackyd import jsonio, yd
from rackyd.envelope import TruncatedPBW
from rackyd.errors import DegreeOverflowError, ValidationError
from rackyd.group_hopf import (
    GroupAlgebraDescriptor,
    grading_module,
    ker_eps_yd,
    linearize_augmented,
    rack_q_map,
    trivial_coaction_module,
)
from rackyd.leibniz import LeibnizAlgebra, first_order_yd, heisenberg_voros, sl2, unital_shelf
from rackyd.linalg import Matrix, kron, mat_mul
from rackyd.racks import (
    FiniteGroup,
    conjugation_augmented,
    dihedral_quandle,
    inner_augmentation,
)
from rackyd.scalars import QQ, PrimeField
from rackyd.yd import (
    BraidedLeibnizData,
    BraidingMatrix,
    YDModule,
    braided_leibniz_from_q,
    braiding,
    check_braided_leibniz,
    check_q_conditions,
    check_yd,
    check_ybe,
    flip_columns,
    flip_matrix,
    is_involutive,
    ybe_defect,
)
from test_acceptance import _biconditional_corpus
from yd_forms import antipode_form_witness

F = Fraction


def s3_modules():
    s3 = FiniteGroup.symmetric(3)
    aug = conjugation_augmented(s3)
    return s3, aug, linearize_augmented(aug)


def test_trivial_coaction_is_yd_and_flips():
    s3, aug, lin = s3_modules()
    perms = [[s3.conj(x, g) for x in range(6)] for g in range(6)]
    m = trivial_coaction_module(s3, perms, labels=s3.elements)
    rep = check_yd(m)
    assert rep.ok and rep.ok_coproduct_form and rep.ok_antipode_form
    assert braiding(m).matrix == flip_matrix(6)


def test_linearized_rack_is_yd():
    _, _, lin = s3_modules()
    rep = check_yd(lin.module)
    assert rep.ok


def test_scrambled_grading_fails_with_witness():
    s3, aug, _ = s3_modules()
    e = s3.identity
    grading = list(range(6))
    a, b = [i for i in range(6) if i != e][:2]
    grading[a], grading[b] = grading[b], grading[a]
    rep = check_yd(grading_module(aug, grading))
    assert not rep.ok
    assert rep.witness is not None


def test_coproduct_and_antipode_forms_agree():
    s3, aug, lin = s3_modules()
    instances = [lin.module, ker_eps_yd(s3), first_order_yd(heisenberg_voros())]
    grading = list(range(6))
    grading[1], grading[2] = grading[2], grading[1]
    instances.append(grading_module(aug, grading))
    for m in instances:
        rep = check_yd(m)
        ref = antipode_form_witness(m)
        assert rep.ok == rep.ok_coproduct_form == rep.ok_antipode_form == (ref is None)
        assert rep.witness == ref
    assert [check_yd(m).ok for m in instances] == [True, True, True, False]


def perturbed_coaction(module, rng):
    """``module`` with 0-2 coaction terms ``x (x) h`` added, h not the unit (so
    the coaction stays counital) and of any degree, the top one included."""
    hopf, field = module.hopf, module.field
    others = [h for h in range(hopf.size) if h != hopf.unit]
    coaction = [list(terms) for terms in module.coaction]
    for _ in range(rng.randrange(3)):
        c = field.parse(rng.choice(["1", "-1", "2", "1/2"]))
        coaction[rng.randrange(module.dim)].append(
            (rng.randrange(module.dim), rng.choice(others), c))
    return YDModule(hopf, module.basis, module.action, coaction)


def yd_outcome(check, module):
    try:
        return check(module)
    except DegreeOverflowError:
        return "overflow"


def test_check_yd_matches_the_antipode_form_on_perturbed_first_order_modules(fixtures_dir):
    # 40 perturbations of each first-order module, at degrees 2 and 3, over
    # QQ and GF(7): the report's antipode form is the reference's, and a
    # coaction term of top degree makes both raise
    rng, seen = random.Random(0), Counter()
    for path in sorted(fixtures_dir.glob("leibniz_*.json")):
        if path.name == "leibniz_not.json":
            continue
        for field, degree in product((QQ, PrimeField(7)), (2, 3)):
            alg = LeibnizAlgebra.from_json_dict(json.loads(path.read_text()), field)
            base = first_order_yd(alg, degree)
            for _ in range(40):
                module = perturbed_coaction(base, rng)
                rep = yd_outcome(check_yd, module)
                ref = yd_outcome(antipode_form_witness, module)
                if ref == "overflow":
                    assert rep == "overflow"
                else:
                    assert rep.ok == rep.ok_coproduct_form == rep.ok_antipode_form == (ref is None)
                    assert rep.witness == ref
                seen["overflow" if ref == "overflow" else "ok" if ref is None else "fails"] += 1
    assert min(seen[k] for k in ("ok", "fails", "overflow")) >= 100, seen


def test_check_yd_reads_no_antipode_and_no_iterated_coproduct(monkeypatch):
    # both belong to the antipode form, which check_yd no longer computes
    def refused(*args):
        raise AssertionError("check_yd read the antipode form")

    s3, aug, lin = s3_modules()
    broken = grading_module(aug, [1, 0, 2, 3, 4, 5])
    modules = [lin.module, broken, ker_eps_yd(s3), first_order_yd(heisenberg_voros()),
               first_order_yd(sl2(), 3)]
    monkeypatch.setattr(yd, "coproduct2", refused)
    for cls in (GroupAlgebraDescriptor, TruncatedPBW):
        monkeypatch.setattr(cls, "antipode", refused)
    assert [check_yd(m).ok for m in modules] == [True, False, True, True, True]


def test_braiding_of_kereps_z2_is_identity():
    m = ker_eps_yd(FiniteGroup.cyclic(2))
    bm = braiding(m)
    assert bm.matrix.rows == 1
    assert bm.matrix[0, 0] == 1


def test_braiding_of_rack_module_is_induced_rack_permutation():
    _, aug, lin = s3_modules()
    bm = braiding(lin.module)
    n = lin.module.dim
    for a, b in product(range(n), repeat=2):
        col = a + n * b
        hits = [r for r in range(n * n) if bm.matrix[r, col]]
        assert hits == [b + n * aug.act(a, aug.p[b])]


def test_check_ybe_flip_and_defect():
    assert check_ybe(BraidingMatrix(flip_columns(3), "abc")).ok
    _, aug, _ = s3_modules()
    grading = list(range(6))
    grading[1], grading[2] = grading[2], grading[1]
    broken = grading_module(aug, grading)
    bm = braiding(broken)
    assert not check_ybe(bm).ok
    assert any(ybe_defect(bm))


def test_ybe_alone_does_not_imply_yd():
    # a constant non-central grading braids by a twisted flip, which always
    # satisfies the braid relation, while the compatibility condition fails;
    # the module<->braiding equivalence needs naturality, not just one matrix
    s3, aug, _ = s3_modules()
    t = next(i for i in range(6) if i != s3.identity)
    m = grading_module(aug, [t] * 6)
    assert not check_yd(m).ok
    assert check_ybe(braiding(m)).ok


def test_is_involutive():
    assert is_involutive(BraidingMatrix(flip_columns(4), "abcd"))
    assert is_involutive(BraidingMatrix(Matrix.identity(9).columns(), "abc"))
    assert not is_involutive(braiding(first_order_yd(heisenberg_voros())))


def test_hv_braiding_is_invertible():
    from rackyd.linalg import rref

    bm = braiding(first_order_yd(heisenberg_voros()))
    assert len(rref(bm.columns)) == 16  # full rank


def test_q_conditions_zero_map():
    _, _, lin = s3_modules()
    rep = check_q_conditions(lin.module, [{} for _ in range(6)])
    assert rep.equivariance and rep.coderivation_condition


def test_q_conditions_rack_map():
    _, _, lin = s3_modules()
    rep = check_q_conditions(lin.module, rack_q_map(lin))
    assert rep.ok


def test_q_conditions_fail_for_scrambled_grading():
    s3, aug, _ = s3_modules()
    e = s3.identity
    grading = list(range(6))
    a, b = [i for i in range(6) if i != e][:2]
    grading[a], grading[b] = grading[b], grading[a]
    broken = grading_module(aug, grading)
    one = F(1)
    q = [{g: one, e: -one} if g != e else {} for g in grading]
    rep = check_q_conditions(broken, q)
    assert not rep.equivariance
    assert "equivariance" in rep.witnesses


def test_q_must_land_in_ker_counit():
    _, _, lin = s3_modules()
    q = [{lin.module.hopf.unit: F(1)} for _ in range(6)]
    with pytest.raises(ValidationError):
        check_q_conditions(lin.module, q)


def test_braided_leibniz_zero_q():
    _, _, lin = s3_modules()
    data = braided_leibniz_from_q(lin.module, [{} for _ in range(6)])
    assert all(not v for row in data.bracket for v in row)
    assert check_braided_leibniz(data).ok


def test_braided_leibniz_rack_bracket():
    _, aug, lin = s3_modules()
    data = braided_leibniz_from_q(lin.module, rack_q_map(lin))
    one = F(1)
    # x <| y = x.p(y) - x
    for x in range(6):
        for y in range(6):
            expect = {}
            tgt = aug.act(x, aug.p[y])
            expect[tgt] = expect.get(tgt, F(0)) + one
            expect[x] = expect.get(x, F(0)) - one
            expect = {k: v for k, v in expect.items() if v}
            assert data.bracket[x][y] == expect
    assert check_braided_leibniz(data).ok


def test_braided_leibniz_kereps_inclusion():
    s3 = FiniteGroup.symmetric(3)
    m = ker_eps_yd(s3)
    one = F(1)
    e = s3.identity
    others = [g for g in range(6) if g != e]
    # q = inclusion of ker(counit) into kG: (g - 1) -> g - 1
    q = [{g: one, e: -one} for g in others]
    data = braided_leibniz_from_q(m, q)
    assert check_braided_leibniz(data).ok


def test_braided_leibniz_requires_yd():
    s3, aug, _ = s3_modules()
    grading = list(range(6))
    grading[1], grading[2] = grading[2], grading[1]
    broken = grading_module(aug, grading)
    with pytest.raises(ValidationError):
        braided_leibniz_from_q(broken, [{} for _ in range(6)])


def test_flip_plus_classical_bracket_reduces_to_leibniz_check():
    # with tau the flip, the braided identity is the classical one, so the
    # check agrees with check_leibniz on both a Lie algebra and a non-example
    from rackyd.leibniz import check_leibniz, non_leibniz1

    for alg, expect in ((sl2(), True), (non_leibniz1(), False)):
        tau = BraidingMatrix(flip_columns(alg.dim), alg.basis)
        data = BraidedLeibnizData(alg.basis, alg.brackets, tau)
        assert check_braided_leibniz(data).ok is expect
        assert check_leibniz(alg).ok is expect


def test_unital_shelf_with_module_braiding_is_not_braided_leibniz():
    # the operation (a+u) <| (a'+v) = aa' + a'u + [u,v] together with the
    # module braiding fails the braided Leibniz identity as soon as the unit
    # enters: (x <| 1) <| 1 = x but the right side doubles to 2x.  The
    # braided Leibniz structure of the theory lives on the invariants of the
    # enveloping tetramodule (see rackyd.envelope), not on k (+) g.
    hv = heisenberg_voros()
    shelf = unital_shelf(hv)
    tau = braiding(first_order_yd(hv))
    data = BraidedLeibnizData(shelf.basis, shelf.table, tau)
    rep = check_braided_leibniz(data)
    assert not rep.ok
    assert rep.witness == (0, 0, 0)
    # on arguments from g itself the identity does hold for this algebra,
    # because its squares ideal is central; spot-check the triple (x, y, x)
    one = F(1)
    lhs = data.bra(data.bra({1: one}, 2), 1)
    rhs = dict(data.bra_vec({1: one}, data.bracket[2][1]))
    n = data.dim
    col = 2 + n * 1
    for r in range(n * n):
        c = tau.matrix[r, col]
        if c:
            u, v = r % n, r // n
            for k, cc in data.bra(data.bra({1: one}, u), v).items():
                rhs[k] = rhs.get(k, F(0)) + c * cc
    rhs = {k: v for k, v in rhs.items() if v}
    assert lhs == rhs == {}
    g_triples = [
        (i, j, k)
        for i, j, k in product(range(1, 4), repeat=3)
    ]
    for i, j, k in g_triples:
        lhs = data.bra(data.bra({i: one}, j), k)
        rhs = dict(data.bra_vec({i: one}, data.bracket[j][k]))
        col = j + n * k
        for r in range(n * n):
            c = tau.matrix[r, col]
            if c:
                u, v = r % n, r // n
                for kk, cc in data.bra(data.bra({i: one}, u), v).items():
                    rhs[kk] = rhs.get(kk, F(0)) + c * cc
        rhs = {k2: v for k2, v in rhs.items() if v}
        assert lhs == rhs


def test_corollary_soundness_across_constructible_pairs():
    # whenever check_yd and check_q_conditions pass, the bracket passes
    pairs = []
    _, aug, lin = s3_modules()
    pairs.append((lin.module, rack_q_map(lin)))
    for n in range(3, 6):
        lin_n = linearize_augmented(inner_augmentation(dihedral_quandle(n)))
        pairs.append((lin_n.module, rack_q_map(lin_n)))
    for g in (FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
        m = ker_eps_yd(g)
        e = g.identity
        one = F(1)
        q = [{h: one, e: -one} for h in range(g.size) if h != e]
        pairs.append((m, q))
    for module, q in pairs:
        assert check_yd(module).ok
        assert check_q_conditions(module, q).ok
        assert check_braided_leibniz(braided_leibniz_from_q(module, q)).ok


def dense_ybe_defect(m, n):
    """(T x 1)(1 x T)(T x 1) - (1 x T)(T x 1)(1 x T) by dense Kronecker products."""
    eye = Matrix.identity(n)
    t12, t23 = kron(m, eye), kron(eye, m)
    return mat_mul(mat_mul(t12, t23), t12) - mat_mul(mat_mul(t23, t12), t23)


def assert_matches_dense_reference(bm):
    n = bm.factor_dim
    defect = dense_ybe_defect(bm.matrix, n)
    failing = [
        (i, j, k) for i, j, k in product(range(n), repeat=3)
        if any(defect[r, i + n * j + n * n * k] for r in range(n ** 3))
    ]
    rep = check_ybe(bm)
    assert rep.ok == defect.is_zero()
    assert rep.witness == (failing[0] if failing else None)
    assert ybe_defect(bm) == defect.columns()
    assert is_involutive(bm) == mat_mul(bm.matrix, bm.matrix).is_identity()


def test_sparse_ybe_matches_dense_on_the_biconditional_corpus():
    for _, module in _biconditional_corpus():
        assert_matches_dense_reference(braiding(module))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_sparse_ybe_matches_dense_on_random_gradings(data):
    groups = {n: inner_augmentation(dihedral_quandle(n)) for n in (3, 4, 5)}
    aug = groups[data.draw(st.sampled_from(sorted(groups)))]
    grading = data.draw(st.lists(
        st.integers(min_value=0, max_value=aug.group.size - 1),
        min_size=aug.size, max_size=aug.size,
    ))
    assert_matches_dense_reference(braiding(grading_module(aug, grading)))


def test_check_ybe_needs_no_field():
    gf7 = PrimeField(7)
    bm = braiding(first_order_yd(heisenberg_voros(gf7)))
    assert check_ybe(bm).ok
    assert not is_involutive(bm)


def test_ybe_witness_is_least_failing_triple(fixtures_dir):
    payload = json.loads((fixtures_dir / "yd_s3_broken.json").read_text())
    bm = braiding(jsonio.yd_from_dict(payload))
    assert_matches_dense_reference(bm)
    assert check_ybe(bm).witness == (1, 1, 1)


def test_ybe_beyond_the_dense_sizes():
    # N = n^3 is 2197 for D13 and 12167 for ker eps(S4); the dense check
    # would hold N^2 entries per matrix product
    d13 = linearize_augmented(inner_augmentation(dihedral_quandle(13))).module
    for module in (d13, ker_eps_yd(FiniteGroup.symmetric(4))):
        assert check_yd(module).ok
        assert check_ybe(braiding(module)).ok
