from collections import Counter
from fractions import Fraction

import pytest

from rackyd import leibniz
from rackyd.errors import ValidationError
from rackyd.leibniz import (
    LeibnizAlgebra,
    abelian_lie,
    central_square2,
    check_leibniz,
    first_order_yd,
    heisenberg_voros,
    lie_quotient,
    non_leibniz1,
    nonabelian_lie2,
    sl2,
    squares_ideal,
    unital_shelf,
)
from rackyd.linalg import lincomb
from rackyd.scalars import QQ, PrimeField
from rackyd.yd import braiding, check_yd, flip_matrix

F = Fraction


def hand_built_fixtures(field):
    """The fixture algebras with their tables filled by hand, the reference
    for the constructors, which read one mapping of structure constants."""
    one = field.one
    two = one + one
    hv = [[{} for _ in range(3)] for _ in range(3)]
    hv[0][0] = {2: one}
    hv[1][1] = {2: one}
    hv[0][1] = {2: one}
    hv[1][0] = {2: -one}
    s = [[{} for _ in range(3)] for _ in range(3)]
    s[0][1] = {2: one}
    s[1][0] = {2: -one}
    s[2][0] = {0: two}
    s[0][2] = {0: -two}
    s[2][1] = {1: -two}
    s[1][2] = {1: two}
    return {
        "heisenberg_voros": LeibnizAlgebra(("x", "y", "z"), hv, field),
        "abelian_lie": LeibnizAlgebra(tuple(f"e{i}" for i in range(3)),
                                      [[{} for _ in range(3)] for _ in range(3)], field),
        "nonabelian_lie2": LeibnizAlgebra(("e1", "e2"), [[{}, {0: one}], [{0: -one}, {}]], field),
        "sl2": LeibnizAlgebra(("e", "f", "h"), s, field),
        "central_square2": LeibnizAlgebra(("x", "y"), [[{1: one}, {}], [{}, {}]], field),
        "non_leibniz1": LeibnizAlgebra(("x",), [[{0: one}]], field),
    }


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_fixture_constructors_build_the_hand_built_tables(field):
    built = {"heisenberg_voros": heisenberg_voros(field), "abelian_lie": abelian_lie(3, field),
             "nonabelian_lie2": nonabelian_lie2(field), "sl2": sl2(field),
             "central_square2": central_square2(field), "non_leibniz1": non_leibniz1(field)}
    for name, want in hand_built_fixtures(field).items():
        got = built[name]
        assert got == want, name
        assert got.field is field
        assert got.brackets == want.brackets
        assert got.to_json_dict() == want.to_json_dict(), name
        assert [[{k: type(c) for k, c in v.items()} for v in row] for row in got.brackets] == \
            [[{k: type(c) for k, c in v.items()} for v in row] for row in want.brackets]


def test_lie_algebras_are_leibniz():
    assert check_leibniz(nonabelian_lie2()).ok
    assert check_leibniz(sl2()).ok
    assert check_leibniz(abelian_lie(3)).ok


def test_heisenberg_voros_brackets():
    hv = heisenberg_voros()
    assert check_leibniz(hv).ok
    x, y, z = 0, 1, 2
    assert hv.bracket(x, y) == {z: F(1)}
    assert hv.bracket(y, x) == {z: F(-1)}
    assert hv.bracket(x, x) == {z: F(1)}
    assert hv.bracket(y, y) == {z: F(1)}
    for i in range(3):
        assert hv.bracket(z, i) == {}
        assert hv.bracket(i, z) == {}


def test_square_table_fails_identity():
    # [x,x] = x gives [[x,x],x] = x but [x,[x,x]] + [[x,x],x] = 2x
    rep = check_leibniz(non_leibniz1())
    assert not rep.ok
    assert rep.witness == (0, 0, 0)


def test_squares_ideal_of_lie_algebra_is_zero():
    assert squares_ideal(sl2()) == ()
    assert squares_ideal(nonabelian_lie2()) == ()


def test_squares_ideal_heisenberg_voros():
    rows = squares_ideal(heisenberg_voros())
    assert rows == ((F(0), F(0), F(1)),)


def test_squares_ideal_central_square():
    rows = squares_ideal(central_square2())
    assert rows == ((F(0), F(1)),)


def test_squares_ideal_requires_leibniz():
    with pytest.raises(ValidationError):
        squares_ideal(non_leibniz1())


def test_lie_quotient_of_lie_input_is_identity():
    lq = lie_quotient(sl2())
    assert lq.dim == 3
    assert lq.quotient.brackets == sl2().brackets
    assert lq.pi == ({0: 1}, {1: 1}, {2: 1})
    assert lq.section == ({0: 1}, {1: 1}, {2: 1})


def test_lie_quotient_heisenberg_voros():
    lq = lie_quotient(heisenberg_voros())
    # quotient by span{z} is the abelian 2-dimensional Lie algebra
    assert lq.dim == 2
    assert all(not v for row in lq.quotient.brackets for v in row)
    assert [lincomb(s, lq.pi.__getitem__) for s in lq.section] == [{0: 1}, {1: 1}]
    # lifted action of xbar: v -> [v, x]
    assert lq.action[0][0] == {2: 1}  # [x, x] = z
    assert lq.action[0][1] == {2: -1}  # [y, x] = -z


def test_lie_quotient_one_dim():
    lq = lie_quotient(abelian_lie(1))
    assert lq.dim == 1
    assert not lq.quotient.brackets[0][0]


def test_lie_quotient_idempotent():
    for alg in (heisenberg_voros(), central_square2(), sl2()):
        lq = lie_quotient(alg)
        assert squares_ideal(lq.quotient) == ()


def test_unital_shelf_coefficients():
    hv = heisenberg_voros()
    shelf = unital_shelf(hv)
    one = F(1)
    u, x, y, z = 0, 1, 2, 3
    # 1 <| x = 0 and x <| 1 = x
    assert shelf.table[u][x] == {}
    assert shelf.table[x][u] == {x: one}
    assert shelf.table[u][u] == {u: one}
    # bracket part
    assert shelf.table[x][y] == {z: one}
    assert shelf.table[y][x] == {z: -one}
    # generic coefficient check: (a+bx+cy+dz) <| (a'+b'x+c'y+d'z)
    a, b, c, d = F(2), F(3), F(5), F(7)
    a2, b2, c2, d2 = F(11), F(13), F(17), F(19)
    left = {u: a, x: b, y: c, z: d}
    right = {u: a2, x: b2, y: c2, z: d2}
    got = shelf.apply(left, right)
    expect = {
        u: a * a2,
        x: a2 * b,
        y: a2 * c,
        z: a2 * d + b * b2 + b * c2 - c * b2 + c * c2,
    }
    assert got == expect


def test_first_order_module_structure():
    hv = heisenberg_voros()
    m = first_order_yd(hv)
    one = F(1)
    # basis 0 = adjoined unit, 1..3 = x, y, z; generators are xbar, ybar
    gens = m.hopf.generators
    assert len(gens) == 2
    # coaction of z has no degree-1 part since pi(z) = 0
    assert m.coaction[3] == ((3, m.hopf.unit, one),)
    # coaction of x: x (x) 1 + 1 (x) xbar
    assert m.coaction[1] == ((0, gens[0], one), (1, m.hopf.unit, one))
    # action: x . xbar = [x, x] = z
    assert m.act_basis({1: one}, gens[0]) == {3: one}
    # scalar line acts to zero under brackets
    assert m.act_basis({0: one}, gens[0]) == {}
    assert check_yd(m).ok


def test_first_order_yd_proves_the_leibniz_identity_once(monkeypatch):
    calls = Counter()

    def counted(alg, _real=leibniz.check_leibniz):
        calls["check_leibniz"] += 1
        return _real(alg)

    monkeypatch.setattr(leibniz, "check_leibniz", counted)
    first_order_yd(heisenberg_voros())
    assert calls == {"check_leibniz": 1}


def test_first_order_restricted_to_g_is_original_bracket():
    for alg in (heisenberg_voros(), sl2(), central_square2()):
        m = first_order_yd(alg)
        lq = lie_quotient(alg)
        one = F(1)
        for j in range(alg.dim):
            qj = {m.hopf.gen_index[k]: c for k, c in lq.pi[j].items()}
            for i in range(alg.dim):
                got = m.act_hvec({i + 1: one}, qj)
                expect = {k + 1: v for k, v in alg.brackets[i][j].items()}
                assert got == expect


def test_first_order_abelian_braiding_is_flip():
    m = first_order_yd(abelian_lie(2))
    assert braiding(m).matrix == flip_matrix(3)


def test_first_order_needs_degree_two():
    with pytest.raises(ValidationError):
        first_order_yd(heisenberg_voros(), degree=1)


def test_json_roundtrip():
    hv = heisenberg_voros()
    d = hv.to_json_dict()
    assert LeibnizAlgebra.from_json_dict(d) == hv
    assert d["brackets"][0]["out"] == {"2": "1"}


def test_bad_json_rejected():
    with pytest.raises(ValidationError):
        LeibnizAlgebra.from_json_dict({"dim": 2, "basis": ["x"], "brackets": []})
    with pytest.raises(ValidationError):
        LeibnizAlgebra.from_json_dict(
            {"dim": 1, "basis": ["x"], "brackets": [{"i": 0, "j": 5, "out": {}}]}
        )
