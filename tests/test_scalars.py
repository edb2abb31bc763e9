"""QQ's integral rationals are ints: parsing, division and elimination.

``QQ`` gives an ``int`` for an integral rational and a ``Fraction`` otherwise;
these tests pin what that representation must never change: what a literal
means, and that division stays exact.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rackyd.errors import ValidationError
from rackyd.leibniz import LeibnizAlgebra, lie_quotient
from rackyd.linalg import nullspace, rref
from rackyd.scalars import QQ, PrimeField, quotient

LITERAL_CHARS = "0123456789-+/._eE \t\n٣²x"
LITERALS = st.one_of(
    st.text(alphabet=LITERAL_CHARS, max_size=8),
    st.text(max_size=6),
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=50),
    st.floats(allow_nan=True, allow_infinity=True),
)


EDGE_LITERALS = ["3", "-0", "+3", " 7 ", "6/3", "3.0", "1e3", "1/0", "", "-", "٣", "²",
                 "1_000", "3/-1", True, 2.5, "0" * 5000]


def _parses_like_fraction(text):
    try:
        expected = Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValidationError):
            QQ.parse(text)
        return
    value = QQ.parse(text)
    assert value == expected
    assert type(value) is (int if expected.denominator == 1 else Fraction)


@given(LITERALS)
def test_parse_reads_what_fraction_reads_and_is_an_int_exactly_when_integral(text):
    _parses_like_fraction(text)


@pytest.mark.parametrize("text", EDGE_LITERALS, ids=repr)
def test_parse_on_edge_literals(text):
    _parses_like_fraction(text)


def test_prime_field_parses_through_qq():
    gf7 = PrimeField(7)
    assert gf7.parse("3") == gf7.parse("10") == gf7.parse("6/2")
    assert gf7.parse("1/3") * gf7.parse("3") == gf7.one
    with pytest.raises(ValidationError):
        gf7.parse("1/7")


@pytest.mark.parametrize("x,y,expected", [
    (6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, 5, 0), (3, 2, Fraction(3, 2)),
    (-3, 6, Fraction(-1, 2)), (Fraction(3, 2), 3, Fraction(1, 2)), (3, Fraction(3, 2), Fraction(2)),
])
def test_quotient_is_exact(x, y, expected):
    q = quotient(x, y)
    assert q == expected and type(q) is type(expected)


def test_quotient_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        quotient(1, 0)


def test_an_int_divides_by_a_prime_field_element():
    # the reflected operators let an int meet GF(p) on either side
    gf7 = PrimeField(7)
    three = gf7.parse("3")
    assert 1 - gf7.one == gf7.zero
    assert 1 / three == quotient(1, three) == gf7.parse("5")  # 3 * 5 = 15 = 1 mod 7
    assert 6 / three == gf7.parse("2")
    assert (1 / three) * three == gf7.one
    with pytest.raises(ZeroDivisionError):
        1 / gf7.zero
    with pytest.raises(ValidationError):
        PrimeField(5).one / three


def _scalars(obj):
    """Every scalar inside nested tuples, lists, dicts and matrices."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _scalars(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _scalars(v)
    elif hasattr(obj, "data"):
        yield from _scalars(obj.data)
    else:
        yield obj


def _exact(obj):
    return all(type(x) in (int, Fraction) for x in _scalars(obj))


def test_rref_of_integral_rows_with_a_pivot_not_one_is_exact():
    rows = rref([{0: 2, 1: 3}, {1: 4, 2: 6}])
    assert sorted(rows) == [0, 1]
    assert rows == {0: {0: 1, 2: Fraction(-9, 4)}, 1: {1: 1, 2: Fraction(3, 2)}}
    assert _exact(rows)
    assert not any(type(x) is Fraction and x.denominator == 1 for x in _scalars(rows))
    kernel = nullspace([{0: 2, 1: 3}, {1: 4, 2: 6}], 3)
    assert kernel == [{0: Fraction(9, 4), 1: Fraction(-3, 2), 2: 1}]
    assert _exact(kernel)


def test_lie_quotient_of_an_integral_algebra_with_a_pivot_not_one_is_exact():
    # [c, c] = 2a + 3b and every other bracket 0: a Leibniz algebra whose
    # squares ideal is spanned by 2a + 3b, so its reduced row is a + 3/2 b
    alg = LeibnizAlgebra(("a", "b", "c"), [[{}, {}, {}], [{}, {}, {}], [{}, {}, {0: 2, 1: 3}]])
    lq = lie_quotient(alg)
    assert lq.ideal == ((1, Fraction(3, 2), 0),)
    assert lq.pi == ({0: Fraction(-3, 2)}, {0: 1}, {1: 1})
    assert _exact(lq.ideal) and _exact(lq.pi) and _exact(lq.section)
    assert _exact(lq.quotient.brackets) and _exact(lq.action)
