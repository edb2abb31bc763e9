"""Exact scalar arithmetic: the rationals and optional prime fields GF(p).

Every computation in this package is equality-exact; there is no floating
point anywhere.  The default field is ``QQ`` (backed by ``fractions.Fraction``,
which keeps values in lowest terms with positive denominator).  A prime field
can be selected per computation by passing a ``PrimeField`` instance wherever
a ``field`` argument is accepted; its elements overload the same operators as
``Fraction``, so all generic code runs unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError


class RationalField:
    """The field of rational numbers."""

    name = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def scalar(self, v):
        return Fraction(v)

    def parse(self, text):
        """Parse a scalar literal like ``"3"``, ``"-3/4"``."""
        try:
            return Fraction(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {text!r}") from exc

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class GFElement:
    """An element of GF(p).  Arithmetic wraps mod p; ints coerce."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValidationError("mixed prime fields")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else GFElement(self.p, self.v + w)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else GFElement(self.p, self.v - w)

    def __rsub__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else GFElement(self.p, w - self.v)

    def __mul__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else GFElement(self.p, self.v * w)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        if w % self.p == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.p, self.v * pow(w, -1, self.p))

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __eq__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else self.v == w

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __str__(self):
        return str(self.v)

    def __repr__(self):
        return f"GF({self.p})({self.v})"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """The prime field GF(p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValidationError(f"{p} is not prime")
        self.p = p
        self.name = f"gfp:{p}"
        self.zero = GFElement(p, 0)
        self.one = GFElement(p, 1)

    def scalar(self, v):
        if isinstance(v, GFElement):
            if v.p != self.p:
                raise ValidationError("mixed prime fields")
            return v
        if isinstance(v, Fraction):
            return self.parse(str(v))
        return GFElement(self.p, int(v))

    def parse(self, text):
        q = QQ.parse(text)
        if q.denominator % self.p == 0:
            raise ValidationError(f"literal {text!r} has no image in GF({self.p})")
        return GFElement(self.p, q.numerator * pow(q.denominator, -1, self.p))

    def __repr__(self):
        return f"GF({self.p})"


def field_from_name(name: str):
    """Resolve ``"rational"`` or ``"gfp:<p>"`` to a field object."""
    if name == "rational":
        return QQ
    if name.startswith("gfp:"):
        try:
            p = int(name[4:])
        except ValueError as exc:
            raise ValidationError(f"bad field spec {name!r}") from exc
        return PrimeField(p)
    raise ValidationError(f"unknown field {name!r} (want rational or gfp:<p>)")
