"""Exact scalar arithmetic: the rationals and optional prime fields GF(p).

Every computation in this package is equality-exact; there is no floating
point anywhere.  The default field is ``QQ``.  An integral rational is a plain
``int``; any other is a ``fractions.Fraction`` (lowest terms, positive
denominator).  The two mix exactly under ``+``, ``-`` and ``*``, compare and
hash alike, and print alike (``str(3) == str(Fraction(3))``), so generic code
needs no case split.  Only division can leave the integers, and it goes
through :func:`quotient`.  ``fractions`` is imported on the first literal
that is not a plain integer or the first quotient that is not an integer, so
integral inputs never load it.

A prime field can be selected per computation by passing a ``PrimeField``
instance wherever a ``field`` argument is accepted; its elements overload the
same operators, so all generic code runs unchanged.
"""

from .errors import ValidationError


def quotient(x, y):
    """``x / y`` exactly.  Two ints give an ``int`` when ``y`` divides ``x``
    and a ``Fraction`` otherwise, never a float; any other pair divides as is."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        if not r:
            return q
        from fractions import Fraction
        return Fraction(x, y)
    return x / y


class RationalField:
    """The field of rational numbers: ``int`` when integral, else ``Fraction``."""

    name = "rational"
    zero = 0
    one = 1

    def parse(self, text):
        """Parse a scalar literal like ``"3"``, ``"-3/4"``; it reads what
        ``Fraction(str(text))`` reads, and gives an ``int`` when that is one."""
        try:
            s = str(text)
            digits = s.removeprefix("-")
            if digits.isascii() and digits.isdigit():
                return int(s)
            from fractions import Fraction
            q = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {text!r}") from exc
        return q.numerator if q.denominator == 1 else q

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

    def __rtruediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.p, w * pow(self.v, -1, self.p))

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


# Miller-Rabin to the first 13 prime bases is exact below PRIME_BOUND, the
# least odd composite that passes all 13 (Sorenson and Webster, 2015); the
# first 12 bases pass 318665857834031151167461, which is composite
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for ``p < PRIME_BOUND``."""
    if p < 2:
        return False
    for a in PRIME_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The prime field GF(p), for p below ``PRIME_BOUND``."""

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise ValidationError(f"field characteristic {p} is not below {PRIME_BOUND}, "
                                  "where primality is decided exactly")
        if not _is_prime(p):
            raise ValidationError(f"{p} is not prime")
        self.p = p
        self.name = f"gfp:{p}"
        self.zero = GFElement(p, 0)
        self.one = GFElement(p, 1)

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
