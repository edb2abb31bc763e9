"""Finite shelves, racks, quandles, groups, and augmented racks.

A (right) shelf is a set with a binary operation ``x <| y`` satisfying the
self-distributivity law ``(x <| y) <| z = (x <| z) <| (y <| z)``; a rack is a
shelf whose right translations ``x -> x <| y`` are bijections, and a quandle
is a rack with ``x <| x = x`` (Fenn-Rourke).  An augmented rack over a group G
is a right G-set X with a map ``p: X -> G`` satisfying the augmentation
identity ``p(x . g) = g^-1 p(x) g``; it induces the rack ``x <| y = x . p(y)``.

Permutations are composed in diagram order throughout this module:
``a * b`` means "apply a, then b".  Under that convention ``x . sigma =
sigma[x]`` is a right action, and the column maps of a rack conjugate the
right way around.

All structures are immutable after construction; axiom sweeps are pure reads
and can be partitioned across workers, with the lexicographically least
witness as the deterministic merge.
"""

from itertools import permutations as _permutations
from typing import NamedTuple

from . import grouptable
from .errors import ConsistencyError, ValidationError, as_int
from .selfdist import greedy_generators, witnesses


def _list(value, what):
    """``value`` if it is a JSON list; a string would be read character by
    character, so anything else is refused, naming the field."""
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _table(value, what):
    """A JSON table: a list whose rows are lists."""
    return [_list(row, f"{what} row") for row in _list(value, what)]


_INT = frozenset((int,))


def _index_table(table, n, m, what, shape):
    """``table`` as a tuple of int tuples, checked in this order: every entry
    an integer, n rows of m entries (``shape`` says so in the message), every
    entry in range(n)."""
    rows = []
    for row in table:
        row = tuple(row)
        if not _INT.issuperset(map(type, row)):  # as_int names the first entry that is not
            row = tuple(as_int(v, f"{what} entry") for v in row)
        rows.append(row)
    if len(rows) != n or any(len(row) != m for row in rows):
        raise ValidationError(f"{what} table must be {shape}")
    for row in rows:
        if row and not (0 <= min(row) and max(row) < n):
            v = next(v for v in row if not 0 <= v < n)
            raise ValidationError(f"{what} entry {v} out of range")
    return tuple(rows)


class FiniteShelf:
    """A finite magma table; whether it is a shelf/rack/quandle is a property."""

    def __init__(self, elements, op):
        self.elements = tuple(str(e) for e in elements)
        n = len(self.elements)
        self.op = _index_table(op, n, n, "op", "n x n")

    @property
    def size(self) -> int:
        return len(self.elements)

    def apply(self, i: int, j: int) -> int:
        return self.op[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteShelf)
            and self.elements == other.elements
            and self.op == other.op
        )

    def __repr__(self):
        return f"FiniteShelf({list(self.elements)})"

    def to_json_dict(self):
        return {"elements": list(self.elements), "op": [list(r) for r in self.op]}

    @classmethod
    def from_json_dict(cls, d):
        try:
            return cls(_list(d["elements"], "elements"), _table(d["op"], "op"))
        except (KeyError, TypeError) as exc:
            raise ValidationError("shelf JSON needs elements/op") from exc


class ShelfReport(NamedTuple):
    is_shelf: bool
    is_rack: bool
    is_quandle: bool
    witnesses: dict

    @property
    def ok(self) -> bool:
        return self.is_rack


def check_shelf(s: FiniteShelf) -> ShelfReport:
    """Decide the shelf, rack, and quandle axioms.

    Witnesses are the lexicographically first failing tuples, keyed by
    ``self_distributivity`` (x, y, z), ``bijectivity`` (x1, x2, y) with
    ``x1 <| y = x2 <| y``, and ``idempotence`` (x,); the first two are
    decided by :func:`rackyd.selfdist.witnesses`.
    """
    distributivity, not_injective = witnesses(s.op)
    idempotence = next(((x,) for x, row in enumerate(s.op) if row[x] != x), None)
    # self_distributivity first: error messages print the dict as is
    found = {"self_distributivity": distributivity, "bijectivity": not_injective,
             "idempotence": idempotence}
    is_rack = distributivity is None and not_injective is None
    return ShelfReport(distributivity is None, is_rack, is_rack and idempotence is None,
                       {key: w for key, w in found.items() if w is not None})


# ---------------------------------------------------------------------------
# groups

# |A7|: `inner-augmentation` on the 70 3-cycles of S7 (inner group A7) peaks
# at 721 MB as a process under a 1 GiB RLIMIT_AS, an inner group of order
# 2943 at 998 MB, and one of order 3081 runs out of memory (single runs,
# 2-CPU x86-64, Python 3.11); its printed report holds the |G|^2 table
PERMUTATION_GROUP_MAX_ORDER = 2520


def _perm_mul(a, b):
    # diagram order: apply a, then b
    return tuple(b[a[i]] for i in range(len(a)))


def _cycle_label(perm, points=None):
    """Cycle notation for a permutation; `points` names the moved points."""
    n = len(perm)
    if points is None:
        points = list(range(n))
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or perm[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(points[j])
            j = perm[j]
        cycles.append("(" + " ".join(str(p) for p in cyc) + ")")
    return "".join(cycles) if cycles else "e"


class FiniteGroup:
    """A finite group as a Cayley table; the axioms are verified on construction.

    ``generators`` is the generating set S: each element, in order, that is not
    yet reached from e by right multiplication with the generators before it.
    Associativity is Light's test ``(a s) c = a (s c)`` for s in S, which is
    complete because the middle elements that pass it are closed under products.
    """

    def __init__(self, elements, mul):
        self.elements = tuple(str(e) for e in elements)
        n = len(self.elements)
        if n == 0:
            raise ValidationError("a group needs at least the identity")
        self.mul = mul = _index_table(mul, n, n, "mul", "n x n")
        ident = grouptable.identity(mul)
        if ident is None:
            raise ValidationError("no identity element")
        self.identity = ident
        inv = [grouptable.inverse(mul, ident, x) for x in range(n)]
        if None in inv:
            raise ValidationError(f"element {self.elements[inv.index(None)]} has no inverse")
        self.inv = tuple(inv)
        self.generators = greedy_generators(mul, (ident,))
        witness = grouptable.associativity_witness(mul, self.generators)
        if witness is not None:
            a, s, c = (self.elements[k] for k in witness)
            raise ValidationError(f"mul table not associative at ({a}, {s}, {c})")

    def action_witness(self, points, act):
        """The first failure of ``act`` as a right action of this group, or None.

        ``act(x, g)`` reads the image of x (a point or an image) under any g
        from a table; when the points are ``range(n)``, ``act`` may be that
        index table itself, which is then compared a column at a time.
        Returns ``(i, e)`` if e moves ``points[i]``, else the least
        ``(i, a, s)``, s in ``generators``, with ``(x a) s != x (a s)``.
        That suffices: the h with ``(x a) h = x (a h)`` for all x, a form a
        submonoid.
        """
        return grouptable.action_witness(self.mul, self.identity, self.generators, points, act)

    @property
    def size(self) -> int:
        return len(self.elements)

    def mul_idx(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inv_idx(self, a: int) -> int:
        return self.inv[a]

    def conj(self, x: int, g: int) -> int:
        """g^-1 x g."""
        return self.mul[self.mul[self.inv[g]][x]][g]

    def is_abelian(self) -> bool:
        return all(
            self.mul[a][b] == self.mul[b][a]
            for a in range(self.size) for b in range(self.size)
        )

    def index_of(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError as exc:
            raise ValidationError(f"no group element labelled {label!r}") from exc

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.elements == other.elements
            and self.mul == other.mul
        )

    def __repr__(self):
        return f"FiniteGroup(order={self.size})"

    def to_json_dict(self):
        return {"elements": list(self.elements), "mul": [list(r) for r in self.mul]}

    @classmethod
    def from_json_dict(cls, d):
        try:
            return cls(_list(d["elements"], "elements"), _table(d["mul"], "mul"))
        except (KeyError, TypeError) as exc:
            raise ValidationError("group JSON needs elements/mul") from exc

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValidationError("cyclic group order must be >= 1")
        labels = [str(i) for i in range(n)]
        mul = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(labels, mul)

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """S_n on points 1..n, elements sorted by one-line notation."""
        if n < 1:
            raise ValidationError("symmetric group degree must be >= 1")
        return cls._on_permutations(_permutations(range(n)), list(range(1, n + 1)))[0]

    @classmethod
    def from_permutations(cls, gens, degree: int) -> tuple["FiniteGroup", dict]:
        """Subgroup of Sym(degree) generated by `gens` (tuples), diagram order.

        Returns the group plus a dict mapping each permutation tuple to its
        element index.  Elements are sorted by one-line notation, so the table
        is canonical for a given generating set.  The closure stops with a
        ValidationError as soon as it passes ``PERMUTATION_GROUP_MAX_ORDER``
        elements, before the multiplication table is built.
        """
        ident = tuple(range(degree))
        seen = {ident}
        frontier = [ident]
        gens = [tuple(g) for g in gens]
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise ValidationError(f"{g} is not a permutation of 0..{degree - 1}")
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    c = _perm_mul(a, g)
                    if c not in seen:
                        seen.add(c)
                        new.append(c)
                        if len(seen) > PERMUTATION_GROUP_MAX_ORDER:
                            raise ValidationError(
                                "the generated permutation group has more than "
                                f"PERMUTATION_GROUP_MAX_ORDER = {PERMUTATION_GROUP_MAX_ORDER} "
                                "elements")
            frontier = new
        return cls._on_permutations(seen)

    @classmethod
    def _on_permutations(cls, perms, points=None) -> tuple["FiniteGroup", dict]:
        """The group of a closed set of permutations in one-line order, labelled
        on ``points``, and the index of each permutation."""
        perms = sorted(perms)
        index = {p: i for i, p in enumerate(perms)}
        labels = [_cycle_label(p, points) for p in perms]
        mul = [[index[_perm_mul(a, b)] for b in perms] for a in perms]
        return cls(labels, mul), index


def conjugation_rack(g: FiniteGroup) -> FiniteShelf:
    """The conjugation quandle of a group: ``x <| y = y^-1 x y``.

    It is a quandle by the group axioms, which :class:`FiniteGroup` verified
    when ``g`` was built, so :func:`check_shelf` (kept as the reference in
    the tests) need not sweep it:

    - ``(x <| y) <| z = z^-1 y^-1 x y z`` and ``(x <| z) <| (y <| z) =
      (z^-1 y^-1 z)(z^-1 x z)(z^-1 y z)``, which is the same element;
    - ``x -> y^-1 x y`` has the inverse ``x -> y x y^-1``;
    - ``x <| x = x^-1 x x = x``.
    """
    return FiniteShelf(g.elements, grouptable.conjugation_table(g.mul, g.inv))


DIHEDRAL_MAX_ORDER = 1000


def dihedral_quandle(n: int) -> FiniteShelf:
    """The dihedral quandle on Z/n: ``x <| y = 2y - x mod n``.

    Its table has n^2 entries, so n above ``DIHEDRAL_MAX_ORDER`` is refused
    before anything is allocated.  It is a quandle for every n >= 1, so
    :func:`check_shelf` (kept as the reference in the tests) need not sweep
    it: ``(x <| y) <| z = 2z - 2y + x = 2(2z - y) - (2z - x) =
    (x <| z) <| (y <| z)``; ``x -> 2y - x`` is its own inverse; and
    ``x <| x = 2x - x = x``.
    """
    if n < 1:
        raise ValidationError("dihedral quandle needs n >= 1")
    if n > DIHEDRAL_MAX_ORDER:
        raise ValidationError(f"dihedral quandle order {n} exceeds {DIHEDRAL_MAX_ORDER}")
    op = [[(2 * y - x) % n for y in range(n)] for x in range(n)]
    return FiniteShelf([str(i) for i in range(n)], op)


# ---------------------------------------------------------------------------
# augmented racks

class AugmentedRack:
    """A right G-set X with a map p: X -> G.

    The constructor verifies that the action table really is a right action;
    whether the augmentation identity holds is checked by
    :func:`check_augmented`, so deliberately broken examples can be built.
    With ``proved`` true nothing is checked: the caller has already proved
    that ``action`` (a tuple of int tuples) is a right action and that ``p``
    maps X into G, as :func:`rack_tensor_and_braiding` has for the diagonal
    action of two verified actions.
    """

    def __init__(self, elements, group: FiniteGroup, action, p, proved=False):
        self.elements = tuple(str(e) for e in elements)
        self.group = group
        if proved:
            self.action, self.p = action, tuple(p)
            return
        nx, ng = len(self.elements), group.size
        action = _index_table(action, nx, ng, "action", "|X| x |G|")
        p = tuple(as_int(v, "p entry") for v in p)
        if len(p) != nx or any(not 0 <= v < ng for v in p):
            raise ValidationError("p must map X into G")
        witness = group.action_witness(range(nx), action)
        if witness is not None and len(witness) == 2:
            raise ValidationError(f"identity must act trivially (fails at x={witness[0]})")
        if witness is not None:
            x, a, s = witness[0], *(group.elements[g] for g in witness[1:])
            raise ValidationError(f"not a right action at (x={x}, g={a}, h={s})")
        self.action = action
        self.p = p

    @property
    def size(self) -> int:
        return len(self.elements)

    def act(self, x: int, g: int) -> int:
        return self.action[x][g]

    def __eq__(self, other):
        return (
            isinstance(other, AugmentedRack)
            and self.elements == other.elements
            and self.group == other.group
            and self.action == other.action
            and self.p == other.p
        )

    def to_json_dict(self):
        return {
            "rack_elements": list(self.elements),
            "group": self.group.to_json_dict(),
            "action": [list(r) for r in self.action],
            "p": list(self.p),
        }

    @classmethod
    def from_json_dict(cls, d):
        try:
            return cls(
                _list(d["rack_elements"], "rack_elements"),
                FiniteGroup.from_json_dict(d["group"]),
                _table(d["action"], "action"),
                _list(d["p"], "p"),
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                "augmented rack JSON needs rack_elements/group/action/p"
            ) from exc


class AugmentedReport(NamedTuple):
    ok: bool
    witness: tuple | None


def check_augmented(a: AugmentedRack) -> AugmentedReport:
    """Check the augmentation identity p(x.g) = g^-1 p(x) g on all pairs."""
    witness = grouptable.augmentation_witness(a.group.mul, a.action, a.p)
    return AugmentedReport(witness is None, witness)


def _require_augmented(a: AugmentedRack) -> None:
    rep = check_augmented(a)
    if not rep.ok:
        raise ValidationError(f"augmentation identity fails at {rep.witness}")


def _induced_table(a: AugmentedRack) -> FiniteShelf:
    """The table ``x <| y = x . p(y)``, with no axiom checked."""
    return FiniteShelf(a.elements, [[a.act(x, a.p[y]) for y in range(a.size)]
                                    for x in range(a.size)])


def induced_rack(a: AugmentedRack) -> FiniteShelf:
    """The canonical rack ``x <| y = x . p(y)`` of an augmented rack."""
    _require_augmented(a)
    shelf = _induced_table(a)
    if not check_shelf(shelf).is_rack:
        raise ConsistencyError("induced operation of an augmented rack must be a rack")
    return shelf


def conjugation_augmented(g: FiniteGroup) -> AugmentedRack:
    """X = G acting on itself by conjugation, p = id."""
    action = grouptable.conjugation_table(g.mul, g.inv)
    return AugmentedRack(g.elements, g, action, list(range(g.size)))


def inner_augmentation(s: FiniteShelf) -> AugmentedRack:
    """Augment a rack over its inner group.

    The group is the subgroup of Sym(X) generated by the column bijections
    ``phi_y: x -> x <| y``; it is a finite stand-in for the associated group
    of the rack (the two have the same image in Sym(X), which is all the
    induced structure ever consumes).  ``p(y) = phi_y`` and the action is the
    natural one.  The result always satisfies the augmentation identity and
    induces the original rack back.
    """
    rep = check_shelf(s)
    if not rep.is_rack:
        raise ValidationError(f"not a rack: witnesses {rep.witnesses}")
    n = s.size
    cols = [tuple(s.op[x][y] for x in range(n)) for y in range(n)]
    group, index = FiniteGroup.from_permutations(cols, n)
    perms = sorted(index, key=index.get)
    action = [[perms[g][x] for g in range(group.size)] for x in range(n)]
    aug = AugmentedRack(s.elements, group, action, [index[c] for c in cols])
    if not check_augmented(aug).ok:
        raise ConsistencyError("inner augmentation must satisfy the augmentation identity")
    if _induced_table(aug) != s:
        raise ConsistencyError("inner augmentation must induce the original rack")
    return aug


def rack_tensor_and_braiding(a1: AugmentedRack, a2: AugmentedRack):
    """Tensor product of augmented racks over one group, with its braiding.

    The carrier is X x Y (pairs ordered x-major) with the diagonal action and
    ``p(x, y) = p1(x) p2(y)``.  The braiding is the bijection
    ``c(x, y) = (y, x . p2(y))``, returned as a dict on index pairs.

    Both inputs must satisfy the augmentation identity (else ValidationError;
    one sweep when they are one object).  The tensor then satisfies it too,
    since ``p1(x.h) p2(y.h) = h^-1 p1(x) h h^-1 p2(y) h``, so it is not
    checked again.  Nor is the diagonal action:
    both input actions were proved to be right actions when they were built,
    and then so is ``(x, y) . h = (x . h, y . h)``.
    """
    if a1.group != a2.group:
        raise ValidationError("augmented racks must share the same group")
    for a in (a1,) if a2 is a1 else (a1, a2):
        _require_augmented(a)
    g = a1.group
    pairs = [(x, y) for x in range(a1.size) for y in range(a2.size)]
    labels = [f"({a1.elements[x]},{a2.elements[y]})" for x, y in pairs]
    pos = {xy: k for k, xy in enumerate(pairs)}
    action = tuple(tuple(pos[(a1.act(x, h), a2.act(y, h))] for h in range(g.size))
                   for x, y in pairs)
    p = [g.mul_idx(a1.p[x], a2.p[y]) for x, y in pairs]
    tensor = AugmentedRack(labels, g, action, p, True)  # proved: the action is diagonal
    braiding = {(x, y): (y, a1.act(x, a2.p[y])) for x, y in pairs}
    return tensor, braiding


def rack_braiding_ybe(a: AugmentedRack) -> AugmentedReport:
    """Set-level Yang-Baxter check for the braiding ``c(x, y) = (y, x <| y)``
    of `a` with itself, where ``x <| y = x . p(y)``.

    Both sides send (x, y, z) to ``(z, y <| z, w)``, w = ``(x <| y) <| z`` on
    one and ``(x <| z) <| (y <| z)`` on the other, so the verdict and the least
    failing (x, y, z) are those of :func:`rackyd.selfdist.witnesses` on the
    induced table.  The augmentation identity is not assumed.
    """
    witness = witnesses(_induced_table(a).op)[0]
    return AugmentedReport(witness is None, witness)
