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

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations as _permutations

from .errors import ConsistencyError, ValidationError, as_int


class FiniteShelf:
    """A finite magma table; whether it is a shelf/rack/quandle is a property."""

    def __init__(self, elements, op):
        self.elements = tuple(str(e) for e in elements)
        n = len(self.elements)
        op = tuple(tuple(as_int(v, "op entry") for v in row) for row in op)
        if len(op) != n or any(len(row) != n for row in op):
            raise ValidationError("op table must be n x n")
        for row in op:
            for v in row:
                if not 0 <= v < n:
                    raise ValidationError(f"op entry {v} out of range")
        self.op = op

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
            return cls(d["elements"], d["op"])
        except (KeyError, TypeError) as exc:
            raise ValidationError("shelf JSON needs elements/op") from exc


@dataclass(frozen=True)
class ShelfReport:
    is_shelf: bool
    is_rack: bool
    is_quandle: bool
    witnesses: dict

    @property
    def ok(self) -> bool:
        return self.is_rack


def check_shelf(s: FiniteShelf) -> ShelfReport:
    """Brute-force the shelf, rack, and quandle axioms over all tuples.

    Witnesses are the lexicographically first failing tuples, keyed by
    ``self_distributivity`` (x, y, z), ``bijectivity`` (x1, x2, y) with
    ``x1 <| y = x2 <| y``, and ``idempotence`` (x,).
    """
    n = s.size
    op = s.op
    witnesses = {}
    is_shelf = True
    for x in range(n):
        for y in range(n):
            xy = op[x][y]
            for z in range(n):
                if op[xy][z] != op[op[x][z]][op[y][z]]:
                    witnesses["self_distributivity"] = (x, y, z)
                    is_shelf = False
                    break
            if not is_shelf:
                break
        if not is_shelf:
            break
    bijective = True
    for y in range(n):
        seen = {}
        for x in range(n):
            img = op[x][y]
            if img in seen:
                witnesses["bijectivity"] = (seen[img], x, y)
                bijective = False
                break
            seen[img] = x
        if not bijective:
            break
    idem = True
    for x in range(n):
        if op[x][x] != x:
            witnesses["idempotence"] = (x,)
            idem = False
            break
    is_rack = is_shelf and bijective
    return ShelfReport(is_shelf, is_rack, is_rack and idem, witnesses)


# ---------------------------------------------------------------------------
# groups

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
        mul = tuple(tuple(as_int(v, "mul entry") for v in row) for row in mul)
        if len(mul) != n or any(len(r) != n for r in mul):
            raise ValidationError("mul table must be n x n")
        for row in mul:
            for v in row:
                if not 0 <= v < n:
                    raise ValidationError(f"mul entry {v} out of range")
        self.mul = mul
        ident = None
        for e in range(n):
            if all(mul[e][x] == x == mul[x][e] for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValidationError("no identity element")
        self.identity = ident
        inv = [None] * n
        for x in range(n):
            for y in range(n):
                if mul[x][y] == ident and mul[y][x] == ident:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise ValidationError(f"element {self.elements[x]} has no inverse")
        self.inv = tuple(inv)
        gens, reached = [], {ident}
        for g in range(n):
            if g not in reached:
                gens.append(g)
                frontier = list(reached)
                while frontier:
                    frontier = [y for y in {mul[x][s] for x in frontier for s in gens}
                                if y not in reached]
                    reached.update(frontier)
        self.generators = tuple(gens)
        for a in range(n):
            for s in gens:
                a_s = mul[a][s]
                for c in range(n):
                    if mul[a_s][c] != mul[a][mul[s][c]]:
                        raise ValidationError(
                            f"mul table not associative at "
                            f"({self.elements[a]}, {self.elements[s]}, {self.elements[c]})"
                        )

    def action_witness(self, points, act):
        """The first failure of ``act`` as a right action of this group, or None.

        ``act(x, g)`` reads the image of x (a point or an image) under any g
        from a table.  Returns ``(i, e)`` if e moves ``points[i]``, else the
        least ``(i, a, s)``, s in ``generators``, with ``(x a) s != x (a s)``.
        That suffices: the h with ``(x a) h = x (a h)`` for all x, a form a
        submonoid.
        """
        e = self.identity
        for i, x in enumerate(points):
            if act(x, e) != x:
                return (i, e)
        for i, x in enumerate(points):
            for a in range(self.size):
                xa = act(x, a)
                for s in self.generators:
                    if act(xa, s) != act(x, self.mul[a][s]):
                        return (i, a, s)
        return None

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
            return cls(d["elements"], d["mul"])
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
        perms = sorted(_permutations(range(n)))
        labels = [_cycle_label(p, points=list(range(1, n + 1))) for p in perms]
        index = {p: i for i, p in enumerate(perms)}
        mul = [[index[_perm_mul(a, b)] for b in perms] for a in perms]
        return cls(labels, mul)

    @classmethod
    def from_permutations(cls, gens, degree: int) -> tuple["FiniteGroup", dict]:
        """Subgroup of Sym(degree) generated by `gens` (tuples), diagram order.

        Returns the group plus a dict mapping each permutation tuple to its
        element index.  Elements are sorted by one-line notation, so the table
        is canonical for a given generating set.
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
            frontier = new
        perms = sorted(seen)
        index = {p: i for i, p in enumerate(perms)}
        labels = [_cycle_label(p) for p in perms]
        mul = [[index[_perm_mul(a, b)] for b in perms] for a in perms]
        return cls(labels, mul), index


def conjugation_rack(g: FiniteGroup) -> FiniteShelf:
    """The conjugation quandle of a group: ``x <| y = y^-1 x y``."""
    n = g.size
    op = [[g.conj(x, y) for y in range(n)] for x in range(n)]
    return FiniteShelf(g.elements, op)


def dihedral_quandle(n: int) -> FiniteShelf:
    """The dihedral quandle on Z/n: ``x <| y = 2y - x mod n``."""
    if n < 1:
        raise ValidationError("dihedral quandle needs n >= 1")
    op = [[(2 * y - x) % n for y in range(n)] for x in range(n)]
    return FiniteShelf([str(i) for i in range(n)], op)


# ---------------------------------------------------------------------------
# augmented racks

class AugmentedRack:
    """A right G-set X with a map p: X -> G.

    The constructor verifies that the action table really is a right action;
    whether the augmentation identity holds is checked by
    :func:`check_augmented`, so deliberately broken examples can be built.
    """

    def __init__(self, elements, group: FiniteGroup, action, p):
        self.elements = tuple(str(e) for e in elements)
        self.group = group
        nx, ng = len(self.elements), group.size
        action = tuple(tuple(as_int(v, "action entry") for v in row) for row in action)
        if len(action) != nx or any(len(row) != ng for row in action):
            raise ValidationError("action table must be |X| x |G|")
        for row in action:
            for v in row:
                if not 0 <= v < nx:
                    raise ValidationError(f"action entry {v} out of range")
        p = tuple(as_int(v, "p entry") for v in p)
        if len(p) != nx or any(not 0 <= v < ng for v in p):
            raise ValidationError("p must map X into G")
        witness = group.action_witness(range(nx), lambda x, g: action[x][g])
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
                d["rack_elements"],
                FiniteGroup.from_json_dict(d["group"]),
                d["action"],
                d["p"],
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                "augmented rack JSON needs rack_elements/group/action/p"
            ) from exc


@dataclass(frozen=True)
class AugmentedReport:
    ok: bool
    witness: tuple | None


def check_augmented(a: AugmentedRack) -> AugmentedReport:
    """Check the augmentation identity p(x.g) = g^-1 p(x) g on all pairs."""
    g = a.group
    for x in range(a.size):
        for h in range(g.size):
            if a.p[a.act(x, h)] != g.conj(a.p[x], h):
                return AugmentedReport(False, (x, h))
    return AugmentedReport(True, None)


def induced_rack(a: AugmentedRack) -> FiniteShelf:
    """The canonical rack ``x <| y = x . p(y)`` of an augmented rack."""
    rep = check_augmented(a)
    if not rep.ok:
        raise ValidationError(f"augmentation identity fails at {rep.witness}")
    op = [[a.act(x, a.p[y]) for y in range(a.size)] for x in range(a.size)]
    shelf = FiniteShelf(a.elements, op)
    if not check_shelf(shelf).is_rack:
        raise ConsistencyError("induced operation of an augmented rack must be a rack")
    return shelf


def conjugation_augmented(g: FiniteGroup) -> AugmentedRack:
    """X = G acting on itself by conjugation, p = id."""
    n = g.size
    action = [[g.conj(x, h) for h in range(n)] for x in range(n)]
    return AugmentedRack(g.elements, g, action, list(range(n)))


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
    if induced_rack(aug) != s:
        raise ConsistencyError("inner augmentation must induce the original rack")
    return aug


def rack_tensor_and_braiding(a1: AugmentedRack, a2: AugmentedRack):
    """Tensor product of augmented racks over one group, with its braiding.

    The carrier is X x Y (pairs ordered x-major) with the diagonal action and
    ``p(x, y) = p1(x) p2(y)``.  The braiding is the bijection
    ``c(x, y) = (y, x . p2(y))``, returned as a dict on index pairs.
    """
    if a1.group != a2.group:
        raise ValidationError("augmented racks must share the same group")
    g = a1.group
    pairs = [(x, y) for x in range(a1.size) for y in range(a2.size)]
    labels = [f"({a1.elements[x]},{a2.elements[y]})" for x, y in pairs]
    action = [[None] * g.size for _ in pairs]
    pos = {xy: k for k, xy in enumerate(pairs)}
    for k, (x, y) in enumerate(pairs):
        for h in range(g.size):
            action[k][h] = pos[(a1.act(x, h), a2.act(y, h))]
    p = [g.mul_idx(a1.p[x], a2.p[y]) for x, y in pairs]
    tensor = AugmentedRack(labels, g, action, p)
    if not check_augmented(tensor).ok:
        raise ConsistencyError("tensor of augmented racks must stay augmented")
    braiding = {(x, y): (y, a1.act(x, a2.p[y])) for x, y in pairs}
    return tensor, braiding


def rack_braiding_ybe(a: AugmentedRack) -> AugmentedReport:
    """Set-level Yang-Baxter check for the braiding of `a` with itself."""
    _, c = rack_tensor_and_braiding(a, a)

    def c12(t):
        u, v = c[(t[0], t[1])]
        return (u, v, t[2])

    def c23(t):
        u, v = c[(t[1], t[2])]
        return (t[0], u, v)

    n = a.size
    for x in range(n):
        for y in range(n):
            for z in range(n):
                t = (x, y, z)
                if c12(c23(c12(t))) != c23(c12(c23(t))):
                    return AugmentedReport(False, t)
    return AugmentedReport(True, None)
