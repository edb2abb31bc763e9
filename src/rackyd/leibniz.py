"""Finite-dimensional right Leibniz algebras from structure constants.

A (right) Leibniz algebra has a bilinear bracket with

    [[x, y], z] = [x, [y, z]] + [[x, z], y];

Lie algebras are exactly the antisymmetric ones.  The quotient by the ideal
generated by all squares [x, x] is a Lie algebra g_Lie, the right adjoint
action of g_Lie lifts to g (squares bracket to zero from the right, so the
lift cannot depend on the representative), and the quotient map
pi: g -> g_Lie together with that action is the equivariant pair fed into
:mod:`rackyd.envelope`.

Two constructions live here besides the quotient: the unital shelf on
k (+) g,

    (a + u) <| (a' + v) = a a' + a' u + [u, v],

and the first-order module structure on the same space over the truncated
enveloping algebra of g_Lie, whose braiding matrix is the package's flagship
concrete computation (see ``first_order_yd``).  The module's induced
operation ``x <| y = x . (scalar part of y + pi(y))`` coincides with the
unital shelf coefficient for coefficient.
"""

from typing import NamedTuple

from .braid import flip_columns
from .envelope import LieMapObject, TruncatedPBW, bracket_table
from .errors import ValidationError, as_int
from .linalg import lincomb, reduce_mod, rref, vec_reader, vec_to_json, vsum
from .scalars import QQ
from .yd import YDModule, braided_leibniz_witness


class LeibnizAlgebra:
    """Structure constants of a bilinear bracket on a finite basis.

    The container does not enforce the Leibniz identity (counterexamples must
    be representable); :func:`check_leibniz` decides it, and every operation
    that needs it states so.
    """

    def __init__(self, basis, brackets, field=QQ):
        self.field = field
        self.basis = tuple(str(b) for b in basis)
        self.brackets = bracket_table(brackets, len(self.basis))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket(self, i: int, j: int) -> dict:
        return dict(self.brackets[i][j])

    def bracket_vec(self, u: dict, v: dict) -> dict:
        return lincomb(u, lambda i: lincomb(v, self.brackets[i].__getitem__))

    def __eq__(self, other):
        return (
            isinstance(other, LeibnizAlgebra)
            and self.basis == other.basis
            and self.brackets == other.brackets
        )

    def __repr__(self):
        return f"LeibnizAlgebra({list(self.basis)})"

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "basis": list(self.basis),
            "brackets": bracket_entries(self.brackets),
        }

    @classmethod
    def from_json_dict(cls, d, field=QQ):
        try:
            n = as_int(d["dim"], "dim")
            basis = d["basis"]
            raw = d["brackets"]
        except (KeyError, TypeError) as exc:
            raise ValidationError("Leibniz JSON needs dim/basis/brackets") from exc
        if not (isinstance(basis, list) and isinstance(raw, list)):
            raise ValidationError("Leibniz basis and brackets must be lists")
        if len(basis) != n:
            raise ValidationError("basis length does not match dim")
        table = [[{} for _ in range(n)] for _ in range(n)]
        seen, read = set(), vec_reader(field, "bracket output", n)
        for entry in raw:
            try:
                i, j, out = entry["i"], entry["j"], entry["out"]
            except (KeyError, TypeError) as exc:
                raise ValidationError("bracket entry needs i/j/out") from exc
            i, j = as_int(i, "bracket entry i"), as_int(j, "bracket entry j")
            if not (0 <= i < n and 0 <= j < n):
                raise ValidationError(f"bracket entry ({i},{j}) out of range")
            if (i, j) in seen:
                raise ValidationError(f"bracket entry ({i},{j}) given twice")
            seen.add((i, j))
            table[i][j] = read(out)
        return cls(basis, table, field)


def bracket_entries(table):
    """The nonzero entries of a bracket table, as Leibniz-JSON ``brackets``."""
    return [
        {"i": i, "j": j, "out": vec_to_json(v)}
        for i, row in enumerate(table) for j, v in enumerate(row) if v
    ]


class LeibnizReport(NamedTuple):
    ok: bool
    witness: tuple | None


def check_leibniz(alg: LeibnizAlgebra) -> LeibnizReport:
    """Brute-force the Leibniz identity over all basis triples (sufficient by
    trilinearity): the braided Leibniz identity with the flip."""
    witness = braided_leibniz_witness(alg.brackets, flip_columns(alg.dim))
    return LeibnizReport(witness is None, witness)


def _require_leibniz(alg: LeibnizAlgebra):
    rep = check_leibniz(alg)
    if not rep.ok:
        raise ValidationError(f"Leibniz identity fails at basis triple {rep.witness}")


# ---------------------------------------------------------------------------
# a small fixture corpus

def _from_constants(basis, constants, field) -> LeibnizAlgebra:
    """The algebra with [b_i, b_j] = sum of c b_k over ``constants[i, j] = {k: c}``,
    each integer c read as ``c * field.one``; a missing (i, j) brackets to 0."""
    n = len(basis)
    table = [[{k: field.one * c for k, c in constants.get((i, j), {}).items()}
              for j in range(n)] for i in range(n)]
    return LeibnizAlgebra(basis, table, field)


def heisenberg_voros(field=QQ) -> LeibnizAlgebra:
    """The 3-dimensional Heisenberg-Voros algebra.

    Basis (x, y, z) with [x,x] = [y,y] = [x,y] = z and [y,x] = -z; a central
    extension of the abelian 2-dimensional algebra whose cocycle has both a
    symmetric and an antisymmetric part, so it is Leibniz but not Lie.
    """
    return _from_constants(("x", "y", "z"), {
        (0, 0): {2: 1}, (1, 1): {2: 1}, (0, 1): {2: 1}, (1, 0): {2: -1}}, field)


def abelian_lie(n: int, field=QQ) -> LeibnizAlgebra:
    return _from_constants(tuple(f"e{i}" for i in range(n)), {}, field)


def nonabelian_lie2(field=QQ) -> LeibnizAlgebra:
    """The 2-dimensional nonabelian Lie algebra: [e1, e2] = e1."""
    return _from_constants(("e1", "e2"), {(0, 1): {0: 1}, (1, 0): {0: -1}}, field)


def sl2(field=QQ) -> LeibnizAlgebra:
    """sl(2) on (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return _from_constants(("e", "f", "h"), {
        (0, 1): {2: 1}, (1, 0): {2: -1}, (2, 0): {0: 2}, (0, 2): {0: -2},
        (2, 1): {1: -2}, (1, 2): {1: 2}}, field)


def central_square2(field=QQ) -> LeibnizAlgebra:
    """2-dimensional Leibniz algebra with [x,x] = y, y central on both sides."""
    return _from_constants(("x", "y"), {(0, 0): {1: 1}}, field)


def non_leibniz1(field=QQ) -> LeibnizAlgebra:
    """The 1-dimensional table [x,x] = x; fails the identity (x vs 2x)."""
    return _from_constants(("x",), {(0, 0): {0: 1}}, field)


# ---------------------------------------------------------------------------
# squares ideal and the Lie quotient

def _squares_ideal_rows(alg: LeibnizAlgebra) -> dict:
    """The reduced echelon basis ``{pivot: sparse row}`` of the squares ideal.

    It is the span of the basis squares and their polarizations
    ``[x, y] + [y, x] = [x + y, x + y] - [x, x] - [y, y]``, which is the span
    of all squares in every characteristic.  That span is a two-sided ideal
    by the right Leibniz identity, which every caller proves first, so it is
    not closed by a sweep (the tests keep the closure check as the
    reference): at (x, x, c) the identity reads
    ``[[x, x], c] = [x, [x, c]] + [[x, c], x]``, the polarization of
    (x, [x, c]), and at (c, x, x) it reads ``[c, [x, x]] = 0``.
    """
    n = alg.dim
    return rref(vsum(alg.brackets[i][j], alg.brackets[j][i]) if i != j else alg.brackets[i][i]
                for i in range(n) for j in range(i, n))


def _dense(rows, n, zero) -> tuple:
    """A reduced echelon basis as dense rows, ordered by pivot."""
    return tuple(tuple(rows[p].get(k, zero) for k in range(n)) for p in sorted(rows))


def squares_ideal(alg: LeibnizAlgebra):
    """Echelon basis of the smallest bracket-closed subspace containing all
    squares [v, v] (generated by the basis squares and their polarizations,
    which span the same set by bilinearity), as dense rows."""
    _require_leibniz(alg)
    return _dense(_squares_ideal_rows(alg), alg.dim, alg.field.zero)


class LieQuotientData(NamedTuple):
    """The quotient pi: g -> g_Lie with a chosen section and lifted action.

    ``pi`` holds the n sparse columns pi(e_m) over the quotient basis,
    ``section`` the sparse columns s(xbar_k) = e_(complement k) in g, and
    ``action[k][m]`` the bracket column [e_m, s(xbar_k)].  ``ideal`` is the
    echelon basis of the squares ideal as dense rows.
    """

    parent: LeibnizAlgebra
    ideal: tuple
    quotient: LeibnizAlgebra
    pi: tuple
    section: tuple
    action: tuple

    @property
    def dim(self) -> int:
        return self.quotient.dim


def lie_quotient(alg: LeibnizAlgebra) -> LieQuotientData:
    """Quotient by the squares ideal, with section and lifted right action.

    Both facts below follow from the Leibniz identity, which is proved first
    (else ValidationError), so neither is swept; the tests keep
    :func:`rackyd.envelope.check_lie` and the section loop as references.

    - The lifted action does not depend on the section: every ideal element
      w brackets to zero from the right, ``[c, w] = 0``, since the identity
      at (c, x, x) reads ``[c, [x, x]] = 0`` and the squares span the ideal.
    - The quotient is a Lie algebra.  It is alternating, since every square
      lies in the ideal.  Alternating and right Leibniz give Jacobi in every
      characteristic: with ``[u, v] = -[v, u]`` the identity
      ``[[x, y], z] = [x, [y, z]] + [[x, z], y]`` reads
      ``[[x, y], z] + [[y, z], x] + [[z, x], y] = 0``.  The quotient bracket
      is that of g read through pi, since the ideal is two-sided.
    """
    _require_leibniz(alg)
    field = alg.field
    n = alg.dim
    rows = _squares_ideal_rows(alg)
    complement = [j for j in range(n) if j not in rows]
    cpos = {c: k for k, c in enumerate(complement)}

    def project(vec):
        return {cpos[j]: c for j, c in sorted(reduce_mod(vec, rows).items())}

    pi = tuple(project({m: field.one}) for m in range(n))
    section = tuple({c: field.one} for c in complement)
    qbrackets = [[project(alg.brackets[a][b]) for b in complement] for a in complement]
    quotient = LeibnizAlgebra([alg.basis[c] for c in complement], qbrackets, field)
    action = tuple(tuple(row[c] for row in alg.brackets) for c in complement)
    return LieQuotientData(alg, _dense(rows, n, field.zero), quotient, pi, section, action)


def lie_map_object(alg: LeibnizAlgebra) -> LieMapObject:
    """The equivariant pair pi: g -> g_Lie as input for the enveloping build."""
    lq = lie_quotient(alg)
    return LieMapObject(lq.quotient.brackets, lq.quotient.basis, alg.basis, lq.action, lq.pi,
                        alg.field)


# ---------------------------------------------------------------------------
# the unital shelf and the first-order module on k (+) g

class BilinearMap(NamedTuple):
    """A bilinear operation given by its table on basis pairs."""

    basis: tuple
    table: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def apply(self, u: dict, v: dict) -> dict:
        return lincomb(u, lambda i: lincomb(v, self.table[i].__getitem__))


def unital_shelf(alg: LeibnizAlgebra) -> BilinearMap:
    """The operation (a + u) <| (a' + v) = a a' + a' u + [u, v] on k (+) g.

    Index 0 is the adjoined unit; indices 1.. are the algebra basis.  For the
    Heisenberg-Voros algebra the z-output coefficient on general arguments is
    a'd + bb' + bc' - cb' + cc'.
    """
    _require_leibniz(alg)
    one = alg.field.one
    n = alg.dim
    table = [[{} for _ in range(n + 1)] for _ in range(n + 1)]
    table[0][0] = {0: one}
    for i in range(n):
        table[i + 1][0] = {i + 1: one}
        for j in range(n):
            table[i + 1][j + 1] = {k + 1: c for k, c in alg.brackets[i][j].items()}
    return BilinearMap(("1",) + alg.basis, tuple(tuple(row) for row in table))


def first_order_yd(alg: LeibnizAlgebra, degree: int = 2) -> YDModule:
    """The module-comodule on k (+) g over the truncated enveloping algebra.

    Coaction: 1 -> 1 (x) 1 and v -> v (x) 1 + 1 (x) pi(v).  Action: the unit
    of H acts as the identity, a degree-1 monomial acts by the lifted bracket
    (the adjoined scalar line brackets to zero).  Its braiding matrix for the
    Heisenberg-Voros algebra is the 16x16 integer matrix produced by the
    ``hv-rmatrix`` command.

    The module is Yetter-Drinfel'd, so ``first-order-yd`` reports it without
    a sweep (:func:`rackyd.yd.check_yd` stays the reference in the tests).
    Every generator x of H is primitive, and there the condition reads
    ``delta(m x) = m_(0) x (x) m_(1) + m_(0) (x) (m_(1) x - x m_(1))``
    (see :func:`rackyd.yd.check_yd`), which is complete on generators.  Each
    m_(1) has degree <= 1, so for d >= 2 no product overflows.  At a
    generator x, with s the section of pi (so ``pi(s(x)) = x``):

    - on the basis vector 1 both sides are 0, since 1 . x = 0 and
      1 x - x 1 = 0;
    - on e_i, whose coaction is ``e_i (x) 1 + 1 (x) pi(e_i)``, both sides
      have the term ``(e_i . x) (x) 1``, the terms ``e_i (x) (1 x - x 1)``
      and ``(1 . x) (x) pi(e_i)`` vanish, and what is left reads
      ``pi([e_i, s(x)]) = pi(e_i) x - x pi(e_i)``.  The right side is the
      commutator of two degree-1 elements, exact in H for d >= 2, so it is
      ``[pi(e_i), x]``; pi is a Leibniz homomorphism, so the left side is
      ``[pi(e_i), pi(s(x))]``, the same.

    The induced operation
    ``x <| y = x . (scalar part of y + pi(y))`` equals :func:`unital_shelf`,
    so it is not compared on construction (the tests keep the comparison as
    the reference).  The unit of H acts as the identity and 1 . pi(e_j) = 0,
    which gives the row and column of the adjoined unit.  At (e_i, e_j),
    ``e_i . pi(e_j) = [e_i, s(pi(e_j))] = [e_i, e_j - w]`` with
    ``w = e_j - s(pi(e_j))`` in the squares ideal, and ``[e_i, w] = 0``
    (see :func:`lie_quotient`), so it is ``[e_i, e_j]``.
    """
    if degree < 2:
        raise ValidationError("first-order module needs degree >= 2 for exact checks")
    lq = lie_quotient(alg)
    field = alg.field
    one = field.one
    n = alg.dim
    pbw = TruncatedPBW(lq.quotient.brackets, degree, lq.quotient.basis, field)
    basis = ("1",) + alg.basis
    action = [[{} for _ in range(lq.dim)]]
    for i in range(n):
        action.append([{j + 1: c for j, c in col[i].items()} for col in lq.action])
    coaction = [[(0, pbw.unit, one)]]
    for i in range(n):
        coaction.append([(i + 1, pbw.unit, one)]
                        + [(0, pbw.gen_index[k], c) for k, c in lq.pi[i].items()])
    return YDModule(pbw, basis, action, coaction)
