"""The group algebra kG as a Hopf algebra, and the modules it provides.

On group elements the Hopf structure is the standard one (see e.g. Kassel,
"Quantum Groups"): Delta(g) = g (x) g, counit(g) = 1, S(g) = g^-1, extended
linearly.  From it we build

* the Yetter-Drinfel'd module ker(counit) with the right adjoint action
  ``a <- h = S(h_(1)) a h_(2)`` and the coaction ``a -> a_(1) (x) a_(2) -
  1 (x) a``,
* the linearization kX of an augmented rack p: X -> G, a kG module-comodule
  with coaction ``x -> x (x) p(x)`` (a G-grading) that is Yetter-Drinfel'd
  exactly when the augmentation identity holds,
* the finite-dual picture: the pullback ``p*: k[G] -> k[X]`` on delta bases
  of scalar-valued functions, colinear for the right adjoint coaction
  ``f -> f_(2) (x) S(f_(1)) f_(3)``.

kX has the trivial left action and trivial left coaction throughout; only the
right structures are stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .linalg import lincomb, vsum
from .racks import AugmentedRack, FiniteGroup, check_augmented
from .scalars import QQ
from .yd import YDModule, check_hopf_axioms  # noqa: F401  (perfbench/tracer.py wraps it here)


class GroupAlgebraElement:
    """A finitely supported linear combination of group elements.

    Coefficients are kept keyed by element index with zeros dropped;
    iteration order is sorted, so printed output is reproducible.
    """

    __slots__ = ("group", "coeffs", "field")

    def __init__(self, group: FiniteGroup, coeffs=None, field=QQ):
        self.group = group
        self.field = field
        self.coeffs = vsum(dict(coeffs or {}))
        for g in self.coeffs:
            if not 0 <= g < group.size:
                raise ValidationError(f"group index {g} out of range")

    @classmethod
    def basis(cls, group, g: int, field=QQ):
        return cls(group, {g: field.one}, field)

    def _like(self, coeffs):
        return GroupAlgebraElement(self.group, coeffs, self.field)

    def __add__(self, other):
        return self._like(vsum(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._like({g: -c for g, c in self.coeffs.items()})

    def scale(self, c):
        return self._like({g: c * v for g, v in self.coeffs.items()})

    def __mul__(self, other):
        """Convolution product."""
        mul = self.group.mul_idx
        return self._like(lincomb(
            self.coeffs, lambda g: {mul(g, h): d for h, d in other.coeffs.items()}
        ))

    def __eq__(self, other):
        return (
            isinstance(other, GroupAlgebraElement)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def counit(self):
        total = self.field.zero
        for c in self.coeffs.values():
            total = total + c
        return total

    def antipode(self):
        return self._like({self.group.inv_idx(g): c for g, c in self.coeffs.items()})

    def items(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{self.group.elements[g]}" for g, c in self.items())

    def to_json_dict(self):
        return {
            "group": self.group.to_json_dict(),
            "coeffs": {self.group.elements[g]: str(c) for g, c in self.items()},
        }

    @classmethod
    def from_json_dict(cls, d, field=QQ):
        try:
            group = FiniteGroup.from_json_dict(d["group"])
            coeffs = {group.index_of(k): field.parse(v) for k, v in d["coeffs"].items()}
        except (KeyError, TypeError) as exc:
            raise ValidationError("group-algebra JSON needs group/coeffs") from exc
        return cls(group, coeffs, field)


def hopf_ops(group: FiniteGroup, g: int, field=QQ):
    """(Delta g, counit g, S g) on a basis element of kG."""
    if not 0 <= g < group.size:
        raise ValidationError(f"group index {g} out of range")
    delta = [(g, g)]
    eps = field.one
    s = GroupAlgebraElement.basis(group, group.inv_idx(g), field)
    return delta, eps, s


def adjoint_action(x: GroupAlgebraElement, h: GroupAlgebraElement) -> GroupAlgebraElement:
    """Right adjoint action ``x <- h = S(h_(1)) x h_(2)``, bilinear."""
    if x.group != h.group:
        raise ValidationError("elements live over different groups")
    conj = x.group.conj
    out = lincomb(x.coeffs, lambda g: lincomb(h.coeffs, lambda k: {conj(g, k): 1}))
    return GroupAlgebraElement(x.group, out, x.field)


class GroupAlgebraDescriptor:
    """Hopf-descriptor view of kG; every group element is a generator.

    Construction checks nothing: the Hopf axioms of kG follow from the group
    table, which :class:`FiniteGroup` verified (``check_hopf_axioms`` remains
    the reference).  Module axioms are proved on the group's generating set.
    """

    def __init__(self, group: FiniteGroup, field=QQ):
        self.group = group
        self.field = field

    @property
    def size(self) -> int:
        return self.group.size

    @property
    def labels(self):
        return self.group.elements

    @property
    def unit(self) -> int:
        return self.group.identity

    @property
    def generators(self):
        return list(range(self.group.size))

    has_antipode = True

    def product(self, i: int, j: int) -> dict:
        return {self.group.mul_idx(i, j): self.field.one}

    def coproduct(self, i: int):
        return [(self.field.one, i, i)]

    def counit(self, i: int):
        return self.field.one

    def antipode(self, i: int) -> dict:
        return {self.group.inv_idx(i): self.field.one}

    def generator_word(self, i: int):
        return [i]

    def check_action_axioms(self, module) -> tuple | None:
        """:meth:`FiniteGroup.action_witness` on the columns of ``module.action``,
        the unit's included; group elements in the witness are labels."""
        one, rows = self.field.one, module.action
        witness = self.group.action_witness(
            [{m: one} for m in range(module.dim)],
            lambda vec, g: lincomb(vec, lambda m: rows[m][g]))
        if witness is None:
            return None
        return (witness[0], *(self.labels[g] for g in witness[1:]))

    def __repr__(self):
        return f"GroupAlgebraDescriptor(order={self.size}, field={self.field!r})"


def ker_eps_yd(group: FiniteGroup, field=QQ) -> YDModule:
    """The Yetter-Drinfel'd module ker(counit) of kG.

    Basis {g - 1 : g != e}; the adjoint action permutes it, and the coaction
    of ``g - 1`` computed from ``a -> a_(1) (x) a_(2) - 1 (x) a`` collapses to
    ``(g - 1) (x) g``.
    """
    hopf = GroupAlgebraDescriptor(group, field)
    e = group.identity
    others = [g for g in range(group.size) if g != e]
    pos = {g: i for i, g in enumerate(others)}
    basis = [f"{group.elements[g]}-1" for g in others]
    one = field.one
    action = []
    for g in others:
        row = []
        for h in range(group.size):
            row.append({pos[group.conj(g, h)]: one})
        action.append(row)
    coaction = [[(pos[g], g, one)] for g in others]
    return YDModule(hopf, basis, action, coaction)


@dataclass(frozen=True)
class LinearizedRack:
    """kX as a kG module-comodule, remembering the grading map p."""

    module: YDModule
    p: tuple


def linearize_augmented(aug: AugmentedRack, field=QQ) -> LinearizedRack:
    """Linearize an augmented rack: the G-graded permutation module kX.

    The right action comes from the action table and the right coaction is
    ``x -> x (x) p(x)``; left structures are trivial.  The module passes
    :func:`rackyd.yd.check_yd` precisely because p is equivariant, i.e. the
    action of g sends the degree-h component into degree ``g^-1 h g``.
    """
    rep = check_augmented(aug)
    if not rep.ok:
        raise ValidationError(f"augmentation identity fails at {rep.witness}")
    return LinearizedRack(grading_module(aug, aug.p, field), tuple(aug.p))


def grading_module(aug: AugmentedRack, grading, field=QQ) -> YDModule:
    """The permutation module kX of `aug`, graded by an arbitrary map X -> G.

    No augmentation identity is required, so besides backing
    :func:`linearize_augmented` (grading p) this is the tool for building
    deliberately broken module-comodules: scramble the grading and the
    Yetter-Drinfel'd condition (and with it the braid relation) fails.
    """
    hopf = GroupAlgebraDescriptor(aug.group, field)
    one = field.one
    grading = list(grading)
    if len(grading) != aug.size:
        raise ValidationError("grading needs one group element per rack element")
    action = [
        [{aug.act(x, g): one} for g in range(aug.group.size)]
        for x in range(aug.size)
    ]
    coaction = [[(x, grading[x], one)] for x in range(aug.size)]
    return YDModule(hopf, aug.elements, action, coaction)


def trivial_coaction_module(group: FiniteGroup, action_perms, labels=None, field=QQ) -> YDModule:
    """A permutation module with the trivial coaction ``x -> x (x) 1``.

    kG is cocommutative, so any right module becomes Yetter-Drinfel'd this
    way; the braiding degenerates to the flip.
    """
    n = len(action_perms[0]) if action_perms else 0
    if labels is None:
        labels = [str(i) for i in range(n)]
    hopf = GroupAlgebraDescriptor(group, field)
    one = field.one
    action = [
        [{action_perms[g][x]: one} for g in range(group.size)]
        for x in range(n)
    ]
    coaction = [[(x, group.identity, one)] for x in range(n)]
    return YDModule(hopf, labels, action, coaction)


def rack_q_map(lin: LinearizedRack):
    """The map ``q(x) = p(x) - 1`` into ker(counit), as sparse H-vectors."""
    hopf = lin.module.hopf
    one = lin.module.field.one
    e = hopf.unit
    out = []
    for x in range(lin.module.dim):
        g = lin.p[x]
        out.append({g: one, e: -one} if g != e else {})
    return out


@dataclass(frozen=True)
class DualReport:
    ok: bool
    p_star_right_colinear: bool
    p_star_bimodule: bool
    witnesses: dict
    note: str = (
        "module halves are checked in the pointwise-multiplication reading "
        "of k[G] and k[X]"
    )


def function_dual_check(aug: AugmentedRack, field=QQ) -> DualReport:
    """Entrywise verification that p*: k[G] -> k[X] respects the structures.

    On delta bases: the right coaction on k[X] is dual to the action map,
    ``delta_y -> sum over x.g = y of delta_x (x) delta_g``; k[G] carries the
    right adjoint coaction ``delta_g -> sum over h of delta_{h g h^-1} (x)
    delta_h``.  Colinearity of the pullback is exactly the augmentation
    identity.  The bimodule half is the pointwise-multiplication statement:
    p* is a unital algebra map for the pointwise products.
    """
    g = aug.group
    nx, ng = aug.size, g.size
    witnesses = {}
    colinear = True
    # LHS: coaction(p* delta_a) has support {(x, h) : p(x . h) = a}
    # RHS: (p* (x) id)(adjoint coaction delta_a) has support {(x, h) : h^-1 p(x) h = a}
    for a in range(ng):
        lhs = {(x, h) for x in range(nx) for h in range(ng) if aug.p[aug.act(x, h)] == a}
        rhs = {(x, h) for x in range(nx) for h in range(ng) if g.conj(aug.p[x], h) == a}
        if lhs != rhs:
            colinear = False
            diff = sorted(lhs.symmetric_difference(rhs))
            witnesses["p_star_right_colinear"] = (a, diff[0])
            break
    bimodule = True
    # pointwise products: delta_a . delta_b = [a == b] delta_a, on either side
    for a in range(ng):
        for b in range(ng):
            lhs = {x for x in range(nx) if aug.p[x] == a and a == b}
            rhs = {x for x in range(nx) if aug.p[x] == a} & {x for x in range(nx) if aug.p[x] == b}
            if lhs != rhs:
                bimodule = False
                witnesses["p_star_bimodule"] = (a, b)
                break
        if not bimodule:
            break
    if bimodule:
        # unit: p* of the constant-one function is the constant-one function
        total = [0] * nx
        for a in range(ng):
            for x in range(nx):
                if aug.p[x] == a:
                    total[x] += 1
        if any(t != 1 for t in total):
            bimodule = False
            witnesses["p_star_bimodule"] = ("unit",)
    return DualReport(colinear and bimodule, colinear, bimodule, witnesses)
