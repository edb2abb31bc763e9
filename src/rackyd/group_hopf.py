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
  ``f -> f_(2) (x) S(f_(1)) f_(3)`` exactly when the augmentation identity
  holds (a pullback is always an algebra map for the pointwise products, so
  that half is not checked).

kX has the trivial left action and trivial left coaction throughout; only the
right structures are stored.
"""

from itertools import chain
from typing import NamedTuple

from .errors import ValidationError
from .grouptable import augmentation_failures
from .linalg import lincomb
from .racks import AugmentedRack, FiniteGroup, _require_augmented
from .scalars import QQ
from .yd import YDModule, check_hopf_axioms  # noqa: F401  (perfbench/tracer.py wraps it here)


class GroupAlgebraDescriptor:
    """Hopf-descriptor view of kG.

    ``generators`` is every group element, in order: a module file carries an
    action column for each, and :meth:`check_action_axioms` reads them all.
    ``algebra_generators`` is the group's generating set S, over which
    :func:`rackyd.yd.check_yd` and :func:`rackyd.yd.check_q_conditions`
    decide their conditions.

    Construction checks nothing: the Hopf axioms of kG follow from the group
    table, which :class:`FiniteGroup` verified (``check_hopf_axioms`` remains
    the reference).  Module axioms are proved on S as well.
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

    @property
    def algebra_generators(self):
        return self.group.generators

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
        the unit's included; group elements in the witness are labels.

        When every entry is a basis vector ``{k: one}`` (a permutation module,
        such as kX or ker eps) the images are read as an index table, which
        gives the same witness without building a sparse vector per lookup."""
        one, rows = self.field.one, module.action
        units = [{m: one} for m in range(module.dim)]
        perm = [list(chain.from_iterable(row)) for row in rows]  # the indices in each row
        if all(list(map(units.__getitem__, ks)) == list(row) for ks, row in zip(perm, rows)):
            witness = self.group.action_witness(range(module.dim), perm)
        else:
            witness = self.group.action_witness(
                units, lambda vec, g: lincomb(vec, lambda m: rows[m][g]))
        if witness is None:
            return None
        return (witness[0], *(self.labels[g] for g in witness[1:]))

    def __repr__(self):
        return f"GroupAlgebraDescriptor(order={self.size}, field={self.field!r})"


def _permutation_module(group: FiniteGroup, labels, image, grading, field) -> YDModule:
    """The permutation module on ``labels`` over kG: the k-th group element
    sends basis vector x to ``image[x][k]``, and the coaction is
    ``x -> x (x) grading[x]``."""
    one = field.one
    action = [[{y: one} for y in row] for row in image]
    coaction = [[(x, grading[x], one)] for x in range(len(image))]
    return YDModule(GroupAlgebraDescriptor(group, field), labels, action, coaction)


def ker_eps_yd(group: FiniteGroup, field=QQ) -> YDModule:
    """The Yetter-Drinfel'd module ker(counit) of kG.

    Basis {g - 1 : g != e}; the adjoint action permutes it, and the coaction
    of ``g - 1`` computed from ``a -> a_(1) (x) a_(2) - 1 (x) a`` collapses to
    ``(g - 1) (x) g``.
    """
    others = [g for g in range(group.size) if g != group.identity]
    pos = {g: i for i, g in enumerate(others)}
    labels = [f"{group.elements[g]}-1" for g in others]
    image = [[pos[group.conj(g, h)] for h in range(group.size)] for g in others]
    return _permutation_module(group, labels, image, others, field)


class LinearizedRack(NamedTuple):
    """kX as a kG module-comodule, remembering the grading map p."""

    module: YDModule
    p: tuple


def linearize_augmented(aug: AugmentedRack, field=QQ) -> LinearizedRack:
    """Linearize an augmented rack: the G-graded permutation module kX.

    The right action comes from the action table and the right coaction is
    ``x -> x (x) p(x)``; left structures are trivial.  The module is
    Yetter-Drinfel'd precisely because p is equivariant, i.e. the action of
    g sends the degree-h component into degree ``g^-1 h g``.  With
    ``Delta(g) = g (x) g`` and ``S(g) = g^-1``, both forms of the condition
    that :func:`rackyd.yd.check_yd` decides at (x, g) are one equation of
    basis tensors: ``x.g (x) g p(x.g) = x.g (x) p(x) g`` in the coproduct
    form and ``x.g (x) p(x.g) = x.g (x) g^-1 p(x) g`` in the antipode form.
    Each is the augmentation identity at (x, g), which is proved here before
    the module is built, so the result is Yetter-Drinfel'd over every field
    and ``check_yd`` (kept as the reference in the tests) need not sweep it.

    The ``linearize`` command builds no module: after the same proof,
    :func:`rackyd.jsonio.linearized_to_dict` writes this module's file from
    the tables of ``aug``.
    """
    _require_augmented(aug)
    return LinearizedRack(grading_module(aug, aug.p, field), tuple(aug.p))


def grading_module(aug: AugmentedRack, grading, field=QQ) -> YDModule:
    """The permutation module kX of `aug`, graded by an arbitrary map X -> G.

    No augmentation identity is required, so besides backing
    :func:`linearize_augmented` (grading p) this is the tool for building
    deliberately broken module-comodules: scramble the grading and the
    Yetter-Drinfel'd condition (and with it the braid relation) fails.
    """
    grading = list(grading)
    if len(grading) != aug.size:
        raise ValidationError("grading needs one group element per rack element")
    image = [[aug.act(x, g) for g in range(aug.group.size)] for x in range(aug.size)]
    return _permutation_module(aug.group, aug.elements, image, grading, field)


def trivial_coaction_module(group: FiniteGroup, action_perms, labels=None, field=QQ) -> YDModule:
    """A permutation module with the trivial coaction ``x -> x (x) 1``.

    kG is cocommutative, so any right module becomes Yetter-Drinfel'd this
    way; the braiding degenerates to the flip.
    """
    n = len(action_perms[0]) if action_perms else 0
    if any(len(perm) != n for perm in action_perms):
        raise ValidationError("action permutations must all have the same length")
    if labels is None:
        labels = [str(i) for i in range(n)]
    image = [[perm[x] for perm in action_perms] for x in range(n)]
    return _permutation_module(group, labels, image, [group.identity] * n, field)


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


class DualReport(NamedTuple):
    ok: bool
    p_star_right_colinear: bool
    witnesses: dict


def function_dual_check(aug: AugmentedRack) -> DualReport:
    """Decide whether p*: k[G] -> k[X] is colinear, on delta bases.

    The right coaction on k[X] is dual to the action map, ``delta_y -> sum
    over x.g = y of delta_x (x) delta_g``; k[G] carries the right adjoint
    coaction ``delta_g -> sum over h of delta_{h g h^-1} (x) delta_h``.  So
    the coaction of ``p* delta_a`` has support {(x, h) : p(x.h) = a}, and
    ``(p* (x) id)`` of the coaction of ``delta_a`` has support
    {(x, h) : h^-1 p(x) h = a}.  The two differ at (x, h) for exactly the
    a in {u, v}, where ``u = p(x.h) != v = h^-1 p(x) h``: colinearity is the
    augmentation identity.  The least a whose supports differ and the least
    (x, h) in their difference, the witness ``(a, (x, h))``, are read off the
    failing pairs of :func:`rackyd.grouptable.augmentation_failures`, the
    sweep behind :func:`rackyd.racks.check_augmented`.

    p* is not checked as an algebra map: a pullback of functions is always a
    unital algebra map for the pointwise products.
    """
    g = aug.group
    failures = ((min(aug.p[aug.act(x, h)], g.conj(aug.p[x], h)), (x, h))
                for x, h in augmentation_failures(g.mul, aug.action, aug.p))
    witness = min(failures, default=None)
    witnesses = {} if witness is None else {"p_star_right_colinear": witness}
    return DualReport(witness is None, witness is None, witnesses)
