"""JSON round-trips for module-comodules and q-maps.

File formats (all indices 0-based, all scalars exact strings like "-3/4"):

Yetter-Drinfel'd module::

    {
      "hopf": {"kind": "group_algebra", "group": {"elements": [...], "mul": [[...]]}}
            | {"kind": "first_order_enveloping", "lie": <Leibniz JSON, must be Lie>,
               "degree": 2},
      "basis": ["...", ...],
      "action":   [[{"<m_idx>": "coeff", ...}, ...], ...],   # row per basis vector,
                                                             # entry per generator
      "coaction": [[[m_idx, h_idx, "coeff"], ...], ...]
    }

Generators are the group elements in order for a group algebra, and the
degree-1 monomials in Lie-basis order for a truncated enveloping algebra.

q-map::

    {"q": [{"<h_idx>": "coeff", ...}, ...]}    # one sparse H-vector per basis vector

Each layer is imported by the function that reads or writes it, so a command
compiles only the layers of the files it handles: :func:`linearized_to_dict`
writes kX from the augmented rack's tables and needs none of them.  Such a
file is read back as those tables by
:func:`rackyd.kxtables.linearized_from_dict`.
"""

from .errors import ValidationError, as_int
from .scalars import QQ


def _group_algebra_to_dict(group) -> dict:
    return {"kind": "group_algebra", "group": group.to_json_dict()}


def hopf_to_dict(hopf) -> dict:
    from .group_hopf import GroupAlgebraDescriptor

    if isinstance(hopf, GroupAlgebraDescriptor):
        return _group_algebra_to_dict(hopf.group)
    from .envelope import TruncatedPBW

    if isinstance(hopf, TruncatedPBW):
        from .leibniz import LeibnizAlgebra

        lie = LeibnizAlgebra(hopf.lie_labels, hopf.brackets, hopf.field)
        return {
            "kind": "first_order_enveloping",
            "lie": lie.to_json_dict(),
            "degree": hopf.degree,
        }
    raise ValidationError(f"cannot serialize descriptor {hopf!r}")


def hopf_from_dict(d, field=QQ):
    try:
        kind = d["kind"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("hopf JSON needs a kind") from exc
    if kind == "group_algebra":
        from .group_hopf import GroupAlgebraDescriptor
        from .racks import FiniteGroup

        return GroupAlgebraDescriptor(FiniteGroup.from_json_dict(d["group"]), field)
    if kind == "first_order_enveloping":
        from .envelope import TruncatedPBW
        from .leibniz import LeibnizAlgebra

        lie = LeibnizAlgebra.from_json_dict(d["lie"], field)
        return TruncatedPBW(lie.brackets, as_int(d.get("degree", 2), "degree"), lie.basis, field)
    raise ValidationError(f"unknown hopf kind {kind!r}")


def yd_to_dict(module) -> dict:
    """The file of a :class:`rackyd.yd.YDModule`."""
    from .linalg import vec_to_json

    return {
        "hopf": hopf_to_dict(module.hopf),
        "basis": list(module.basis),
        "action": [[vec_to_json(vec) for vec in row] for row in module.action],
        "coaction": [
            [[m, h, str(c)] for m, h, c in terms] for terms in module.coaction
        ],
    }


def _coaction_term(term, field):
    if not isinstance(term, (list, tuple)) or len(term) != 3:
        raise ValidationError(f"coaction term {term!r} must be [m_idx, h_idx, coeff]")
    m, h, c = term
    return (as_int(m, "coaction module index"), as_int(h, "coaction descriptor index"),
            field.parse(c))


def linearized_to_dict(aug, field=QQ) -> dict:
    """The file of kX, ``yd_to_dict(linearize_augmented(aug, field).module)``,
    written from the tables of the augmented rack ``aug`` without building the
    module: x . g is ``{aug.action[x][g]: 1}`` and the coaction is
    ``x -> x (x) p(x)``.  One unit vector is written per point, shared by
    every entry that names it.

    Every check :class:`rackyd.yd.YDModule` would make on construction is
    already decided:

    - shapes and ranges: ``AugmentedRack`` read the action as an |X| x |G|
      table of indices into X (``_index_table``) and checked that p maps X
      into G, so there is a row per point, an entry per group element (the
      generators of kG), every target in X, and every coaction term in range;
    - counitality: the coaction of x is the single term x (x) p(x), and
      ``counit(p(x)) = 1``, so ``(id (x) counit)`` sends it back to x;
    - the module axioms: on a permutation module
      :meth:`rackyd.group_hopf.GroupAlgebraDescriptor.check_action_axioms`
      runs :meth:`rackyd.racks.FiniteGroup.action_witness` on the index
      table, the same call on the same table that ``AugmentedRack`` made.

    That the module is Yetter-Drinfel'd is the augmentation identity (see
    :func:`rackyd.group_hopf.linearize_augmented`), which the caller checks.
    """
    one = str(field.one)
    units = [{str(y): one} for y in range(aug.size)]
    return {
        "hopf": _group_algebra_to_dict(aug.group),
        "basis": list(aug.elements),
        "action": [list(map(units.__getitem__, row)) for row in aug.action],
        "coaction": [[[x, h, one]] for x, h in enumerate(aug.p)],
    }


def yd_from_dict(d, field=QQ):
    """A :class:`rackyd.yd.YDModule` read from its file."""
    from .linalg import vec_reader
    from .yd import YDModule

    try:
        hopf = hopf_from_dict(d["hopf"], field)
        basis = d["basis"]
        if not isinstance(basis, list):
            raise ValidationError("module basis must be a list of labels")
        read = vec_reader(field, "action vector")
        action = [list(map(read, row)) for row in d["action"]]
        coaction = [[_coaction_term(t, field) for t in terms] for terms in d["coaction"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError("module JSON needs hopf/basis/action/coaction") from exc
    return YDModule(hopf, basis, action, coaction)


def q_to_dict(q) -> dict:
    from .linalg import vec_to_json

    return {"q": [vec_to_json(v) for v in q]}


def q_from_dict(d, field=QQ):
    from .linalg import vec_reader

    try:
        return list(map(vec_reader(field, "q vector"), d["q"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError("q JSON needs a q list") from exc
