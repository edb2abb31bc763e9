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
"""

from .errors import ValidationError, as_int
from .group_hopf import GroupAlgebraDescriptor
from .linalg import vec_reader, vec_to_json
from .racks import FiniteGroup
from .scalars import QQ
from .yd import YDModule


def hopf_to_dict(hopf) -> dict:
    if isinstance(hopf, GroupAlgebraDescriptor):
        return {"kind": "group_algebra", "group": hopf.group.to_json_dict()}
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
        return GroupAlgebraDescriptor(FiniteGroup.from_json_dict(d["group"]), field)
    if kind == "first_order_enveloping":
        from .envelope import TruncatedPBW
        from .leibniz import LeibnizAlgebra

        lie = LeibnizAlgebra.from_json_dict(d["lie"], field)
        return TruncatedPBW(lie.brackets, as_int(d.get("degree", 2), "degree"), lie.basis, field)
    raise ValidationError(f"unknown hopf kind {kind!r}")


def yd_to_dict(module: YDModule) -> dict:
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


def yd_from_dict(d, field=QQ) -> YDModule:
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
    return {"q": [vec_to_json(v) for v in q]}


def q_from_dict(d, field=QQ):
    try:
        return list(map(vec_reader(field, "q vector"), d["q"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError("q JSON needs a q list") from exc
