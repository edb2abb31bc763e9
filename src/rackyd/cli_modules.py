"""Handlers of the Hopf-module commands: linearized racks, Yetter-Drinfel'd
modules, their braidings and the Yang-Baxter check, and brackets from a map q.

Each ``cmd_<command>`` returns (exit_code, report_dict or None).  Each
imports only the modules it runs, the one with the longest import chain
first: without bytecode, compiling in that order keeps the peak RSS lower.
"""

from .cli_io import _emit, _emit_bracket, _limit_witnesses, _load_json, _write_json
from .errors import ValidationError

# --paper-layout prints the dense n^2 x n^2 grid; a larger side is refused
PAPER_LAYOUT_MAX_SIDE = 1024


def _emit_matrix(bm, args, report):
    """Shared tail for braiding-matrix and hv-rmatrix; returns (code, report).
    ``bm`` is a BraidingMatrix or a :class:`rackyd.kxtables.LinearizedBraiding`."""
    if args.paper_layout:
        side = bm.factor_dim ** 2
        if side > PAPER_LAYOUT_MAX_SIDE:
            raise ValidationError(
                f"--paper-layout would print a {side}x{side} grid, "
                f"which exceeds {PAPER_LAYOUT_MAX_SIDE}x{PAPER_LAYOUT_MAX_SIDE}")
        rows = bm.int_rows()
        width = max((len(str(v)) for row in rows for v in row), default=1)
        for row in rows:
            print(" ".join(str(v).rjust(width) for v in row))
        return 0, None
    # an artifact's columns are written as they are built
    _emit(args, report, "braiding", bm.to_json_dict(args.integers, bool(args.json)))
    return 0, report


def _rack_q(module):
    """q(x) = p(x) - 1 recovered from a diagonal group grading."""
    from . import group_hopf
    if not isinstance(module.hopf, group_hopf.GroupAlgebraDescriptor):
        raise ValidationError("--rack-q needs a module over a group algebra")
    p = []
    for x, terms in enumerate(module.coaction):
        if len(terms) != 1 or terms[0][0] != x or terms[0][2] != module.field.one:
            raise ValidationError(
                "--rack-q needs a grading coaction x -> x (x) p(x)"
            )
        p.append(terms[0][1])
    return group_hopf.rack_q_map(group_hopf.LinearizedRack(module, tuple(p)))


def _get_q(args, module, field):
    from . import jsonio
    if args.rack_q:
        return _rack_q(module)
    if args.q:
        return jsonio.q_from_dict(_load_json(args.q), field)
    raise ValidationError("pass --q FILE or --rack-q")


def cmd_linearize(args, field):
    from . import racks, jsonio
    aug = racks.AugmentedRack.from_json_dict(_load_json(args.file))
    racks._require_augmented(aug)
    report = {
        "dim": aug.size,
        "group_order": aug.group.size,
        "yd_ok": True,  # proved by check_augmented in _require_augmented
    }
    _emit(args, report, "module", jsonio.linearized_to_dict(aug, field))
    return 0, report


def cmd_check_yd(args, field):
    from . import kxtables, racks
    d = _load_json(args.file)
    aug = kxtables.linearized_from_dict(d)
    if aug is not None:  # kX: the condition is the augmentation identity
        witness = racks.check_augmented(aug).witness
    else:
        from . import jsonio, yd
        witness = yd.check_yd(jsonio.yd_from_dict(d, field)).witness
    ok = witness is None  # one sweep decides both forms
    report = {"ok": ok, "yd_coproduct_form": ok, "yd_antipode_form": ok, "witness": witness}
    return (0 if ok else 1), report


def cmd_braiding_matrix(args, field):
    from . import kxtables
    d = _load_json(args.file)
    aug = kxtables.linearized_from_dict(d)
    if aug is not None:
        bm = kxtables.LinearizedBraiding(aug)
    else:
        from . import braid, jsonio
        bm = braid.braiding(jsonio.yd_from_dict(d, field))
    del d, aug
    report = {"factor_dim": bm.factor_dim, "size": bm.factor_dim ** 2}
    return _emit_matrix(bm, args, report)


def cmd_check_ybe(args, field):
    from . import braidtables, selfdist
    d = _load_json(args.file)
    op = braidtables.rack_table_from_dict(d)
    # unit rack form: the equation is the self-distributivity of the table
    witness = None if op is None else selfdist.witnesses(op)[0]
    if op is None or (witness is not None and args.json):  # the defect needs tau
        from . import braid
        from .linalg import vec_to_json
        tau = braid.BraidingMatrix.from_json_dict(d, field)
        del d
        witness = braid.check_ybe(tau).witness
    report = {"ok": witness is None}
    if witness is not None:
        report["witness"] = list(witness)
        if args.json:
            _write_json(args.json, {"columns": [vec_to_json(col) for col in braid.ybe_defect(tau)]})
            report["defect_artifact"] = args.json
    return (0 if witness is None else 1), report


def cmd_hv_rmatrix(args, field):
    from . import leibniz, braid
    module = leibniz.first_order_yd(leibniz.heisenberg_voros(field), args.degree)
    bm = braid.braiding(module)
    report = {"factor_basis": list(bm.factor_basis), "size": bm.factor_dim ** 2}
    return _emit_matrix(bm, args, report)


def cmd_q_conditions(args, field):
    from . import kxtables
    d = _load_json(args.file)
    aug = kxtables.linearized_from_dict(d) if args.rack_q else None
    if aug is not None:
        # q = p - 1 on kX: equivariance is the augmentation identity, and
        # colinearity holds for every grading
        from . import racks
        witness = racks.check_augmented(aug).witness
        ok = witness is None
        rep = (ok, ok, True, {} if ok else {"equivariance": witness})
    else:
        from . import jsonio, yd
        module = jsonio.yd_from_dict(d, field)
        rep = yd.check_q_conditions(module, _get_q(args, module, field))
    ok, equivariance, coderivation, witnesses = rep
    report = {
        "ok": ok,
        "equivariance": equivariance,
        "coderivation_condition": coderivation,
        "witnesses": _limit_witnesses(witnesses, args.witness_limit),
    }
    return (0 if ok else 1), report


def cmd_braided_leibniz(args, field):
    from . import leibniz, jsonio, yd  # noqa: F401  (leibniz is _emit_bracket's)
    module = jsonio.yd_from_dict(_load_json(args.file), field)
    q = _get_q(args, module, field)
    data = yd.braided_leibniz_from_q(module, q)
    rep = yd.check_braided_leibniz(data)
    report = {"ok": rep.ok, "witness": rep.witness}
    _emit_bracket(args, report, data)
    return (0 if rep.ok else 1), report


def cmd_dual_check(args, field):
    from . import group_hopf, racks
    aug = racks.AugmentedRack.from_json_dict(_load_json(args.file))
    rep = group_hopf.function_dual_check(aug)
    report = {
        "ok": rep.ok,
        "p_star_right_colinear": rep.p_star_right_colinear,
        "witnesses": _limit_witnesses(rep.witnesses, args.witness_limit),
    }
    return (0 if rep.ok else 1), report
