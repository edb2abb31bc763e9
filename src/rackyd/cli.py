"""Command-line surface.

Every subcommand prints one JSON report to stdout (sorted keys, so identical
inputs give byte-identical output) and a timing line to stderr.  Exit codes:
0 when every mathematical check in the command passed, 1 when a check failed
(the report carries the witness), 2 for unusable input (bad file, bad table,
bad flags).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import ValidationError
from .scalars import field_from_name


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def _unique_keys(pairs):
    """``json.load``'s object hook: a key given twice in one object is refused,
    where ``json`` would keep the last value without any reader seeing it."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"JSON object key {key!r} given twice")
        obj[key] = value
    return obj


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path, payload):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def _emit(args, report, key, payload, artifact=None):
    """With --json, write ``artifact`` (default: ``payload``) there and name it
    in the report; otherwise put ``payload`` in the report under ``key``."""
    if args.json:
        _write_json(args.json, payload if artifact is None else artifact)
        report["artifact"] = args.json
    elif key is not None:
        report[key] = payload


def _limit_witnesses(witnesses, limit):
    if witnesses is None:
        return None
    if isinstance(witnesses, dict):
        items = sorted(witnesses.items())[:limit]
        return {k: _jsonable(v) for k, v in items}
    return _jsonable(witnesses)


# --paper-layout prints the dense n^2 x n^2 grid; a larger side is refused
PAPER_LAYOUT_MAX_SIDE = 1024


def _emit_matrix(bm, args, report):
    """Shared tail for braiding-matrix and hv-rmatrix; returns (code, report)."""
    from .linalg import integral
    if args.paper_layout:
        side = bm.factor_dim ** 2
        if side > PAPER_LAYOUT_MAX_SIDE:
            raise ValidationError(
                f"--paper-layout would print a {side}x{side} grid, "
                f"which exceeds {PAPER_LAYOUT_MAX_SIDE}x{PAPER_LAYOUT_MAX_SIDE}")
        rows = bm.matrix.as_int_rows()
        width = max((len(str(v)) for row in rows for v in row), default=1)
        for row in rows:
            print(" ".join(str(v).rjust(width) for v in row))
        return 0, None
    payload = bm.to_json_dict()
    if args.integers:
        payload["columns"] = [
            {str(r): integral(c) for r, c in sorted(col.items())} for col in bm.columns
        ]
    _emit(args, report, "braiding", payload)
    return 0, report


def _emit_bracket(args, report, data):
    """Shared tail for the braided-bracket commands: the bracket entries go in
    the report, or with the basis and tau into the --json artifact."""
    from . import leibniz
    entries = leibniz.bracket_entries(data.bracket)
    artifact = None
    if args.json:
        artifact = {"basis": list(data.basis), "bracket": entries, "tau": data.tau.to_json_dict()}
    _emit(args, report, "bracket", entries, artifact)


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


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (exit_code, report_dict or None).  Each
# imports only the modules it runs, the one with the longest import chain
# first: without bytecode, compiling in that order keeps the peak RSS lower.

def _cmd_check_rack(args, field):
    from . import racks
    shelf = racks.FiniteShelf.from_json_dict(_load_json(args.file))
    rep = racks.check_shelf(shelf)
    report = {
        "is_shelf": rep.is_shelf,
        "is_rack": rep.is_rack,
        "is_quandle": rep.is_quandle,
        "witnesses": _limit_witnesses(rep.witnesses, args.witness_limit),
    }
    return (0 if rep.is_rack else 1), report


def _cmd_make_dihedral(args, field):
    from . import racks
    shelf = racks.dihedral_quandle(args.n)
    rep = racks.check_shelf(shelf)
    report = {"size": shelf.size, "is_quandle": rep.is_quandle}
    _emit(args, report, "rack", shelf.to_json_dict())
    return 0, report


def _cmd_make_conjugation(args, field):
    from . import racks
    group = racks.FiniteGroup.from_json_dict(_load_json(args.file))
    shelf = racks.conjugation_rack(group)
    rep = racks.check_shelf(shelf)
    report = {"size": shelf.size, "is_quandle": rep.is_quandle}
    _emit(args, report, "rack", shelf.to_json_dict())
    return 0, report


def _cmd_inner_augmentation(args, field):
    from . import racks
    shelf = racks.FiniteShelf.from_json_dict(_load_json(args.file))
    aug = racks.inner_augmentation(shelf)
    report = {
        "rack_size": aug.size,
        "inner_group_order": aug.group.size,
        "augmented_ok": True,
    }
    _emit(args, report, "augmented_rack", aug.to_json_dict())
    return 0, report


def _cmd_check_augmented(args, field):
    from . import racks
    aug = racks.AugmentedRack.from_json_dict(_load_json(args.file))
    rep = racks.check_augmented(aug)
    report = {"ok": rep.ok, "witness": _jsonable(rep.witness)}
    return (0 if rep.ok else 1), report


def _cmd_rack_braiding(args, field):
    from . import racks
    aug1 = racks.AugmentedRack.from_json_dict(_load_json(args.file))
    aug2 = racks.AugmentedRack.from_json_dict(_load_json(args.file2)) if args.file2 else aug1
    tensor, braid = racks.rack_tensor_and_braiding(aug1, aug2)
    report = {
        "tensor_size": tensor.size,
        "braiding": {f"{x},{y}": list(braid[(x, y)]) for x, y in sorted(braid)},
    }
    code = 0
    if args.file2 is None:
        ybe = racks.rack_braiding_ybe(aug1)
        report["set_level_ybe"] = ybe.ok
        report["witness"] = _jsonable(ybe.witness)
        code = 0 if ybe.ok else 1
    _emit(args, report, None, tensor.to_json_dict())
    return code, report


def _cmd_linearize(args, field):
    from . import jsonio, group_hopf, racks, yd
    aug = racks.AugmentedRack.from_json_dict(_load_json(args.file))
    lin = group_hopf.linearize_augmented(aug, field)
    rep = yd.check_yd(lin.module)
    report = {
        "dim": lin.module.dim,
        "group_order": aug.group.size,
        "yd_ok": rep.ok,
    }
    _emit(args, report, "module", jsonio.yd_to_dict(lin.module))
    return (0 if rep.ok else 1), report


def _cmd_check_yd(args, field):
    from . import jsonio, yd
    module = jsonio.yd_from_dict(_load_json(args.file), field)
    rep = yd.check_yd(module)
    report = {
        "ok": rep.ok,
        "yd_coproduct_form": rep.ok_coproduct_form,
        "yd_antipode_form": rep.ok_antipode_form,
        "witness": _jsonable(rep.witness),
    }
    return (0 if rep.ok else 1), report


def _cmd_braiding_matrix(args, field):
    from . import jsonio, braid
    module = jsonio.yd_from_dict(_load_json(args.file), field)
    bm = braid.braiding(module)
    report = {"factor_dim": bm.factor_dim, "size": bm.factor_dim ** 2}
    return _emit_matrix(bm, args, report)


def _cmd_check_ybe(args, field):
    from . import braid
    from .linalg import vec_to_json
    tau = braid.BraidingMatrix.from_json_dict(_load_json(args.file), field)
    rep = braid.check_ybe(tau)
    report = {"ok": rep.ok}
    if not rep.ok:
        report["witness"] = list(rep.witness)
        if args.json:
            _write_json(args.json, {"columns": [vec_to_json(col) for col in braid.ybe_defect(tau)]})
            report["defect_artifact"] = args.json
    return (0 if rep.ok else 1), report


def _cmd_check_leibniz(args, field):
    from . import leibniz
    alg = leibniz.LeibnizAlgebra.from_json_dict(_load_json(args.file), field)
    rep = leibniz.check_leibniz(alg)
    report = {"ok": rep.ok, "witness": _jsonable(rep.witness)}
    return (0 if rep.ok else 1), report


def _cmd_lie_quotient(args, field):
    from . import leibniz
    from .linalg import Matrix
    alg = leibniz.LeibnizAlgebra.from_json_dict(_load_json(args.file), field)
    lq = leibniz.lie_quotient(alg)
    report = {
        "input_dim": alg.dim,
        "ideal_dim": len(lq.ideal),
        "quotient_dim": lq.dim,
        "quotient_basis": list(lq.quotient.basis),
    }
    quotient = lq.quotient.to_json_dict()
    _emit(args, report, "quotient", quotient, {
        "quotient": quotient,
        "pi": Matrix.from_columns(lq.pi, lq.dim).to_json_dict(),
        "section": Matrix.from_columns(lq.section, alg.dim).to_json_dict(),
        "ideal": [[str(c) for c in row] for row in lq.ideal],
    })
    return 0, report


def _cmd_unital_shelf(args, field):
    from . import leibniz
    alg = leibniz.LeibnizAlgebra.from_json_dict(_load_json(args.file), field)
    shelf = leibniz.unital_shelf(alg)
    report = {"dim": shelf.dim}
    payload = {"basis": list(shelf.basis), "table": leibniz.bracket_entries(shelf.table)}
    _emit(args, report, "shelf", payload)
    return 0, report


def _cmd_first_order_yd(args, field):
    from . import leibniz, jsonio, yd
    alg = leibniz.LeibnizAlgebra.from_json_dict(_load_json(args.file), field)
    module = leibniz.first_order_yd(alg, args.degree)
    rep = yd.check_yd(module)
    report = {"dim": module.dim, "yd_ok": rep.ok}
    _emit(args, report, "module", jsonio.yd_to_dict(module))
    return (0 if rep.ok else 1), report


def _cmd_hv_rmatrix(args, field):
    from . import leibniz, braid
    module = leibniz.first_order_yd(leibniz.heisenberg_voros(field), args.degree)
    bm = braid.braiding(module)
    report = {"factor_basis": list(bm.factor_basis), "size": bm.factor_dim ** 2}
    return _emit_matrix(bm, args, report)


def _cmd_env_build(args, field):
    from . import leibniz, envelope
    from .linalg import vec_to_json
    alg = leibniz.LeibnizAlgebra.from_json_dict(_load_json(args.file), field)
    env = envelope.build_env(leibniz.lie_map_object(alg), args.degree)
    report = {
        "degree": args.degree,
        "pbw_dim": env.pbw.size,
        "carrier_dim": env.size,
        "pbw_basis": list(env.pbw.labels),
    }
    _emit(args, report, None, {
        "labels": list(env.labels),
        "right_action": [[vec_to_json(vec) for vec in row] for row in env.right_act_tab],
        "left_action": [[vec_to_json(vec) for vec in row] for row in env.left_act_tab],
        "left_coaction": [
            [[h, e, str(c)] for h, e, c in row] for row in env.left_coact_tab
        ],
        "right_coaction": [
            [[e, h, str(c)] for e, h, c in row] for row in env.right_coact_tab
        ],
    })
    return 0, report


def _cmd_env_checks(args, field):
    from . import leibniz, envelope
    envelope.require_invariant_degree(args.degree)
    alg = leibniz.LeibnizAlgebra.from_json_dict(_load_json(args.file), field)
    env = envelope.build_env(leibniz.lie_map_object(alg), args.degree)
    pr = envelope.phi_checks(env)
    fr = envelope.f_tilde_checks(env)
    ar = envelope.antipode_checks(env)
    ok = pr.ok and fr.ok and ar.ok
    witnesses = {**pr.witnesses, **fr.witnesses}
    if not ar.ok:
        witnesses["antipode_square"] = ar.witness
    report = {
        "ok": ok,
        "phi_bimodule": {"ok": pr.bimodule_ok, "scope": pr.bimodule_scope},
        "phi_coderivation": {"ok": pr.coderivation_ok, "scope": pr.coderivation_scope},
        "restriction_im_in_ker_eps": {"ok": fr.im_in_ker_eps, "scope": "exact"},
        "restriction_colinear": {"ok": fr.colinear, "scope": "exact"},
        "restriction_yd_morphism": {"ok": fr.yd_morphism, "scope": "exact"},
        "antipode_square": {"ok": ar.ok, "scope": ar.scope},
        "witnesses": _limit_witnesses(witnesses, args.witness_limit),
    }
    return (0 if ok else 1), report


def _cmd_theorem1_bracket(args, field):
    from . import leibniz, envelope, braid, yd
    envelope.require_invariant_degree(args.degree)
    alg = leibniz.LeibnizAlgebra.from_json_dict(_load_json(args.file), field)
    env = envelope.build_env(leibniz.lie_map_object(alg), args.degree)
    data = envelope.enveloping_bracket(env)
    rep = yd.check_braided_leibniz(data)
    matches = all(
        data.bracket[i][j] == alg.brackets[i][j]
        for i in range(alg.dim) for j in range(alg.dim)
    )
    report = {
        "braided_leibniz_ok": rep.ok,
        "recovers_input_brackets": matches,
        "tau_is_flip": list(data.tau.columns) == braid.flip_columns(data.dim, field.one),
    }
    _emit_bracket(args, report, data)
    return (0 if rep.ok else 1), report


def _cmd_q_conditions(args, field):
    from . import jsonio, yd
    module = jsonio.yd_from_dict(_load_json(args.file), field)
    q = _get_q(args, module, field)
    rep = yd.check_q_conditions(module, q)
    report = {
        "ok": rep.ok,
        "equivariance": rep.equivariance,
        "coderivation_condition": rep.coderivation_condition,
        "witnesses": _limit_witnesses(rep.witnesses, args.witness_limit),
    }
    return (0 if rep.ok else 1), report


def _cmd_braided_leibniz(args, field):
    from . import leibniz, jsonio, yd  # noqa: F401  (leibniz is _emit_bracket's)
    module = jsonio.yd_from_dict(_load_json(args.file), field)
    q = _get_q(args, module, field)
    data = yd.braided_leibniz_from_q(module, q)
    rep = yd.check_braided_leibniz(data)
    report = {"ok": rep.ok, "witness": _jsonable(rep.witness)}
    _emit_bracket(args, report, data)
    return (0 if rep.ok else 1), report


def _cmd_dual_check(args, field):
    from . import group_hopf, racks
    aug = racks.AugmentedRack.from_json_dict(_load_json(args.file))
    rep = group_hopf.function_dual_check(aug, field)
    report = {
        "ok": rep.ok,
        "p_star_right_colinear": rep.p_star_right_colinear,
        "witnesses": _limit_witnesses(rep.witnesses, args.witness_limit),
    }
    return (0 if rep.ok else 1), report


def _witness_limit(text):
    """``--witness-limit``'s type: a count, so a negative one is refused."""
    try:
        limit = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if limit < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {limit}")
    return limit


def _common(p):
    p.add_argument("--field", default="rational", metavar="rational|gfp:<p>",
                   help="scalar field (default: rational)")
    p.add_argument("--witness-limit", type=_witness_limit, default=8, metavar="K",
                   help="cap on witnesses included in the report")


def _out(p):
    p.add_argument("--json", metavar="PATH", help="write the main artifact to PATH")


def _deg(p):
    p.add_argument("--degree", type=int, default=2, metavar="D",
                   help="truncation degree for enveloping algebras (default 2)")


def _mat(p):
    p.add_argument("--paper-layout", action="store_true",
                   help="print the matrix as rows of space-separated integers")
    p.add_argument("--integers", action="store_true",
                   help="emit integer entries, failing if any entry is not integral")


def _qsrc(p):
    qmap = p.add_mutually_exclusive_group()
    qmap.add_argument("--q", metavar="QFILE", help="q-map JSON file")
    qmap.add_argument("--rack-q", action="store_true",
                      help="use q(x) = p(x) - 1 read off a grading coaction")


def _file(p):
    p.add_argument("file", help="input JSON file")


def _file2(p):
    p.add_argument("file2", nargs="?", default=None, help="optional second input")


def _n(p):
    p.add_argument("n", type=int)


# name: (handler, help, argument adders after _common, in order)
COMMANDS = {
    "check-rack": (_cmd_check_rack, "shelf/rack/quandle axioms of a table", (_file,)),
    "make-dihedral": (_cmd_make_dihedral, "build the dihedral quandle on Z/n", (_out, _n)),
    "make-conjugation": (_cmd_make_conjugation, "conjugation quandle of a group",
                         (_out, _file)),
    "inner-augmentation": (_cmd_inner_augmentation,
                           "augment a rack over its inner permutation group", (_out, _file)),
    "check-augmented": (_cmd_check_augmented, "augmentation identity of a G-set", (_file,)),
    "rack-braiding": (_cmd_rack_braiding,
                      "tensor braiding c(x,y) = (y, x.p(y)); set-level YBE when braiding "
                      "with itself", (_out, _file, _file2)),
    "linearize": (_cmd_linearize, "kX as a graded module over kG", (_out, _file)),
    "check-yd": (_cmd_check_yd, "Yetter-Drinfel'd compatibility of a module file", (_file,)),
    "braiding-matrix": (_cmd_braiding_matrix, "matrix of tau on M (x) M", (_out, _mat, _file)),
    "check-ybe": (_cmd_check_ybe, "Yang-Baxter equation for a matrix file", (_out, _file)),
    "check-leibniz": (_cmd_check_leibniz, "Leibniz identity of structure constants", (_file,)),
    "lie-quotient": (_cmd_lie_quotient, "quotient by the squares ideal", (_out, _file)),
    "unital-shelf": (_cmd_unital_shelf, "the operation aa' + a'u + [u,v] on k+g",
                     (_out, _file)),
    "first-order-yd": (_cmd_first_order_yd,
                       "module on k+g over the truncated enveloping algebra",
                       (_out, _deg, _file)),
    "hv-rmatrix": (_cmd_hv_rmatrix, "16x16 braiding matrix of the Heisenberg-Voros module",
                   (_out, _deg, _mat)),
    "env-build": (_cmd_env_build, "assemble the enveloping tetramodule", (_out, _deg, _file)),
    "env-checks": (_cmd_env_checks,
                   "phi bilinearity/coderivation, restriction, and antipode checks",
                   (_deg, _file)),
    "theorem1-bracket": (_cmd_theorem1_bracket,
                         "braided Leibniz bracket on the invariants of the enveloping "
                         "tetramodule", (_out, _deg, _file)),
    "q-conditions": (_cmd_q_conditions,
                     "equivariance and colinearity of a map q into ker(counit)",
                     (_qsrc, _file)),
    "braided-leibniz": (_cmd_braided_leibniz, "build and verify the bracket x <| y = x q(y)",
                        (_out, _qsrc, _file)),
    "dual-check": (_cmd_dual_check,
                   "pullback p*: k[G] -> k[X] respects the (co)module structures", (_file,)),
}


class _Refused(Exception):
    """A one-command parser's error, raised where argparse would print and exit."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Refused(message)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The ``rackyd`` parser; with ``command``, one that knows only that
    subcommand and raises :class:`_Refused` instead of printing an error."""
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="rackyd",
        description="exact verification of racks, Yetter-Drinfel'd modules, "
                    "and braided Leibniz brackets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help, adders) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help)
            for add in (_common, *adders):
                add(p)
            p.set_defaults(handler=handler)
    return parser


def _parse(argv):
    """Parse with the parser of the named command alone, which is cheaper to
    build; help, and anything it refuses, goes to the full parser, so every
    usage line, help text and error message is the full parser's."""
    if argv and argv[0] in COMMANDS and not any(a.startswith(("-h", "--h")) for a in argv):
        try:
            return build_parser(argv[0]).parse_args(argv)
        except _Refused:
            pass
    return build_parser().parse_args(argv)


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    t0 = time.perf_counter()
    try:
        field = field_from_name(args.field)
        code, report = args.handler(args, field)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # timing goes to stderr so that stdout stays byte-identical across runs
        elapsed = (time.perf_counter() - t0) * 1000.0
        print(f"elapsed_ms={elapsed:.1f}", file=sys.stderr)
    if report is not None:
        report = {"command": ["rackyd", *argv], **report}
        print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
