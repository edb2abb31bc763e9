"""Handlers of the Leibniz-algebra commands: the Leibniz identity, the Lie
quotient, first-order modules and the enveloping tetramodule.

Each ``cmd_<command>`` returns (exit_code, report_dict or None).  Each
imports only the modules it runs, the one with the longest import chain
first: without bytecode, compiling in that order keeps the peak RSS lower.
"""

from .cli_io import _emit, _emit_bracket, _limit_witnesses, _load_json


def cmd_check_leibniz(args, field):
    from . import leibniz
    alg = leibniz.LeibnizAlgebra.from_json_dict(_load_json(args.file), field)
    rep = leibniz.check_leibniz(alg)
    report = {"ok": rep.ok, "witness": rep.witness}
    return (0 if rep.ok else 1), report


def cmd_lie_quotient(args, field):
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


def cmd_unital_shelf(args, field):
    from . import leibniz
    alg = leibniz.LeibnizAlgebra.from_json_dict(_load_json(args.file), field)
    shelf = leibniz.unital_shelf(alg)
    report = {"dim": shelf.dim}
    payload = {"basis": list(shelf.basis), "table": leibniz.bracket_entries(shelf.table)}
    _emit(args, report, "shelf", payload)
    return 0, report


def cmd_first_order_yd(args, field):
    from . import leibniz, jsonio
    alg = leibniz.LeibnizAlgebra.from_json_dict(_load_json(args.file), field)
    module = leibniz.first_order_yd(alg, args.degree)
    # Yetter-Drinfel'd by construction: see the first_order_yd docstring
    report = {"dim": module.dim, "yd_ok": True}
    _emit(args, report, "module", jsonio.yd_to_dict(module))
    return 0, report


def cmd_env_build(args, field):
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
    if args.json:  # the structure maps go only into the artifact, so run them only for it
        # each array is a generator, so the writer takes one row at a time
        basis, lie = range(env.size), range(env.pbw.dim_lie)
        _emit(args, report, None, {
            "labels": list(env.labels),
            "right_action": ([vec_to_json(env.right_act_basis(e, k)) for k in lie]
                             for e in basis),
            "left_action": ([vec_to_json(env.left_act_basis(k, e)) for k in lie] for e in basis),
            "left_coaction": ([[h, e2, str(c)] for h, e2, c in env.left_coaction(e)]
                              for e in basis),
            "right_coaction": ([[e2, h, str(c)] for e2, h, c in env.right_coaction(e)]
                               for e in basis),
        })
    return 0, report


def cmd_env_checks(args, field):
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


def cmd_theorem1_bracket(args, field):
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
