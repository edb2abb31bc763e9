"""JSON in and out for the command handlers: input files, artifacts and the
pieces of a report.

An artifact is written as the exact bytes of ``json.dumps(payload,
indent=2, sort_keys=True)`` and a newline, a row at a time, by
:mod:`rackyd.jsonwrite`, which is imported by the first write: a command
that writes no artifact compiles none of it.

This is not part of :mod:`rackyd.cli`: ``python -m rackyd.cli`` runs the CLI
as ``__main__``, so a handler module that imported from ``rackyd.cli`` would
compile and run it a second time.
"""

import json

from .errors import ValidationError


def _unique_keys(pairs):
    """``json.load``'s object hook: a key given twice in one object is refused,
    where ``json`` would keep the last value without any reader seeing it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"JSON object key {key!r} given twice")
            seen.add(key)
    return obj


def _exact_float(literal):
    """``json.load``'s float hook: a number written with a fraction or an
    exponent is read as its double, as ``json`` reads it, and a scalar is then
    parsed from that double's text; a literal whose value that text does not
    equal exactly (``9007199254740993.0``, ``1e400``) is refused, where
    ``json`` would round it without any reader seeing it.  ``Decimal`` compares
    the two exactly without writing out a power of ten such as ``1e999999999``,
    as ``Fraction`` would."""
    x = float(literal)
    if repr(x) != literal:
        from decimal import Decimal
        if Decimal(literal) != Decimal(repr(x)):  # Decimal("inf") for 1e400
            raise ValidationError(f"JSON number {literal} is not exactly a double; "
                                  "write it as a string")
    return x


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys, parse_float=_exact_float)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _write_json(path, payload):
    from .jsonwrite import dump
    try:
        with open(path, "w", encoding="utf-8") as fh:
            dump(payload, fh)
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
    """The first ``limit`` witnesses of a dict, by name; anything else as is."""
    if isinstance(witnesses, dict):
        return dict(sorted(witnesses.items())[:limit])
    return witnesses


def _emit_bracket(args, report, data):
    """Shared tail for the braided-bracket commands: the bracket entries go in
    the report, or with the basis and tau into the --json artifact."""
    from . import leibniz
    entries = leibniz.bracket_entries(data.bracket)
    artifact = None
    if args.json:
        artifact = {"basis": list(data.basis), "bracket": entries, "tau": data.tau.to_json_dict()}
    _emit(args, report, "bracket", entries, artifact)
