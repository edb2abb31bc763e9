"""Command-line surface.

Every subcommand prints one JSON report to stdout (sorted keys, so identical
inputs give byte-identical output) and a timing line to stderr.  Exit codes:
0 when every mathematical check in the command passed, 1 when a check failed
(the report carries the witness), 2 for unusable input (bad file, bad table,
bad flags).

A well-formed command line is read from :data:`COMMANDS` alone, and only
the module of the one handler it runs is imported; argparse is imported
only to build the full parser, for help and for anything the table reader
refuses.
"""

import atexit
import json
import os
import sys
import time
from importlib import import_module
from types import SimpleNamespace

# _load_json and _write_json are re-exported: the benchmark tracer wraps them
# here, and scripts/make_fixtures.py imports _write_json from here
from .cli_io import _jsonable, _load_json, _write_json  # noqa: F401
from .errors import ValidationError
from .scalars import field_from_name


def _witness_limit(text):
    """``--witness-limit``'s type: a count, so a negative one is refused."""
    try:
        limit = int(text)
    except ValueError:
        limit = None
    if limit is not None and limit >= 0:
        return limit
    from argparse import ArgumentTypeError  # only a refused value needs argparse
    if limit is None:
        raise ArgumentTypeError(f"invalid int value: {text!r}")
    raise ArgumentTypeError(f"must be >= 0, not {limit}")


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


# name: (the module holding its handler, help, argument adders after _common, in
# order); the handler of "check-ybe" is cmd_check_ybe, and so on
COMMANDS = {
    "check-rack": ("cli_racks", "shelf/rack/quandle axioms of a table", (_file,)),
    "make-dihedral": ("cli_racks", "build the dihedral quandle on Z/n", (_out, _n)),
    "make-conjugation": ("cli_racks", "conjugation quandle of a group", (_out, _file)),
    "inner-augmentation": ("cli_racks",
                           "augment a rack over its inner permutation group", (_out, _file)),
    "check-augmented": ("cli_racks", "augmentation identity of a G-set", (_file,)),
    "rack-braiding": ("cli_racks",
                      "tensor braiding c(x,y) = (y, x.p(y)); set-level YBE when braiding "
                      "with itself", (_out, _file, _file2)),
    "linearize": ("cli_modules", "kX as a graded module over kG", (_out, _file)),
    "check-yd": ("cli_modules", "Yetter-Drinfel'd compatibility of a module file", (_file,)),
    "braiding-matrix": ("cli_modules", "matrix of tau on M (x) M", (_out, _mat, _file)),
    "check-ybe": ("cli_modules", "Yang-Baxter equation for a matrix file", (_out, _file)),
    "check-leibniz": ("cli_leibniz", "Leibniz identity of structure constants", (_file,)),
    "lie-quotient": ("cli_leibniz", "quotient by the squares ideal", (_out, _file)),
    "unital-shelf": ("cli_leibniz", "the operation aa' + a'u + [u,v] on k+g", (_out, _file)),
    "first-order-yd": ("cli_leibniz",
                       "module on k+g over the truncated enveloping algebra",
                       (_out, _deg, _file)),
    "hv-rmatrix": ("cli_modules", "16x16 braiding matrix of the Heisenberg-Voros module",
                   (_out, _deg, _mat)),
    "env-build": ("cli_leibniz", "assemble the enveloping tetramodule", (_out, _deg, _file)),
    "env-checks": ("cli_leibniz",
                   "phi bilinearity/coderivation, restriction, and antipode checks",
                   (_deg, _file)),
    "theorem1-bracket": ("cli_leibniz",
                         "braided Leibniz bracket on the invariants of the enveloping "
                         "tetramodule", (_out, _deg, _file)),
    "q-conditions": ("cli_modules",
                     "equivariance and colinearity of a map q into ker(counit)",
                     (_qsrc, _file)),
    "braided-leibniz": ("cli_modules", "build and verify the bracket x <| y = x q(y)",
                        (_out, _qsrc, _file)),
    "dual-check": ("cli_modules",
                   "pullback p*: k[G] -> k[X] respects the (co)module structures", (_file,)),
}


class _Recorder:
    """Stands in for a parser while a command's argument adders run, and
    records what :func:`_read` needs: the positionals in order, each option's
    dest, type, whether it takes a value and its exclusive group, and every
    default."""

    def __init__(self):
        self.positionals = []  # (dest, type, required)
        self.options = {}      # option string -> (dest, type, takes a value, group)
        self.defaults = {}

    def add_argument(self, name, *, type=None, default=None, nargs=None, action=None,
                     help=None, metavar=None, group=None):
        if name.startswith("-"):
            dest = name[2:].replace("-", "_")
            if action == "store_true":
                default = False
            self.options[name] = (dest, type, action is None, group)
        else:
            dest = name
            self.positionals.append((dest, type, nargs != "?"))
        self.defaults[dest] = default

    def add_mutually_exclusive_group(self):
        return _Group(self)


class _Group:
    """A mutually exclusive group: its options are recorded as one group."""

    def __init__(self, recorder):
        self._recorder = recorder

    def add_argument(self, name, **kwargs):
        self._recorder.add_argument(name, group=self, **kwargs)


def _read(argv):
    """The Namespace the full parser builds from ``argv``, read from the
    command's table, or None unless ``argv`` is a command name, its
    positionals in one run, and known options each given at most once, as
    ``--opt VALUE`` or as a bare flag.  No value or positional may start
    with ``-``, and at most one option of an exclusive group may be given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command = argv[0]
    table = _Recorder()
    for add in (_common, *COMMANDS[command][2]):
        add(table)
    values = {"command": command, **table.defaults}
    typed, strings, seen = [], [], set()
    ended = False  # an option has followed the positionals
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            # argparse matches every positional against the first run of
            # them, so one after an option would be an extra argument there
            if ended:
                return None
            strings.append(token)
            continue
        if token not in table.options:
            return None
        dest, type_, takes_value, group = table.options[token]
        if token in seen or (group is not None and group in seen):
            return None
        seen.update((token, group))
        ended = bool(strings)
        if not takes_value:
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        typed.append((dest, type_, value))
    positionals = table.positionals
    if not sum(required for _, _, required in positionals) <= len(strings) <= len(positionals):
        return None
    typed += [(dest, type_, s) for (dest, type_, _), s in zip(positionals, strings)]
    try:
        for dest, type_, text in typed:
            values[dest] = text if type_ is None else type_(text)
    except Exception:  # the full parser reports the value it refuses, or raises as it would
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The full ``rackyd`` parser, with every subcommand."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="rackyd",
        description="exact verification of racks, Yetter-Drinfel'd modules, "
                    "and braided Leibniz brackets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, adders) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        for add in (_common, *adders):
            add(p)
    return parser


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        # help, and anything the table reader refuses: every usage line,
        # help text and error is the full parser's
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    t0 = time.perf_counter()
    try:
        module = import_module(f"rackyd.{COMMANDS[args.command][0]}")
        handler = getattr(module, "cmd_" + args.command.replace("-", "_"))
        field = field_from_name(args.field)
        code, report = handler(args, field)
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
    """Run the command, then end the process as soon as its report is out.

    The report is complete once the registered ``atexit`` handlers have run
    and stdout and stderr are flushed, so the process ends there with
    ``os._exit`` instead of finalizing the interpreter, which would only tear
    down its modules.  A flush that fails leaves the exit to ``sys.exit``,
    whose shutdown reports the failure; an exception that ``run`` raises
    propagates, to a traceback and exit code 1.
    """
    code = run()
    atexit._run_exitfuncs()  # clears them, so none runs twice on the fallback
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
