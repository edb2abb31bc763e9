"""Command-line surface.

Every subcommand prints one JSON report to stdout (sorted keys, so identical
inputs give byte-identical output) and a timing line to stderr.  A handler
builds its report from JSON values alone, as it builds its ``--json``
artifact, so the report is encoded once, by ``json.dumps``.  Exit codes:
0 when every mathematical check in the command passed, 1 when a check failed
(the report carries the witness), 2 for unusable input (bad file, bad table,
bad flags).

A well-formed command line is read from :data:`ARGS` and :data:`COMMANDS`,
the one declaration of every argument, and only the module of the one handler
it runs is imported; argparse is imported only to build the full parser from
the same tables, for help and for anything the table reader refuses.
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
from .cli_io import _load_json, _write_json  # noqa: F401
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


# every argument once, as the keywords build_parser passes to add_argument;
# an option's dest is its name without the dashes, "-" read as "_"
ARGS = {
    "--field": dict(default="rational", metavar="rational|gfp:<p>",
                    help="scalar field (default: rational)"),
    "--witness-limit": dict(type=_witness_limit, default=8, metavar="K",
                            help="cap on witnesses included in the report"),
    "--json": dict(metavar="PATH", help="write the main artifact to PATH"),
    "--degree": dict(type=int, default=2, metavar="D",
                     help="truncation degree for enveloping algebras (default 2)"),
    "--paper-layout": dict(action="store_true",
                           help="print the matrix as rows of space-separated integers"),
    "--integers": dict(action="store_true",
                       help="emit integer entries, failing if any entry is not integral"),
    "--q": dict(metavar="QFILE", help="q-map JSON file"),
    "--rack-q": dict(action="store_true",
                     help="use q(x) = p(x) - 1 read off a grading coaction"),
    "file": dict(help="input JSON file"),
    "file2": dict(nargs="?", default=None, help="optional second input"),
    "n": dict(type=int),
}
COMMON = ("--field", "--witness-limit")  # every command's first arguments
EXCLUSIVE = ("--q", "--rack-q")  # at most one of them may be given

# name: (the module holding its handler, help, argument names after COMMON, in
# order); the handler of "check-ybe" is cmd_check_ybe, and so on
COMMANDS = {
    "check-rack": ("cli_racks", "shelf/rack/quandle axioms of a table", ("file",)),
    "make-dihedral": ("cli_racks", "build the dihedral quandle on Z/n", ("--json", "n")),
    "make-conjugation": ("cli_racks", "conjugation quandle of a group", ("--json", "file")),
    "inner-augmentation": ("cli_racks", "augment a rack over its inner permutation group",
                           ("--json", "file")),
    "check-augmented": ("cli_racks", "augmentation identity of a G-set", ("file",)),
    "rack-braiding": ("cli_racks",
                      "tensor braiding c(x,y) = (y, x.p(y)); set-level YBE when braiding "
                      "with itself", ("--json", "file", "file2")),
    "linearize": ("cli_modules", "kX as a graded module over kG", ("--json", "file")),
    "check-yd": ("cli_modules", "Yetter-Drinfel'd compatibility of a module file", ("file",)),
    "braiding-matrix": ("cli_modules", "matrix of tau on M (x) M",
                        ("--json", "--paper-layout", "--integers", "file")),
    "check-ybe": ("cli_modules", "Yang-Baxter equation for a matrix file", ("--json", "file")),
    "check-leibniz": ("cli_leibniz", "Leibniz identity of structure constants", ("file",)),
    "lie-quotient": ("cli_leibniz", "quotient by the squares ideal", ("--json", "file")),
    "unital-shelf": ("cli_leibniz", "the operation aa' + a'u + [u,v] on k+g",
                     ("--json", "file")),
    "first-order-yd": ("cli_leibniz", "module on k+g over the truncated enveloping algebra",
                       ("--json", "--degree", "file")),
    "hv-rmatrix": ("cli_modules", "16x16 braiding matrix of the Heisenberg-Voros module",
                   ("--json", "--degree", "--paper-layout", "--integers")),
    "env-build": ("cli_leibniz", "assemble the enveloping tetramodule",
                  ("--json", "--degree", "file")),
    "env-checks": ("cli_leibniz",
                   "phi bilinearity/coderivation, restriction, and antipode checks",
                   ("--degree", "file")),
    "theorem1-bracket": ("cli_leibniz",
                         "braided Leibniz bracket on the invariants of the enveloping "
                         "tetramodule", ("--json", "--degree", "file")),
    "q-conditions": ("cli_modules",
                     "equivariance and colinearity of a map q into ker(counit)",
                     ("--q", "--rack-q", "file")),
    "braided-leibniz": ("cli_modules", "build and verify the bracket x <| y = x q(y)",
                        ("--json", "--q", "--rack-q", "file")),
    "dual-check": ("cli_modules",
                   "pullback p*: k[G] -> k[X] respects the (co)module structures", ("file",)),
}


def _read(argv):
    """The Namespace the full parser builds from ``argv``, read from
    :data:`ARGS` and :data:`COMMANDS`, or None unless ``argv`` is a command
    name, its positionals in one run, and known options each given at most
    once, as ``--opt VALUE`` or as a bare flag.  No value or positional may
    start with ``-``, and at most one option of :data:`EXCLUSIVE` may be
    given."""
    if not argv or argv[0] not in COMMANDS:
        return None
    names = (*COMMON, *COMMANDS[argv[0]][2])
    dest = {name: name.lstrip("-").replace("-", "_") for name in names}
    flags = {name for name in names if ARGS[name].get("action") == "store_true"}
    values = {"command": argv[0]}
    for name in names:
        values[dest[name]] = False if name in flags else ARGS[name].get("default")
    positionals = [name for name in names if not name.startswith("-")]
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
        key = EXCLUSIVE if token in EXCLUSIVE else token
        if token not in dest or key in seen:
            return None
        seen.add(key)
        ended = bool(strings)
        if token in flags:
            values[dest[token]] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        typed.append((token, value))
    required = sum(ARGS[name].get("nargs") != "?" for name in positionals)
    if not required <= len(strings) <= len(positionals):
        return None
    typed += zip(positionals, strings)
    try:
        for name, text in typed:
            type_ = ARGS[name].get("type")
            values[dest[name]] = text if type_ is None else type_(text)
    except Exception:  # the full parser reports the value it refuses, or raises as it would
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The full ``rackyd`` parser, with every subcommand."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def _print_message(self, message, file=None):
            # argparse drops an OSError of this write, which would leave help
            # that stdout did not take with exit code 0; here it is raised
            file = file or sys.stderr
            if message and file is not None:
                file.write(message)
                file.flush()

    parser = Parser(
        prog="rackyd",
        description="exact verification of racks, Yetter-Drinfel'd modules, "
                    "and braided Leibniz brackets",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help, names) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        group = None
        for arg in (*COMMON, *names):
            if arg in EXCLUSIVE and group is None:
                group = p.add_mutually_exclusive_group()
            (group if arg in EXCLUSIVE else p).add_argument(arg, **ARGS[arg])
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
        except OSError as exc:
            return _unwritten(exc, "the help")
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
        try:
            if sys.stdout is None:  # started with its descriptor closed
                raise OSError("stdout is closed")
            print(json.dumps(report, indent=2, sort_keys=True))
        except OSError as exc:
            return _unwritten(exc)
    return code


def _unwritten(exc, what="the report") -> int:
    """Exit code 2, said on stderr, for a report (or help) that stdout did not take."""
    try:
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
    except (OSError, ValueError):
        pass  # stderr is gone as well
    return 2


def main() -> None:
    """Run the command, then end the process as soon as its report is out.

    The report is complete once the registered ``atexit`` handlers have run
    and stdout and stderr are flushed, so the process ends there with
    ``os._exit`` instead of finalizing the interpreter, which would only tear
    down its modules.  A report that stdout does not take, at its ``print``
    in ``run`` or at the flush here, ends the process with exit code 2 and
    one ``error:`` line.  An exit code 2 has said why already, so a flush
    that fails after it adds no second line, and ``os._exit`` drops whatever
    the failed flush left buffered instead of flushing it again.  An
    exception that ``run`` raises propagates, to a traceback and exit code 1.
    """
    code = run()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            if stream is not None:
                stream.flush()
        except (OSError, ValueError) as exc:
            if stream is sys.stdout and code != 2:
                code = _unwritten(exc)
    os._exit(code)


if __name__ == "__main__":
    main()
