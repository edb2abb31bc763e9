#!/usr/bin/env python3
"""Digest everything the CLI writes over a fixed sweep of command lines.

Run from anywhere:  python scripts/output_digest.py

It imports rackyd from this checkout's src/ and runs ``rackyd.cli.run``
in-process, over QQ and ``gfp:7``, on:

- every command that reads a file, on every fixture under fixtures/: once
  as is, and once more for each option the command takes, alone: ``--json``
  into a temporary path, ``--degree 3``, ``--q fixtures/q_s3_conj.json``,
  ``--rack-q``, ``--integers`` and ``--paper-layout``; ``rack-braiding``
  also with a second file, ``fixtures/aug_s3_conj.json``;
- ``hv-rmatrix`` as is and with each of its options;
- ``make-dihedral`` for n = 0..7, with and without ``--json``.

It prints the number of command lines for each exit code (a handler that
raises counts under the exception's name) and one sha256 over, for each
command line in order, its argv, its exit code, its stdout, its stderr
without the ``elapsed_ms`` line, and the text of its artifact.  The
temporary directory is written as ``<tmp>`` and the checkout's root as
``<root>`` wherever they appear, so two checkouts that write the same bytes
print the same digest.  To compare two versions of the code, copy this
script into the other checkout and run it there too.
"""

import collections
import hashlib
import io
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rackyd import cli  # noqa: E402

FIXTURES = ROOT / "fixtures"
FIELDS = ("rational", "gfp:7")
# the value each option takes in its variant; a flag takes none
VARIANT_VALUES = {"--degree": ["3"], "--q": [str(FIXTURES / "q_s3_conj.json")]}


def command_lines(artifact):
    """Every argv of the sweep, in a fixed order."""
    fixtures = sorted(str(path) for path in FIXTURES.glob("*.json"))
    for field in FIELDS:
        common = ["--field", field]
        for name, (_, _, args) in cli.COMMANDS.items():
            options = [arg for arg in args if arg.startswith("-")]
            if "file" in args:
                inputs = [[path] for path in fixtures]
                if "file2" in args:
                    inputs += [[path, str(FIXTURES / "aug_s3_conj.json")] for path in fixtures]
            elif name == "make-dihedral":
                inputs = [[str(n)] for n in range(8)]
            else:
                inputs = [[]]
            for positional in inputs:
                yield [name, *common, *positional]
                for option in options:
                    value = [artifact] if option == "--json" else VARIANT_VALUES.get(option, [])
                    yield [name, *common, *positional, option, *value]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        artifact = pathlib.Path(tmp) / "artifact.json"
        digest = hashlib.sha256()
        codes = collections.Counter()
        for argv in command_lines(str(artifact)):
            artifact.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.run(argv)
                except Exception as exc:  # a handler that raises is a result too
                    code = f"{type(exc).__name__}: {exc}"
            codes[code if isinstance(code, int) else code.split(":")[0]] += 1
            stderr = "".join(line for line in err.getvalue().splitlines(keepends=True)
                             if not line.startswith("elapsed_ms="))
            written = artifact.read_text() if artifact.exists() else "<none>"
            for part in (json.dumps(argv), str(code), out.getvalue(), stderr, written):
                for path, name in ((tmp, "<tmp>"), (str(ROOT), "<root>")):
                    part = part.replace(path, name)
                digest.update(part.encode() + b"\0")
    for code, count in sorted(codes.items(), key=lambda item: str(item[0])):
        print(f"exit {code}: {count}")
    print(f"command lines: {sum(codes.values())}")
    print(f"sha256: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
