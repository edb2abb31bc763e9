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
- ``make-dihedral`` for n = 0..7, with and without ``--json``;
- kX of the S4 conjugation quandle, whose files are written into the
  temporary directory first: ``linearize --json`` on its augmented rack and
  ``braided-leibniz --rack-q --json`` on its module;
- ``check-yd``, ``q-conditions --rack-q`` and ``braiding-matrix`` (as is,
  with ``--json``, ``--integers`` and ``--paper-layout``), the first two also
  with ``--witness-limit 0``, over QQ and ``gfp:7``, on permutation modules
  written into the temporary directory (:data:`PERTURBED`): kX of the S3
  conjugation quandle with one edit each, a module over the group of order 1
  and one with an empty basis.  Some are read as index tables, and the
  others take the module path;
- ``check-ybe`` as is, with ``--json`` and with ``--witness-limit 0``, over
  QQ and ``gfp:7``, on braiding files in unit rack form written into the
  temporary directory (:data:`PERTURBED_BRAIDINGS`): the braiding of kX of
  the S3 conjugation quandle as ``braiding-matrix --json`` writes it, and
  with one edit each, the braiding with no points, and one whose table is
  not self-distributive.  Some are read as the table of their rack, and the
  others as a braiding matrix.

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
import copy
import hashlib
import io
import json
import pathlib
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rackyd import cli, racks  # noqa: E402

FIXTURES = ROOT / "fixtures"
FIELDS = ("rational", "gfp:7")
# the value each option takes in its variant; a flag takes none
VARIANT_VALUES = {"--degree": ["3"], "--q": [str(FIXTURES / "q_s3_conj.json")]}


def s4_conjugation_files(tmp):
    """The augmented rack of the S4 conjugation quandle and its module kX,
    written into ``tmp``; their paths."""
    aug, module = pathlib.Path(tmp) / "s4conj.aug.json", pathlib.Path(tmp) / "s4conj.yd.json"
    aug.write_text(json.dumps(racks.conjugation_augmented(racks.FiniteGroup.symmetric(4))
                              .to_json_dict()))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.run(["linearize", str(aug), "--json", str(module)])
    if code != 0:
        raise SystemExit(f"linearize of the S4 conjugation quandle exited {code}")
    return str(aug), str(module)


# name: (path of the slot in fixtures/yd_s3_conj.json, its new value); entry
# (1, 2) of the action is {"5": "1"}, and the coaction of 1 is [[1, 1, "1"]]
PERTURBED = {
    "scrambled-grading": (("coaction", 1, 0, 1), 0),
    "broken-action": (("action", 1, 2), {"4": "1"}),
    "coefficient-1-over-1": (("action", 1, 2), {"5": "1/1"}),
    "coefficient-int-1": (("action", 1, 2), {"5": 1}),
    "coefficient-2": (("action", 1, 2), {"5": "2"}),
    "zero-entry": (("action", 1, 2), {"5": "0"}),
    "out-of-range-key": (("action", 1, 2), {"6": "1"}),
    "non-canonical-key": (("action", 1, 2), {"05": "1"}),
    "coaction-1-over-1": (("coaction", 1, 0, 2), "1/1"),
}


def perturbed_module_files(tmp):
    """The modules of :data:`PERTURBED`, then one over the group of order 1
    and one with an empty basis, written into ``tmp``; their paths."""
    base = json.loads((FIXTURES / "yd_s3_conj.json").read_text())
    docs = {}
    for name, ((*path, last), value) in PERTURBED.items():
        docs[name] = copy.deepcopy(base)
        slot = docs[name]
        for key in path:
            slot = slot[key]
        slot[last] = value
    docs["order-1-group"] = {
        "hopf": {"kind": "group_algebra", "group": {"elements": ["e"], "mul": [[0]]}},
        "basis": ["a", "b"], "action": [[{"0": "1"}], [{"1": "1"}]],
        "coaction": [[[0, 0, "1"]], [[1, 0, "1"]]]}
    docs["empty-basis"] = {**base, "basis": [], "action": [], "coaction": []}
    paths = []
    for name, doc in docs.items():
        paths.append(pathlib.Path(tmp) / f"{name}.yd.json")
        paths[-1].write_text(json.dumps(doc))
    return [str(path) for path in paths]


# name: the edits of the braiding of kX of S3, a file in unit rack form whose
# column 8 is {"31": "1"} (x = 2, y = 1, x <| y = 5); an int key names a
# column and gives its replacement, a str key a key of the file
PERTURBED_BRAIDINGS = {
    "kX-braiding": {},
    "wrong-row": {8: {"32": "1"}},
    "non-canonical-row": {8: {"031": "1"}},
    "out-of-range-row": {8: {"36": "1"}},
    "coefficient-1-over-1": {8: {"31": "1/1"}},
    "coefficient-int-1": {8: {"31": 1}},
    "coefficient-2": {8: {"31": "2"}},
    "coefficient-true": {8: {"31": True}},
    "coefficient-float-1": {8: {"31": 1.0}},
    "two-entries": {8: {"31": "1", "32": "1"}},
    "empty-column": {8: {}},
    "basis-order": {"basis_order": "first-factor-major"},
}
# x <| y = x + y + 1 mod 3: every right translation a bijection, (0, 0, 0) fails
NOT_SELF_DISTRIBUTIVE = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]


def perturbed_braiding_files(tmp):
    """The braidings of :data:`PERTURBED_BRAIDINGS`, then the braiding with
    no points and that of :data:`NOT_SELF_DISTRIBUTIVE`, written into
    ``tmp``; their paths."""
    base = pathlib.Path(tmp) / "s3conj.tau.json"
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.run(["braiding-matrix", str(FIXTURES / "yd_s3_conj.json"), "--json", str(base)])
    if code != 0:
        raise SystemExit(f"braiding-matrix of the S3 conjugation module exited {code}")
    base = json.loads(base.read_text())
    docs = {}
    for name, edits in PERTURBED_BRAIDINGS.items():
        docs[name] = copy.deepcopy(base)
        for key, value in edits.items():
            (docs[name]["columns"] if type(key) is int else docs[name])[key] = value
    docs["no-points"] = {**base, "factor_basis": [], "columns": []}
    n = len(NOT_SELF_DISTRIBUTIVE)
    docs["not-self-distributive"] = {
        "basis_order": "second-factor-major", "factor_basis": ["a", "b", "c"],
        "columns": [{str(y + n * NOT_SELF_DISTRIBUTIVE[x][y]): "1"}
                    for y in range(n) for x in range(n)]}
    paths = []
    for name, doc in docs.items():
        paths.append(pathlib.Path(tmp) / f"{name}.tau.json")
        paths[-1].write_text(json.dumps(doc))
    return [str(path) for path in paths]


def command_lines(artifact, s4_aug, s4_module, perturbed, braidings):
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
    for field in FIELDS:
        yield ["linearize", "--field", field, s4_aug, "--json", artifact]
        yield ["braided-leibniz", "--field", field, s4_module, "--rack-q", "--json", artifact]
    for path in perturbed:
        for field in FIELDS:
            for argv in (["check-yd"], ["q-conditions", "--rack-q"]):
                yield [*argv, "--field", field, path]
                yield [*argv, "--field", field, path, "--witness-limit", "0"]
            for option in ([], ["--json", artifact], ["--integers"], ["--paper-layout"]):
                yield ["braiding-matrix", "--field", field, path, *option]
    for path in braidings:
        for field in FIELDS:
            for option in ([], ["--json", artifact], ["--witness-limit", "0"]):
                yield ["check-ybe", "--field", field, path, *option]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        artifact = pathlib.Path(tmp) / "artifact.json"
        digest = hashlib.sha256()
        codes = collections.Counter()
        lines = command_lines(str(artifact), *s4_conjugation_files(tmp),
                              perturbed_module_files(tmp), perturbed_braiding_files(tmp))
        for argv in lines:
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
