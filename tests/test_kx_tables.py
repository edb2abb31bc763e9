"""kX read as index tables, against the module path.

``check-yd``, ``q-conditions --rack-q`` and ``braiding-matrix`` read a module
file whose action entries are all ``{"<y>": "1"}`` and whose coaction is a
grading ``[[x, h, "1"]]`` as an augmented rack's tables
(:func:`rackyd.kxtables.linearized_from_dict`), and any other file through
:func:`rackyd.jsonio.yd_from_dict`, ``check_yd``, ``check_q_conditions`` and
``braid.braiding``.  ``check-ybe`` reads a braiding file whose every column
is ``{"<r>": "1"}`` in rack form as the table of its rack
(:func:`rackyd.braidtables.rack_table_from_dict`), and any other file as a
``braid.BraidingMatrix``.  Each test runs a command line both ways, the
second with the reader patched to refuse every file, and compares the exit
code, stdout, stderr without its timing line, and the artifact's bytes.
"""

import copy
import io
import json
import pathlib
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rackyd import braidtables, cli, jsonio, kxtables, racks

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
PERMUTATION_FIXTURES = ["yd_dihedral3.json", "yd_dihedral3_broken.json", "yd_kereps_s3.json",
                        "yd_kereps_z2.json", "yd_s3_broken.json", "yd_s3_conj.json",
                        "yd_s3_trivial_coaction.json"]
FIELDS = ["rational", "gfp:7", "gfp:2"]
# the command lines of each module file; ART is the artifact's path
VARIANTS = [
    ["check-yd"], ["check-yd", "--witness-limit", "0"],
    ["q-conditions", "--rack-q"], ["q-conditions", "--rack-q", "--witness-limit", "0"],
    ["braiding-matrix"], ["braiding-matrix", "--json", "ART"], ["braiding-matrix", "--integers"],
    ["braiding-matrix", "--integers", "--json", "ART"], ["braiding-matrix", "--paper-layout"],
]

TRIVIAL_GROUP = {"elements": ["e"], "mul": [[0]]}
S3 = json.loads((FIXTURES / "yd_s3_conj.json").read_text())["hopf"]
EDGE_MODULES = {
    "order-1 group": {"hopf": {"kind": "group_algebra", "group": TRIVIAL_GROUP},
                      "basis": ["a", "b"], "action": [[{"0": "1"}], [{"1": "1"}]],
                      "coaction": [[[0, 0, "1"]], [[1, 0, "1"]]]},
    "empty basis": {"hopf": S3, "basis": [], "action": [], "coaction": []},
}


def _linearized(aug):
    return json.loads(json.dumps(jsonio.linearized_to_dict(aug)))


def _generated():
    symmetric = racks.FiniteGroup.symmetric
    return {"kX of S4 conjugation": _linearized(racks.conjugation_augmented(symmetric(4))),
            "kX of D5": _linearized(racks.inner_augmentation(racks.dihedral_quandle(5)))}


def _without_timing(text):
    return re.sub(r"elapsed_ms=[0-9.]+\n", "", text)


def _outcome(argv, tmp):
    """What ``rackyd argv`` gives: exit code (or the exception it raises),
    stdout, stderr and the artifact's bytes."""
    artifact = pathlib.Path(tmp) / "artifact.json"
    artifact.unlink(missing_ok=True)
    argv = [str(artifact) if a == "ART" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except Exception as exc:  # the module path's exceptions are results too
            code = f"{type(exc).__name__}: {exc}"
    written = artifact.read_bytes() if artifact.exists() else None
    return code, out.getvalue().replace(tmp, "<tmp>"), _without_timing(err.getvalue()), written


def _both_paths(doc, variants, fields, reader=(kxtables, "linearized_from_dict")):
    """For each command line: whether the tables were read, and the outcome
    of each path.  The file is ``doc`` as JSON text (or ``doc`` itself when
    it is a str); ``reader`` names the table reader, as module and name."""
    read = []
    owner, name = reader
    real = getattr(owner, name)

    def counted(d):
        tables = real(d)
        read.append(tables is not None)
        return tables

    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "module.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        for variant in variants:
            for field in fields:
                command, *options = variant
                argv = [command, str(path), "--field", field, *options]
                read.clear()
                with mock.patch.object(owner, name, counted):
                    tables = _outcome(argv, tmp)
                with mock.patch.object(owner, name, lambda d: None):
                    module = _outcome(argv, tmp)
                results.append((argv, any(read), tables, module))
    return results


def test_the_reader_takes_exactly_the_permutation_fixtures():
    taken = sorted(path.name for path in FIXTURES.glob("*.json")
                   if kxtables.linearized_from_dict(json.loads(path.read_text())) is not None)
    assert taken == PERMUTATION_FIXTURES


@pytest.mark.parametrize("aug", [
    racks.conjugation_augmented(racks.FiniteGroup.symmetric(3)),
    racks.inner_augmentation(racks.dihedral_quandle(5)),
    racks.AugmentedRack.from_json_dict(json.loads((FIXTURES / "aug_s3_broken.json").read_text())),
], ids=["S3 conjugation", "D5 inner", "S3 broken grading"])
def test_the_reader_inverts_linearized_to_dict(aug):
    assert kxtables.linearized_from_dict(_linearized(aug)) == aug


@pytest.mark.parametrize("name", [*PERMUTATION_FIXTURES, *EDGE_MODULES, *_generated()])
def test_a_permutation_module_gives_the_bytes_of_the_module_path(name):
    if name in EDGE_MODULES:
        doc = EDGE_MODULES[name]
    elif name.endswith(".json"):
        doc = (FIXTURES / name).read_text()
    else:
        doc = _generated()[name]
    variants = VARIANTS if "S4" not in name else [v for v in VARIANTS if "--paper-layout" not in v]
    for argv, read, tables, module in _both_paths(doc, variants, FIELDS):
        assert read, argv
        assert tables == module, argv


# perturbations of one slot of a module file: ``f(doc, x, g, value)`` with
# ``x`` a row, ``g`` a column and ``value`` drawn from the list beside it
def _set_target(doc, x, g, value):
    doc["action"][x][g] = {str(value % (len(doc["basis"]) + 1)): "1"}


def _set_key(doc, x, g, value):
    (key, c), = doc["action"][x][g].items()
    doc["action"][x][g] = {value.format(key): c}


def _set_coefficient(doc, x, g, value):
    (key, _), = doc["action"][x][g].items()
    doc["action"][x][g] = {key: value}


def _set_entry(doc, x, g, value):
    doc["action"][x][g] = value


def _set_grading(doc, x, g, value):
    doc["coaction"][x][0][1] = value % (len(doc["action"][x]) + 1)


def _set_coaction_term(doc, x, g, value):
    # a tuple changes the term where it is not None; anything else replaces it
    if isinstance(value, tuple):
        term = doc["coaction"][x][0]
        value = [[t if v is None else v for t, v in zip(term, value)]]
    doc["coaction"][x] = value


def _set_label(doc, x, g, value):
    doc["basis"][x] = value


PERTURBATIONS = {
    "target": (_set_target, list(range(8))),
    "key": (_set_key, ["0{}", " {}", "+{}", "{}0", "-{}", "{}_0", "1{}"]),
    "coefficient": (_set_coefficient, ["1/1", 1, "2", "0", "-1", "01", "1.0", "8", None]),
    "entry": (_set_entry, [{}, {"0": "1", "1": "0"}, {"0": "1", "1": "1"}, [], "1", None]),
    "grading": (_set_grading, list(range(8))),
    "coaction term": (_set_coaction_term, [
        (None, None, "1/1"), (None, None, 1), (None, None, "2"), (None, None, "0"),
        (True, None, None), (None, True, None), (None, 1.0, None), (None, -1, None),
        (0, None, None), [[0, 0, "1", 0]], [[0, 0, "1"], [0, 0, "0"]], [], None, "x"]),
    "label": (_set_label, [7, None, ["a"], "x"]),
}
BASES = [*PERMUTATION_FIXTURES, *EDGE_MODULES]


@st.composite
def perturbed_modules(draw):
    """A permutation module with one to three slots perturbed, or with a
    whole row, a key or the Hopf kind changed."""
    name = draw(st.sampled_from(BASES))
    doc = copy.deepcopy(EDGE_MODULES.get(name) or
                        json.loads((FIXTURES / name).read_text()))
    n = len(doc["basis"])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from([*PERTURBATIONS, "row", "extra key", "hopf kind"]))
        if kind == "row":
            doc["action"].append(doc["action"][0] if n else [{"0": "1"}])
        elif kind == "extra key":
            doc["extra"] = 1
        elif kind == "hopf kind":
            doc["hopf"] = {**doc["hopf"], "kind": "first_order_enveloping"}
        elif n:
            apply, values = PERTURBATIONS[kind]
            x, g = draw(st.integers(0, n - 1)), draw(st.integers(0, 5))
            try:
                apply(doc, x, g, draw(st.sampled_from(values)))
            except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                pass  # a slot that an earlier perturbation took away stays as it is
    return doc


@settings(max_examples=150, deadline=None)
@given(perturbed_modules(), st.sampled_from(FIELDS))
@example({**EDGE_MODULES["order-1 group"], "coaction": [[[0, 0, "1"]], [[0, 0, "1"]]]},
         "rational")
def test_a_perturbed_module_gives_the_bytes_of_the_module_path(doc, field):
    for argv, _, tables, module in _both_paths(doc, VARIANTS, [field]):
        assert tables == module, argv


# check-ybe on braiding files: each once as is and once writing its defect
YBE_VARIANTS = [["check-ybe"], ["check-ybe", "--json", "ART"]]
YBE_READER = (braidtables, "rack_table_from_dict")


def _unit_braiding(op):
    """The braiding file of ``tau(e_x (x) e_y) = e_y (x) e_(op[x][y])``."""
    n = len(op)
    return {"basis_order": "second-factor-major", "factor_basis": [f"x{x}" for x in range(n)],
            "columns": [{str(y + n * op[x][y]): "1"} for y in range(n) for x in range(n)]}


def _braiding_artifacts():
    """``braiding-matrix --json`` and ``--integers --json`` of each permutation
    fixture, as text."""
    artifacts = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in PERMUTATION_FIXTURES:
            for options in ([], ["--integers"]):
                out = pathlib.Path(tmp) / "tau.json"
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    code = cli.run(["braiding-matrix", str(FIXTURES / name), *options,
                                    "--json", str(out)])
                assert code == 0, name
                artifacts[" ".join([name, *options])] = out.read_text()
    return artifacts


BRAIDING_ARTIFACTS = _braiding_artifacts()
D3 = racks.dihedral_quandle(3).op
NOT_SELF_DISTRIBUTIVE = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]  # x <| y = x + y + 1 mod 3


def test_the_unit_rack_form_reader_takes_no_fixture_and_every_kx_braiding():
    assert [path.name for path in FIXTURES.glob("*.json")
            if braidtables.rack_table_from_dict(json.loads(path.read_text())) is not None] == []
    for name, text in BRAIDING_ARTIFACTS.items():
        assert braidtables.rack_table_from_dict(json.loads(text)) is not None, name


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.glob("*.json")))
def test_check_ybe_on_a_fixture_gives_the_bytes_of_the_braiding_path(name):
    doc = (FIXTURES / name).read_text()
    for argv, read, tables, module in _both_paths(doc, YBE_VARIANTS, FIELDS, YBE_READER):
        assert not read and tables == module, argv


@pytest.mark.parametrize("name", [*BRAIDING_ARTIFACTS, "D3", "not self-distributive"])
def test_a_unit_rack_form_braiding_gives_the_bytes_of_the_braiding_path(name):
    tables = {"D3": D3, "not self-distributive": NOT_SELF_DISTRIBUTIVE}
    doc = _unit_braiding(tables[name]) if name in tables else BRAIDING_ARTIFACTS[name]
    results = _both_paths(doc, YBE_VARIANTS, FIELDS, YBE_READER)
    for argv, read, tables, module in results:
        assert read and tables == module, argv
    if name == "not self-distributive":
        assert {tables[0] for _, _, tables, _ in results} == {1}


def _set_column(doc, f, value):
    doc["columns"][f] = value


def _set_row(doc, f, value):
    (_, c), = doc["columns"][f].items()
    doc["columns"][f] = {str(value % (len(doc["columns"]) + 1)): c}


def _set_braiding_key(doc, f, value):
    (key, c), = doc["columns"][f].items()
    doc["columns"][f] = {value.format(key): c}


def _set_braiding_coefficient(doc, f, value):
    (key, _), = doc["columns"][f].items()
    doc["columns"][f] = {key: value}


def _add_entry(doc, f, value):
    row = str((f + 1) % len(doc["columns"]))
    doc["columns"][f] = {**doc["columns"][f], row: value}


# perturbations of one column of a unit braiding file: ``f(doc, column, value)``
BRAIDING_PERTURBATIONS = {
    "row": (_set_row, list(range(10))),
    "key": (_set_braiding_key, ["0{}", " {}", "+{}", "{}_0", "-{}"]),
    "coefficient": (_set_braiding_coefficient, ["1/1", "2", True, 1.0, 1, "01", "0", "-1"]),
    "second entry": (_add_entry, ["1", "0", 1]),
    "column": (_set_column, [{}, [], "1", None]),
}


@st.composite
def perturbed_braidings(draw):
    """A unit braiding file in rack form, of a random table or of kX, with up
    to three columns perturbed, or its basis order or labels changed."""
    if draw(st.booleans()):
        doc = json.loads(draw(st.sampled_from(sorted(BRAIDING_ARTIFACTS.values()))))
    else:
        n = draw(st.integers(0, 4))
        row = st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n)
        doc = _unit_braiding(draw(st.lists(row, min_size=n, max_size=n)))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from([*BRAIDING_PERTURBATIONS, "basis order", "label"]))
        if kind == "basis order":
            doc["basis_order"] = draw(st.sampled_from(["first-factor-major", None, 1]))
        elif kind == "label":
            doc["factor_basis"].append("extra")
        elif doc["columns"]:
            apply, values = BRAIDING_PERTURBATIONS[kind]
            f = draw(st.integers(0, len(doc["columns"]) - 1))
            try:
                apply(doc, f, draw(st.sampled_from(values)))
            except (AttributeError, TypeError, ValueError):
                pass  # a column that is no longer one entry stays as it is
    return doc


def _perturbed(op, kind, value, column=1):
    doc = _unit_braiding(op)
    if kind == "basis order":
        doc["basis_order"] = value
    else:
        BRAIDING_PERTURBATIONS[kind][0](doc, column, value)
    return doc


@settings(max_examples=150, deadline=None)
@given(perturbed_braidings(), st.sampled_from(FIELDS))
@example(_perturbed(D3, "row", 4), "rational")
@example(_perturbed(D3, "key", "0{}"), "rational")
@example(_perturbed(D3, "row", 9), "gfp:7")  # row 9 of a 3-point braiding: out of range
@example(_perturbed(D3, "coefficient", "1/1"), "rational")
@example(_perturbed(D3, "coefficient", "2"), "gfp:2")
@example(_perturbed(D3, "coefficient", True), "rational")
@example(_perturbed(D3, "coefficient", 1.0), "rational")
@example(_perturbed(D3, "second entry", "1"), "rational")
@example(_perturbed(D3, "column", {}), "rational")
@example(_perturbed(D3, "basis order", "first-factor-major"), "rational")
@example(_unit_braiding([]), "rational")
@example(_unit_braiding(NOT_SELF_DISTRIBUTIVE), "gfp:7")
def test_a_perturbed_braiding_gives_the_bytes_of_the_braiding_path(doc, field):
    for argv, _, tables, module in _both_paths(doc, YBE_VARIANTS, [field], YBE_READER):
        assert tables == module, argv
