"""The result records are immutable NamedTuples, and importing the CLI stays cheap.

Each record was a frozen dataclass; importing ``dataclasses`` (which pulls in
``inspect``) and generating each record's methods cost every ``rackyd``
process about 20 ms of start-up.  The package loads its submodules on first
use, and each subcommand imports only the modules it runs.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

import rackyd
from rackyd import cli, envelope, group_hopf, leibniz, racks, yd
from rackyd.yd import BraidingMatrix, check_ybe, flip_columns, ybe_defect

RECORDS = [
    (racks, "ShelfReport"), (racks, "AugmentedReport"),
    (yd, "YDReport"), (yd, "YBEReport"), (yd, "QConditionsReport"),
    (yd, "BraidedLeibnizData"), (yd, "BraidedLeibnizReport"),
    (group_hopf, "LinearizedRack"), (group_hopf, "DualReport"),
    (leibniz, "LeibnizReport"), (leibniz, "LieQuotientData"), (leibniz, "BilinearMap"),
    (envelope, "PhiReport"), (envelope, "InvariantPart"), (envelope, "LemmaReport"),
    (envelope, "AntipodeReport"),
]


SRC = pathlib.Path(rackyd.__file__).resolve().parent.parent
FIXTURES = SRC.parent / "fixtures"


def _modules_after(statements):
    """The modules a fresh interpreter has loaded after running ``statements``.

    The child runs with -S: no site hook, so nothing but ``statements`` can
    have imported them.
    """
    script = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n{statements}\n"
              "print(sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def _modules_after_command(*argv):
    """The rackyd submodules loaded by one ``rackyd`` command that exits 0."""
    loaded = _modules_after(f"from rackyd.cli import run; assert run({list(argv)!r}) == 0")
    return {name[len("rackyd."):] for name in loaded if name.startswith("rackyd.")}


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    assert {"dataclasses", "inspect"} & _modules_after("import rackyd.cli") == set()


def test_importing_the_package_imports_no_submodule():
    assert not any(name.startswith("rackyd.") for name in _modules_after("import rackyd"))


def test_check_ybe_imports_no_rack_group_or_envelope_code():
    loaded = _modules_after_command("check-ybe", str(FIXTURES / "braiding_hv_sparse.json"))
    assert loaded & {"yd", "racks", "group_hopf", "jsonio", "leibniz", "envelope"} == set()


def test_check_ybe_decides_a_unit_rack_form_braiding_on_its_table(tmp_path, capsys):
    # the braiding of kX, every column {"<r>": "1"}: no braiding class, linear
    # algebra, rack, group or module code (braidtables.rack_table_from_dict)
    braiding = tmp_path / "tau.json"
    assert cli.run(["braiding-matrix", str(FIXTURES / "yd_s3_conj.json"),
                    "--json", str(braiding)]) == 0
    capsys.readouterr()
    loaded = _modules_after_command("check-ybe", str(braiding))
    assert "braidtables" in loaded
    assert loaded & {"braid", "linalg", "racks", "grouptable", "kxtables", "jsonio", "yd"} == set()


def test_rack_braiding_imports_no_linear_algebra():
    loaded = _modules_after_command("rack-braiding", str(FIXTURES / "aug_s3_conj.json"))
    assert loaded & {"yd", "linalg", "jsonio", "leibniz", "envelope"} == set()


@pytest.mark.parametrize("artifact", [False, True], ids=["report", "json"])
def test_linearize_builds_no_module(artifact, tmp_path):
    # kX is written from the augmented rack's tables: no YDModule, no descriptor
    argv = ["linearize", str(FIXTURES / "aug_s3_conj.json")]
    if artifact:
        argv += ["--json", str(tmp_path / "kX.json")]
    loaded = _modules_after_command(*argv)
    assert loaded & {"yd", "braid", "linalg", "group_hopf", "leibniz", "envelope"} == set()


@pytest.mark.parametrize("argv", [
    ("check-ybe", "braiding_hv_sparse.json"),
    ("linearize", "aug_dihedral3.json"),
], ids=lambda argv: argv[0])
def test_an_integral_input_loads_neither_fractions_nor_decimal(argv):
    # QQ holds integral rationals as ints; only a denominator loads fractions
    command, fixture = argv
    loaded = _modules_after(f"from rackyd.cli import run; "
                            f"assert run({[command, str(FIXTURES / fixture)]!r}) == 0")
    assert {"fractions", "decimal"} & loaded == set()


@pytest.mark.parametrize("fixture", ["yd_s3_conj.json", "yd_kereps_s3.json"])
@pytest.mark.parametrize("argv", [
    ("check-yd",), ("q-conditions", "--rack-q"), ("braiding-matrix", "--json", "ARTIFACT"),
], ids=lambda argv: argv[0])
def test_a_permutation_module_is_decided_on_its_tables(fixture, argv, tmp_path):
    # kX and ker eps are read as index tables (kxtables.linearized_from_dict):
    # no module file layer, module object, descriptor, braiding class or
    # linear algebra
    command, *rest = argv
    loaded = _modules_after_command(command, str(FIXTURES / fixture),
                                    *(str(tmp_path / "out.json") if a == "ARTIFACT" else a
                                      for a in rest))
    assert loaded & {"jsonio", "yd", "group_hopf", "braid", "linalg"} == set()


@pytest.mark.parametrize("argv", [
    ("check-ybe", "braiding_hv_sparse.json"),
    ("check-yd", "yd_s3_conj.json"),
    ("q-conditions", "yd_kereps_s3.json", "--rack-q"),
    ("braiding-matrix", "yd_s3_conj.json", "--json", "ARTIFACT"),
    ("braided-leibniz", "yd_s3_conj.json", "--rack-q", "--json", "ARTIFACT"),
    ("env-checks", "leibniz_sl2.json", "--degree", "2"),
], ids=lambda argv: argv[0])
def test_a_well_formed_command_imports_no_argument_parser(argv, tmp_path):
    command, fixture, *rest = argv
    argv = [command, str(FIXTURES / fixture),
            *(str(tmp_path / "out.json") if a == "ARTIFACT" else a for a in rest)]
    loaded = _modules_after(f"from rackyd.cli import run; assert run({argv!r}) == 0")
    assert {"argparse", "gettext", "locale"} & loaded == set()


def test_the_cli_run_as_main_is_not_imported_again():
    # as ``python -m rackyd.cli`` runs it: a handler module that imported
    # rackyd.cli would compile and run the CLI a second time.  main() ends
    # the process once its atexit handlers have run, so the modules are
    # printed by one
    argv = ["rackyd", "check-ybe", str(FIXTURES / "braiding_hv_sparse.json")]
    loaded = _modules_after("import atexit, runpy\n"
                            "atexit.register(lambda: print(sorted(sys.modules)))\n"
                            f"sys.argv = {argv!r}\n"
                            "runpy.run_module('rackyd.cli', run_name='__main__', alter_sys=True)")
    assert "rackyd.cli_modules" in loaded and "rackyd.cli" not in loaded


@pytest.mark.parametrize("argv", [
    ("check-ybe", "braiding_hv_sparse.json"),
    ("braided-leibniz", "yd_s3_conj.json", "--rack-q"),
    ("env-checks", "leibniz_sl2.json", "--degree", "2"),
], ids=lambda argv: argv[0])
def test_a_well_formed_command_loads_no_future_import(argv):
    # no module of the package postpones its annotations, which cost every
    # process the import of __future__
    command, fixture, *rest = argv
    argv = [command, str(FIXTURES / fixture), *rest]
    assert "__future__" not in _modules_after(f"from rackyd.cli import run; "
                                              f"assert run({argv!r}) == 0")


def test_check_ybe_loads_no_handler_module_but_its_own():
    loaded = _modules_after_command("check-ybe", str(FIXTURES / "braiding_hv_sparse.json"))
    assert {name for name in loaded if name.startswith("cli_")} == {"cli_io", "cli_modules"}


# perfbench/tracer.py reads these modules from sys.modules after one untraced
# in-process pass; braided-leibniz is in the rack_ybe and group_descriptor
# ladders, first-order-yd in envelope_inv, so each must load all eight
TRACED_MODULES = {"cli", "jsonio", "racks", "group_hopf", "yd", "linalg", "leibniz", "envelope"}


@pytest.mark.parametrize("argv", [
    ("braided-leibniz", "yd_s3_conj.json", "--rack-q"),
    ("first-order-yd", "leibniz_heisenberg_voros.json"),
], ids=lambda argv: argv[0])
def test_a_ladder_command_loads_every_module_the_tracer_reads(argv):
    command, fixture, *rest = argv
    assert TRACED_MODULES <= _modules_after_command(command, str(FIXTURES / fixture), *rest)


# the names ``rackyd/__init__.py`` bound when it imported every submodule
PACKAGE_NAMES = """
    ConsistencyError DegreeOverflowError ShapeError ValidationError
    QQ PrimeField field_from_name Matrix kron mat_mul
    AugmentedRack FiniteGroup FiniteShelf check_augmented check_shelf conjugation_augmented
    conjugation_rack dihedral_quandle induced_rack inner_augmentation rack_braiding_ybe
    rack_tensor_and_braiding
    BraidedLeibnizData BraidingMatrix YDModule braided_leibniz_from_q braiding
    check_braided_leibniz check_hopf_axioms check_q_conditions check_yd check_ybe flip_matrix
    is_involutive ybe_defect
    GroupAlgebraDescriptor function_dual_check grading_module ker_eps_yd linearize_augmented
    rack_q_map trivial_coaction_module
    LeibnizAlgebra abelian_lie central_square2 check_leibniz first_order_yd heisenberg_voros
    lie_map_object lie_quotient non_leibniz1 nonabelian_lie2 sl2 squares_ideal unital_shelf
    EnvTetramodule EnvelopingDescriptor LieMapObject TruncatedPBW antipode_checks
    build_env enveloping_bracket f_tilde_checks inv_part phi_checks phi_map
    errors scalars linalg racks yd group_hopf leibniz jsonio envelope __version__
""".split()


def test_every_name_the_package_exported_resolves_and_is_listed():
    namespace = {}
    exec(f"from rackyd import {', '.join(PACKAGE_NAMES)}", namespace)
    listed = dir(rackyd)
    for name in PACKAGE_NAMES:
        assert namespace[name] is getattr(rackyd, name)
        assert name in listed
    assert rackyd.check_hopf_axioms is yd.check_hopf_axioms
    assert rackyd.yd is yd and rackyd.QQ is rackyd.scalars.QQ


@pytest.mark.parametrize("module, name", RECORDS, ids=[name for _, name in RECORDS])
def test_every_field_of_a_record_is_read_only(module, name):
    cls = getattr(module, name)
    assert issubclass(cls, tuple)
    record = cls(*[None] * len(cls._fields))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        assert getattr(record, field) is None


def test_a_failing_ybe_report_is_a_plain_record_and_the_defect_is_built_apart():
    # the flip on 3 basis vectors with e_1 (x) e_0 -> e_0 (x) e_1 + e_1 (x) e_0
    columns = flip_columns(3)
    columns[1] = {3: 1, 1: 1}
    tau = BraidingMatrix(columns, "abc")
    rep = check_ybe(tau)
    assert rep == (False, (1, 0, 0), 27) and not hasattr(rep, "__dict__")
    assert repr(rep) == "YBEReport(ok=False, witness=(1, 0, 0), size=27)"
    defect = ybe_defect(tau)
    assert len(defect) == rep.size and defect[0] == {} and defect[1] != {}
