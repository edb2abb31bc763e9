import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import rackyd
from rackyd import braid, cli, cli_modules, jsonio, racks, yd
from rackyd.cli import build_parser, run
from rackyd.errors import ValidationError
from rackyd.linalg import Matrix, kron, mat_mul
from rackyd.yd import BraidingMatrix, check_yd, flip_matrix


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out


def report(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


def test_check_rack_quandle(capsys, fixtures_dir):
    path = str(fixtures_dir / "rack_dihedral3.json")
    code, rep = report(capsys, "check-rack", path)
    assert code == 0
    assert rep["is_quandle"] is True
    assert rep["command"] == ["rackyd", "check-rack", path]


def test_check_rack_failure_gives_witness(capsys, fixtures_dir):
    code, rep = report(capsys, "check-rack", str(fixtures_dir / "not_a_shelf.json"))
    assert code == 1
    assert rep["is_shelf"] is False
    assert rep["witnesses"]["self_distributivity"] == [0, 0, 1]


def test_shelf_but_not_rack_exits_one(capsys, fixtures_dir):
    code, rep = report(capsys, "check-rack", str(fixtures_dir / "shelf_not_rack.json"))
    assert code == 1
    assert rep["is_shelf"] is True and rep["is_rack"] is False


def test_missing_file_exits_two(capsys):
    assert run(["check-rack", "/nonexistent/never.json"]) == 2


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["check-rack", str(bad)]) == 2


def test_structurally_bad_table_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad_rack.json"
    bad.write_text(json.dumps({"elements": ["a", "b"], "op": [[0, 5], [0, 0]]}))
    assert run(["check-rack", str(bad)]) == 2


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2


def test_check_yd_broken_exits_one(capsys, fixtures_dir):
    code, rep = report(capsys, "check-yd", str(fixtures_dir / "yd_s3_broken.json"))
    assert code == 1
    assert rep["ok"] is False
    assert rep["witness"] is not None


def test_check_yd_good(capsys, fixtures_dir):
    code, rep = report(capsys, "check-yd", str(fixtures_dir / "yd_kereps_s3.json"))
    assert code == 0
    assert rep["yd_coproduct_form"] is True and rep["yd_antipode_form"] is True


def test_check_augmented_exit_codes(capsys, fixtures_dir):
    assert run(["check-augmented", str(fixtures_dir / "aug_s3_conj.json")]) == 0
    capsys.readouterr()
    assert run(["check-augmented", str(fixtures_dir / "aug_s3_broken.json")]) == 1


def test_deterministic_output(capsys, fixtures_dir):
    _, first = invoke(capsys, "check-yd", str(fixtures_dir / "yd_s3_conj.json"))
    _, second = invoke(capsys, "check-yd", str(fixtures_dir / "yd_s3_conj.json"))
    assert first == second
    _, g1 = invoke(capsys, "hv-rmatrix", "--paper-layout")
    _, g2 = invoke(capsys, "hv-rmatrix", "--paper-layout")
    assert g1 == g2


def test_hv_rmatrix_json_roundtrip(tmp_path, capsys, fixtures_dir):
    out = tmp_path / "braiding.json"
    code, rep = report(capsys, "hv-rmatrix", "--json", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    bm = BraidingMatrix.from_json_dict(payload)
    assert bm.matrix.rows == 16
    assert bm.convention == "second-factor-major"
    # matches the bundled sparse fixture after re-serialization, and the
    # bundled dense fixture of the same braiding loads to the same columns
    sparse, dense = (json.loads((fixtures_dir / name).read_text())
                     for name in ("braiding_hv_sparse.json", "matrix_hv_braiding.json"))
    assert payload == sparse
    assert BraidingMatrix.from_json_dict(dense).columns == bm.columns


def test_integers_flag_rejects_fractions(capsys, fixtures_dir):
    code = run(["braiding-matrix", str(fixtures_dir / "yd_noninteger.json"), "--integers"])
    assert code == 2
    capsys.readouterr()
    code, rep = report(
        capsys, "braiding-matrix", str(fixtures_dir / "yd_hv_first_order.json"), "--integers"
    )
    assert code == 0
    assert rep["braiding"]["columns"][0] == {"0": 1}


def test_check_ybe_on_braiding_file(capsys, fixtures_dir):
    assert run(["check-ybe", str(fixtures_dir / "matrix_hv_braiding.json")]) == 0


def _edited_flip(n):
    # the flip with e_1 (x) e_0 -> e_0 (x) e_1 + e_1 (x) e_0; YBE first fails at (1, 0, 0)
    columns = list(flip_matrix(n).columns())
    columns[1] = {n: Fraction(1), 1: Fraction(1)}
    return Matrix.from_columns(columns, n * n)


def _sparse_columns(payload):
    return tuple({int(r): Fraction(c) for r, c in col.items()} for col in payload["columns"])


def test_failing_check_ybe_builds_the_defect_only_for_json(tmp_path, capsys, monkeypatch,
                                                           fixtures_dir):
    tau = _edited_flip(3)
    path = _write(tmp_path, "tau.json", tau.to_json_dict())
    built, reads = [], []
    real = Matrix.from_columns
    real_defect = braid.ybe_defect

    def counted(cls, columns, rows):
        built.append((rows, len(columns)))
        return real(columns, rows)

    def read_defect(t):
        reads.append(t.factor_dim ** 3)
        return real_defect(t)

    monkeypatch.setattr(Matrix, "from_columns", classmethod(counted))
    monkeypatch.setattr(braid, "ybe_defect", read_defect)
    code, rep = report(capsys, "check-ybe", path)
    assert (code, rep["witness"], reads) == (1, [1, 0, 0], [])
    out = tmp_path / "defect.json"
    code, rep = report(capsys, "check-ybe", path, "--json", str(out))
    assert (code, rep["witness"], reads) == (1, [1, 0, 0], [27])
    assert built == []  # the defect is never dense
    unused = tmp_path / "unused.json"
    code, _ = report(capsys, "check-ybe", str(fixtures_dir / "braiding_hv_sparse.json"),
                     "--json", str(unused))
    assert (code, reads, unused.exists()) == (0, [27], False)
    eye = Matrix.identity(3)
    t12, t23 = kron(tau, eye), kron(eye, tau)
    dense = mat_mul(mat_mul(t12, t23), t12) - mat_mul(mat_mul(t23, t12), t23)
    assert _sparse_columns(json.loads(out.read_text())) == dense.columns()


def test_failing_check_ybe_fits_in_one_gib(tmp_path):
    # its dense defect would have (24**3)**2 = 191 M entries
    path = _write(tmp_path, "tau24.json", _edited_flip(24).to_json_dict())
    out = tmp_path / "defect24.json"
    src = str(pathlib.Path(rackyd.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from rackyd.cli import main; main()")
    for extra in ([], ["--json", str(out)]):
        proc = subprocess.run([sys.executable, "-c", script, "check-ybe", path, *extra],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["witness"] == [1, 0, 0]
        assert "Traceback" not in proc.stderr
    columns = _sparse_columns(json.loads(out.read_text()))
    assert len(columns) == 24 ** 3
    assert columns[0] == {} and columns[1] != {}  # (0, 0, 0) holds, (1, 0, 0) fails


def test_check_ybe_on_plain_matrix(tmp_path, capsys):
    flip = {
        "rows": 4, "cols": 4,
        "entries": [["1", "0", "0", "0"], ["0", "0", "1", "0"],
                    ["0", "1", "0", "0"], ["0", "0", "0", "1"]],
    }
    path = tmp_path / "flip.json"
    path.write_text(json.dumps(flip))
    assert run(["check-ybe", str(path)]) == 0
    capsys.readouterr()
    bad = {"rows": 3, "cols": 3, "entries": [["1", "0", "0"]] * 3}
    path2 = tmp_path / "bad.json"
    path2.write_text(json.dumps(bad))
    assert run(["check-ybe", str(path2)]) == 2  # 3 is not a perfect square
    flat = {"rows": 1, "cols": 1, "entries": 5}
    assert run(["check-ybe", _write(tmp_path, "flat.json", flat)]) == 2


def test_linearize_artifact_reloads(tmp_path, capsys, fixtures_dir):
    out = tmp_path / "module.json"
    code, rep = report(
        capsys, "linearize", str(fixtures_dir / "aug_dihedral4.json"), "--json", str(out)
    )
    assert code == 0 and rep["artifact"] == str(out)
    module = jsonio.yd_from_dict(json.loads(out.read_text()))
    assert check_yd(module).ok


def test_q_conditions_and_braided_leibniz(capsys, fixtures_dir):
    assert run(["q-conditions", str(fixtures_dir / "yd_s3_conj.json"), "--rack-q"]) == 0
    capsys.readouterr()
    assert run([
        "braided-leibniz", str(fixtures_dir / "yd_s3_conj.json"),
        "--q", str(fixtures_dir / "q_s3_conj.json"),
    ]) == 0
    capsys.readouterr()
    assert run(["q-conditions", str(fixtures_dir / "yd_s3_conj.json")]) == 2  # needs a q


def test_env_checks_and_bracket(capsys, fixtures_dir):
    code, rep = report(capsys, "env-checks", str(fixtures_dir / "leibniz_sl2.json"))
    assert code == 0
    assert rep["phi_bimodule"]["scope"] == "first-factor degree <= 0"
    assert rep["phi_coderivation"]["scope"] == "first-factor degree <= 1"
    code, rep = report(
        capsys, "theorem1-bracket", str(fixtures_dir / "leibniz_heisenberg_voros.json")
    )
    assert code == 0
    assert rep["recovers_input_brackets"] is True
    assert rep["tau_is_flip"] is True


def test_env_checks_higher_degree(capsys, fixtures_dir):
    code, rep = report(
        capsys, "env-checks", str(fixtures_dir / "leibniz_nonabelian2.json"),
        "--degree", "3",
    )
    assert code == 0
    assert rep["phi_bimodule"]["scope"] == "first-factor degree <= 1"


def test_env_checks_names_the_antipode_witness(monkeypatch, capsys, fixtures_dir):
    from rackyd import envelope
    build = envelope.build_env

    def build_with_edited_f(obj, degree):
        env = build(obj, degree)
        f = list(env.obj.f)
        f[2] = {0: Fraction(1), 2: Fraction(1)}  # f(h) = e + h breaks equivariance
        env.obj.f = tuple(f)
        return env

    monkeypatch.setattr(envelope, "build_env", build_with_edited_f)
    code, rep = report(capsys, "env-checks", str(fixtures_dir / "leibniz_sl2.json"))
    assert code == 1
    assert rep["antipode_square"] == {"ok": False, "scope": "first-factor degree <= 1"}
    assert rep["phi_bimodule"]["ok"] is False and rep["phi_coderivation"]["ok"] is True
    # the least failing (k, m) names x_k (x) m; the least failing (m, k) names 1 (x) m
    assert rep["witnesses"]["antipode_square"] == "e⊗f"
    assert rep["witnesses"]["bimodule"] == ["1⊗e", "f"]


@pytest.mark.parametrize("command", ["env-checks", "theorem1-bracket"])
def test_invariant_commands_refuse_a_small_degree_before_building(monkeypatch, capsys,
                                                                  fixtures_dir, command):
    from rackyd import envelope
    built = []
    monkeypatch.setattr(envelope, "build_env", lambda *a: built.append(a))
    path = str(fixtures_dir / "leibniz_sl2.json")
    for degree in ("0", "1"):
        assert run([command, path, "--degree", degree]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: invariant checks need truncation degree >= 2" in captured.err
    assert built == []
    monkeypatch.undo()
    assert run([command, path, "--degree", "-1"]) == 2
    assert "error: truncation degree must be >= 0" in capsys.readouterr().err


def _verdicts(command, rep):
    if command == "env-checks":
        return {key: (val["ok"] if isinstance(val, dict) and "ok" in val else val)
                for key, val in rep.items() if key not in ("command", "witnesses")}
    return {key: rep[key] for key in ("braided_leibniz_ok", "recovers_input_brackets",
                                      "tau_is_flip")}


@pytest.mark.parametrize("command", ["env-checks", "theorem1-bracket"])
def test_invariant_verdicts_agree_over_qq_and_gfp(capsys, fixtures_dir, command):
    for path in sorted(fixtures_dir.glob("leibniz_*.json")):
        for degree in ("2", "3"):
            results = []
            for field in ("rational", "gfp:10007"):
                code, out = invoke(capsys, command, str(path), "--degree", degree,
                                   "--field", field)
                results.append((code, _verdicts(command, json.loads(out)) if out else None))
            assert results[0] == results[1], (path.name, degree)
            assert (results[0][0] == 2) == (path.name == "leibniz_not.json")


# kX of the S3 conjugation quandle and of D3, each also with a broken grading,
# and ker(counit) of Z/2 and S3: the integral group-algebra sweeps
GROUP_ALGEBRA_FIXTURES = ("yd_s3_conj.json", "yd_dihedral3.json", "yd_s3_broken.json",
                          "yd_dihedral3_broken.json", "yd_kereps_z2.json", "yd_kereps_s3.json")


def test_group_algebra_verdicts_agree_over_qq_and_gfp(capsys, tmp_path, fixtures_dir):
    codes = Counter()
    for name in GROUP_ALGEBRA_FIXTURES:
        path = str(fixtures_dir / name)
        results = []
        for field in ("rational", "gfp:10007"):
            braid = str(tmp_path / f"braid_{field.replace(':', '')}.json")
            verdicts = []
            # the report keys both fields must agree on; None: the whole report
            for argv, keys in ((("check-yd", path), None),
                               (("q-conditions", path, "--rack-q"), None),
                               (("braided-leibniz", path, "--rack-q"), ("ok", "witness")),
                               (("braiding-matrix", path, "--json", braid), ()),
                               (("check-ybe", braid), ("ok", "witness"))):
                code, out = invoke(capsys, *argv, "--field", field)
                rep = json.loads(out) if out else {}
                rep.pop("command", None)
                verdicts.append((code, rep if keys is None else {k: rep.get(k) for k in keys}))
            results.append(verdicts)
        assert results[0] == results[1], name
        codes.update(code for code, _ in results[0])
    assert codes[0] and codes[1] and codes[2]


def test_check_leibniz_exit_codes(capsys, fixtures_dir):
    assert run(["check-leibniz", str(fixtures_dir / "leibniz_sl2.json")]) == 0
    capsys.readouterr()
    assert run(["check-leibniz", str(fixtures_dir / "leibniz_not.json")]) == 1


def test_rack_braiding_command(capsys, fixtures_dir):
    code, rep = report(capsys, "rack-braiding", str(fixtures_dir / "aug_dihedral3.json"))
    assert code == 0
    assert rep["set_level_ybe"] is True
    assert rep["tensor_size"] == 9


def test_rack_braiding_refuses_an_input_that_is_not_augmented(capsys, fixtures_dir):
    conj, broken = (str(fixtures_dir / f"aug_s3_{n}.json") for n in ("conj", "broken"))
    for argv in ([broken], [conj, broken]):
        assert run(["rack-braiding", *argv]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines()[0] == "error: augmentation identity fails at (1, 2)"
        assert "Traceback" not in out.err


def test_rack_braiding_builds_one_tensor(monkeypatch, capsys, fixtures_dir):
    sizes = Counter()
    real_init = racks.AugmentedRack.__init__

    def counted(self, elements, *rest):
        sizes[len(elements)] += 1
        real_init(self, elements, *rest)

    monkeypatch.setattr(racks.AugmentedRack, "__init__", counted)
    code, rep = report(capsys, "rack-braiding", str(fixtures_dir / "aug_dihedral3.json"))
    assert code == 0 and rep["tensor_size"] == 9
    assert sizes == {3: 1, 9: 1}  # the input, then the tensor
    aug = racks.inner_augmentation(racks.dihedral_quandle(5))
    sizes.clear()
    assert racks.rack_braiding_ybe(aug).ok
    assert not sizes


def file_commands():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return [name for name, p in sub.choices.items()
            if any(a.dest == "file" for a in p._actions)]


def test_every_file_command_on_every_fixture_exits_0_1_or_2(capsys, fixtures_dir):
    commands = file_commands()
    assert {"rack-braiding", "dual-check", "q-conditions"} <= set(commands)
    bad = []
    for command, path in ((c, f) for c in commands for f in sorted(fixtures_dir.glob("*.json"))):
        argv = [command, str(path)]
        if command in ("q-conditions", "braided-leibniz"):
            argv.append("--rack-q")
        try:
            code = run(argv)
        except Exception as exc:  # any exception that escapes run() breaks the contract
            code = repr(exc)
        capsys.readouterr()
        if code not in (0, 1, 2):
            bad.append((command, path.name, code))
    assert bad == []


# the fixtures each file command reads, by file-name prefix
FIXTURE_KINDS = {
    ("rack_", "shelf_", "not_a_shelf"): ("check-rack", "inner-augmentation"),
    ("group_",): ("make-conjugation",),
    ("aug_",): ("check-augmented", "rack-braiding", "linearize", "dual-check"),
    ("yd_",): ("check-yd", "braiding-matrix", "q-conditions", "braided-leibniz"),
    ("braiding_", "matrix_"): ("check-ybe",),
    ("leibniz_",): ("check-leibniz", "lie-quotient", "unital-shelf", "first-order-yd",
                    "env-build", "env-checks", "theorem1-bracket"),
}
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FUZZ_CASES = [
    (command, json.loads(path.read_text()))
    for prefixes, commands in FIXTURE_KINDS.items() for command in commands
    for path in sorted(FIXTURES.glob("*.json")) if path.name.startswith(prefixes)
]
DELETE = object()
REPLACEMENTS = st.one_of(
    st.just(DELETE), st.none(), st.booleans(), st.integers(-2, 8), st.floats(),
    st.text(max_size=4), st.lists(st.integers(-2, 8), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 8), max_size=2),
)


def test_every_file_command_has_a_fixture_kind():
    assert sorted(c for commands in FIXTURE_KINDS.values() for c in commands) == \
        sorted(file_commands())


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["-h"], ["check-ybe"], ["check-ybe", "-h"], ["check-ybe", "x", "--hel"],
    ["check-ybe", "x", "--bogus"], ["check-ybe", "x", "y"], ["check-ybe", "x", "--field"],
    ["check-rack", "x", "--witness-limit", "-1"], ["make-dihedral", "five"],
    ["braided-leibniz", "x", "--q", "a", "--rack-q"], ["env-checks", "x", "--degree", "d"],
], ids=" ".join)
def test_help_usage_and_errors_are_the_full_parsers(argv, capsys):
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    want = capsys.readouterr()
    assert run(argv) == full.value.code
    got = capsys.readouterr()
    assert (got.out, got.err) == (want.out, want.err)


FULL_PARSER = build_parser()
SUBPARSERS = next(a for a in FULL_PARSER._actions if a.dest == "command").choices
INTS = ["0", "2", "12"]
TEXTS = ["a.json", "gfp:7", "rational", "x y", ""]
DIRTY = ["-1", "-3", "--", "-", "-h", "--json", "d", "1.5", "--field=x"]
PERTURBATIONS = ["equals", "abbreviation", "repeat", "dashdash", "negative", "missing value",
                 "help", "unknown", "extra", "dirty", "shuffle"]


@st.composite
def command_lines(draw):
    """(argv, perturbed): a command line drawn from the full parser's
    subcommand, its positionals in one run, then perhaps perturbed."""
    name = draw(st.sampled_from(sorted(SUBPARSERS)))
    parser = SUBPARSERS[name]
    groups, positionals, chosen = [], [], set()
    for action in parser._actions:
        pool = INTS if action.type in (int, cli._witness_limit) else TEXTS
        if not action.option_strings:
            if action.nargs != "?" or draw(st.booleans()):
                positionals.append(draw(st.sampled_from(pool)))
        elif action.dest != "help" and draw(st.booleans()):
            chosen.add(action)
            value = [] if action.nargs == 0 else [draw(st.sampled_from(pool))]
            groups.append([action.option_strings[0], *value])
    perturbed = any(len(chosen & set(g._group_actions)) > 1
                    for g in parser._mutually_exclusive_groups)
    at = draw(st.integers(0, len(groups)))
    groups[at:at] = [positionals]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(PERTURBATIONS))
        options = [g for g in groups if g and g[0].startswith("--") and len(g[0]) > 3]
        at = draw(st.integers(0, len(groups)))
        if kind == "equals" and any(len(g) == 2 for g in options):
            g = draw(st.sampled_from([g for g in options if len(g) == 2]))
            g[:] = [f"{g[0]}={g[1]}"]
        elif kind == "abbreviation" and options:
            g = draw(st.sampled_from(options))
            g[0] = g[0][:draw(st.integers(3, len(g[0]) - 1))]
        elif kind == "repeat" and options:
            groups.insert(at, list(draw(st.sampled_from(options))))
        elif kind == "missing value" and any(len(g) == 2 for g in options):
            draw(st.sampled_from([g for g in options if len(g) == 2])).pop()
        elif kind == "shuffle":
            tokens = [[t] for g in groups for t in g]
            groups = draw(st.permutations(tokens))
        else:
            token = {"dashdash": "--", "negative": "-2", "unknown": "--bogus", "extra": "b.json",
                     "help": draw(st.sampled_from(["-h", "--help", "--he"])),
                     "dirty": draw(st.sampled_from(DIRTY))}.get(kind)
            if token is None:
                continue
            groups.insert(at, [token])
        perturbed = True
    return [name, *(t for g in groups for t in g)], perturbed


@settings(max_examples=600, deadline=None)
@given(command_lines())
@example((["rack-braiding", "a", "--json", "o", "b"], True))  # an error, not file2 = b
@example((["braided-leibniz", "a", "--rack-q", "--q", "q.json"], True))
def test_the_table_reader_reads_what_the_full_parser_reads(case):
    argv, perturbed = case
    got = cli._read(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            want = vars(FULL_PARSER.parse_args(argv))
    except SystemExit:
        want = None
    assert got is None or vars(got) == want
    assert perturbed or got is not None


def test_a_well_formed_command_builds_no_parser(monkeypatch, capsys, fixtures_dir):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or real())
    path = str(fixtures_dir / "braiding_hv_sparse.json")
    assert run(["check-ybe", path, "--witness-limit", "2"]) == 0
    assert built == []
    assert run(["check-ybe", path, "--bogus"]) == 2  # refused, so parsed in full, once
    assert built == [None]
    capsys.readouterr()


class FractionField:
    """The rationals as they were before integral ones became ints: every
    scalar a ``Fraction``.  The reference for ``QQ``."""

    name = "rational"
    zero, one = Fraction(0), Fraction(1)
    parsed = 0

    def parse(self, text):
        FractionField.parsed += 1
        try:
            return Fraction(str(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {text!r}") from exc

    def __repr__(self):
        return "QQ"


def _outcome(argv, artifact):
    """Exit code, stdout, stderr without its timing line, and the artifact."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    written = artifact.read_bytes() if artifact.exists() else None
    artifact.unlink(missing_ok=True)
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("elapsed_ms=")]
    return code, out.getvalue(), lines, written


def _reference_cases(tmp_path):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    writes = {name for name, p in sub.choices.items() if any(a.dest == "json" for a in p._actions)}
    flags = {"q-conditions": ["--rack-q"], "braided-leibniz": ["--rack-q"],
             "first-order-yd": ["--degree", "3"], "env-build": ["--degree", "3"],
             "env-checks": ["--degree", "3"], "theorem1-bracket": ["--degree", "3"]}
    cases = []
    for prefixes, commands in FIXTURE_KINDS.items():
        for path in sorted(FIXTURES.glob("*.json")):
            if path.name.startswith(prefixes):
                for command in commands:
                    argv = [command, str(path), *flags.get(command, [])]
                    cases.append(argv)
                    if command in writes:
                        cases.append([*argv, "--json", str(tmp_path / "artifact.json")])
                    if command == "braiding-matrix":
                        cases += [[*argv, "--integers"], [*argv, "--paper-layout"]]
                        braid = str(tmp_path / f"braid_{path.name}")
                        cases += [[*argv, "--json", braid], ["check-ybe", braid],
                                  ["check-ybe", braid, "--json", str(tmp_path / "artifact.json")]]
    return cases


def test_qq_matches_the_all_fraction_reference_on_every_fixture(monkeypatch, tmp_path):
    artifact = tmp_path / "artifact.json"
    cases = _reference_cases(tmp_path)
    assert len(cases) > 150
    results = {}
    for reference in (False, True):
        if reference:
            monkeypatch.setattr(cli, "field_from_name", lambda name: FractionField())
        results[reference] = [_outcome(argv, artifact) for argv in cases]
    assert FractionField.parsed > 0
    mismatched = [argv for argv, a, b in zip(cases, results[False], results[True]) if a != b]
    assert mismatched == []
    codes = Counter(code for code, *_ in results[False])
    assert codes[0] and codes[1] and codes[2]


def _slots(node):
    """Every (container, key) below ``node``, depth first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [slot for key, child in items for slot in [(node, key), *_slots(child)]]


@st.composite
def mutated_fixture(draw, case):
    """A fixture with one to three keys or items deleted or replaced by junk."""
    command, doc = case
    box = [copy.deepcopy(doc)]  # box[0] is itself a slot, so the whole document can go
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(box)
        if not slots:
            break
        container, key = slots[draw(st.integers(0, len(slots) - 1))]
        value = draw(REPLACEMENTS)
        if value is DELETE:
            del container[key]
        else:
            container[key] = value
    return command, (box[0] if box else None)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FUZZ_CASES).flatmap(mutated_fixture))
@example(("check-leibniz", {"dim": 2, "basis": 0, "brackets": []}))
@example(("check-leibniz", {"dim": 2, "basis": ["a", "b"], "brackets": 5}))
@example(("check-leibniz", {"dim": 2.0, "basis": ["a", "b"], "brackets": []}))
def test_every_file_command_on_a_mutated_fixture_exits_0_1_or_2(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)]
        if command in ("q-conditions", "braided-leibniz"):
            argv.append("--rack-q")
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = run(argv)  # an exception escaping run() fails the test
    assert code in (0, 1, 2)


def test_dual_check_command(capsys, fixtures_dir):
    for name in ("aug_z2_trivial.json", "aug_s3_conj.json"):
        assert run(["dual-check", str(fixtures_dir / name)]) == 0
        capsys.readouterr()
    assert run(["dual-check", str(fixtures_dir / "aug_s3_broken.json")]) == 1


def test_gfp_field_flag(capsys, fixtures_dir):
    code, out = invoke(capsys, "hv-rmatrix", "--field", "gfp:5", "--paper-layout")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[12][6] == "4"  # -1 becomes 4 mod 5
    assert run(["check-leibniz", str(fixtures_dir / "leibniz_sl2.json"),
                "--field", "gfp:7"]) == 0
    capsys.readouterr()
    assert run(["check-rack", str(fixtures_dir / "rack_dihedral3.json"),
                "--field", "gfp:4"]) == 2  # 4 is not prime


def test_lie_quotient_and_unital_shelf_artifacts(tmp_path, capsys, fixtures_dir):
    out = tmp_path / "quotient.json"
    code, rep = report(
        capsys, "lie-quotient", str(fixtures_dir / "leibniz_heisenberg_voros.json"),
        "--json", str(out),
    )
    assert code == 0 and rep["quotient_dim"] == 2
    payload = json.loads(out.read_text())
    assert Matrix.from_json_dict(payload["pi"]).rows == 2
    code, rep = report(
        capsys, "unital-shelf", str(fixtures_dir / "leibniz_heisenberg_voros.json")
    )
    assert code == 0 and rep["dim"] == 4


PIVOT_NOT_ONE = {  # [c, c] = 2a + 3b, every other bracket 0
    "dim": 3, "basis": ["a", "b", "c"],
    "brackets": [{"i": 2, "j": 2, "out": {"0": "2", "1": "3"}}],
}


@pytest.mark.parametrize("source,golden", [
    ("leibniz_heisenberg_voros.json", {
        "ideal": [["0", "0", "1"]],
        "pi": {"rows": 2, "cols": 3, "entries": [["1", "0", "0"], ["0", "1", "0"]]},
        "section": {"rows": 3, "cols": 2, "entries": [["1", "0"], ["0", "1"], ["0", "0"]]},
        "quotient": {"basis": ["x", "y"], "brackets": [], "dim": 2},
    }),
    (PIVOT_NOT_ONE, {
        "ideal": [["1", "3/2", "0"]],
        "pi": {"rows": 2, "cols": 3, "entries": [["-3/2", "1", "0"], ["0", "0", "1"]]},
        "section": {"rows": 3, "cols": 2, "entries": [["0", "0"], ["1", "0"], ["0", "1"]]},
        "quotient": {"basis": ["b", "c"], "brackets": [], "dim": 2},
    }),
], ids=["heisenberg_voros", "pivot_not_one"])
def test_lie_quotient_artifact_is_golden(tmp_path, capsys, fixtures_dir, source, golden):
    path = tmp_path / "alg.json"
    if isinstance(source, dict):
        path.write_text(json.dumps(source))
    else:
        path = fixtures_dir / source
    out = tmp_path / "quotient.json"
    code, _ = report(capsys, "lie-quotient", str(path), "--json", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == golden


def test_make_commands(tmp_path, capsys, fixtures_dir):
    out = tmp_path / "d6.json"
    code, rep = report(capsys, "make-dihedral", "6", "--json", str(out))
    assert code == 0 and rep["is_quandle"] is True
    code, rep = report(capsys, "inner-augmentation", str(out))
    assert code == 0 and rep["inner_group_order"] == 6
    code, rep = report(capsys, "make-conjugation", str(fixtures_dir / "group_s4.json"))
    assert code == 0 and rep["size"] == 24


def test_make_dihedral_refuses_a_huge_order(capsys):
    assert run(["make-dihedral", str(10 ** 12)]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_first_order_yd_artifact_roundtrip(tmp_path, capsys, fixtures_dir):
    out = tmp_path / "module.json"
    code, _ = report(
        capsys, "first-order-yd", str(fixtures_dir / "leibniz_heisenberg_voros.json"),
        "--json", str(out),
    )
    assert code == 0
    loaded = jsonio.yd_from_dict(json.loads(out.read_text()))
    assert loaded.dim == 4
    assert check_yd(loaded).ok


def test_every_emitted_artifact_reparses_equal(tmp_path, capsys, fixtures_dir):
    # round-trip contract: emit, re-load, emit again, byte-identical
    out1 = tmp_path / "a1.json"
    out2 = tmp_path / "a2.json"
    run(["linearize", str(fixtures_dir / "aug_dihedral5.json"), "--json", str(out1)])
    capsys.readouterr()
    module = jsonio.yd_from_dict(json.loads(out1.read_text()))
    out2.write_text(json.dumps(jsonio.yd_to_dict(module), indent=2, sort_keys=True) + "\n")
    assert out1.read_text() == out2.read_text()


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_coaction_term_of_wrong_arity_exits_two(tmp_path, capsys, fixtures_dir):
    module = json.loads((fixtures_dir / "yd_kereps_z2.json").read_text())
    module["coaction"][0][0] = [0, 1]
    assert run(["check-yd", _write(tmp_path, "yd.json", module)]) == 2


def test_module_basis_not_a_list_exits_two(tmp_path, capsys, fixtures_dir):
    module = json.loads((fixtures_dir / "yd_kereps_z2.json").read_text())
    module["basis"] = 5
    assert run(["check-yd", _write(tmp_path, "yd.json", module)]) == 2


def test_identity_row_of_group_module_is_checked(tmp_path, capsys, fixtures_dir):
    module = json.loads((fixtures_dir / "yd_s3_conj.json").read_text())
    e = module["hopf"]["group"]["elements"].index("e")
    module["action"][0][e], module["action"][1][e] = {"1": "1"}, {"0": "1"}
    path = _write(tmp_path, "yd.json", module)
    for argv in (["check-yd", path], ["braiding-matrix", path], ["q-conditions", path, "--rack-q"]):
        assert run(argv) == 2
        assert "module axioms at (0, 'e')" in capsys.readouterr().err


def test_non_integer_op_entry_exits_two(tmp_path, capsys):
    shelf = {"elements": ["a", "b"], "op": [[0, "x"], [1, 1]]}
    assert run(["check-rack", _write(tmp_path, "rack.json", shelf)]) == 2


def test_non_integer_bracket_output_index_exits_two(tmp_path, capsys):
    alg = {"dim": 2, "basis": ["x", "y"], "brackets": [{"i": 0, "j": 0, "out": {"a": "1"}}]}
    assert run(["check-leibniz", _write(tmp_path, "leibniz.json", alg)]) == 2


def test_string_bracket_index_exits_two(tmp_path, capsys):
    alg = {"dim": 2, "basis": ["x", "y"], "brackets": [{"i": "0", "j": 0, "out": {"1": "1"}}]}
    assert run(["check-leibniz", _write(tmp_path, "leibniz.json", alg)]) == 2


def _aug_z2(**edits):
    payload = {"rack_elements": ["0", "1"], "action": [[0, 0], [1, 1]], "p": [0, 1],
               "group": {"elements": ["0", "1"], "mul": [[0, 1], [1, 0]]}}
    return {**payload, **edits}


# case -> (command, input, the error it must give); a string in place of a
# list used to be read character by character
MALFORMED_RACK = {
    "shelf-op-rows-strings": ("check-rack", {"elements": ["a", "b", "c"],
                                             "op": ["021", "210", "102"]},
                              "op row must be a list, got str"),
    "shelf-op-string": ("check-rack", {"elements": ["a"], "op": "0"},
                        "op must be a list, got str"),
    "shelf-elements-string": ("check-rack", {"elements": "abc",
                                             "op": [[0, 2, 1], [2, 1, 0], [1, 0, 2]]},
                              "elements must be a list, got str"),
    "group-elements-string": ("make-conjugation", {"elements": "ea", "mul": [[0, 1], [1, 0]]},
                              "elements must be a list, got str"),
    "group-mul-rows-strings": ("make-conjugation", {"elements": ["e", "a"], "mul": ["01", "10"]},
                               "mul row must be a list, got str"),
    "augmented-group-elements-string": (
        "check-augmented", _aug_z2(group={"elements": "ea", "mul": [[0, 1], [1, 0]]}),
        "elements must be a list, got str"),
    "augmented-rack-elements-string": ("check-augmented", _aug_z2(rack_elements="01"),
                                       "rack_elements must be a list, got str"),
    "augmented-action-rows-strings": ("check-augmented", _aug_z2(action=["00", "11"]),
                                      "action row must be a list, got str"),
    "augmented-p-string": ("check-augmented", _aug_z2(p="01"), "p must be a list, got str"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RACK))
def test_malformed_rack_input_exits_two(tmp_path, capsys, case):
    command, payload, message = MALFORMED_RACK[case]
    assert run([command, _write(tmp_path, "input.json", payload)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert message in out.err and "Traceback" not in out.err


def _kereps_z2(coaction_term):
    module = json.loads((FIXTURES / "yd_kereps_z2.json").read_text())
    module["coaction"][0][0] = coaction_term
    return module


# case -> (command, input, the error it must give); Python reads a JSON
# true as the int 1, so a bool where an index belongs used to be accepted
BOOL_INDEX = {
    "shelf-op": ("check-rack", {"elements": ["a", "b"], "op": [[0, True], [1, False]]},
                 "op entry True is not an integer"),
    "group-mul": ("make-conjugation", {"elements": ["e", "a"], "mul": [[0, True], [True, 0]]},
                  "mul entry True is not an integer"),
    "augmented-action": ("check-augmented", _aug_z2(action=[[0, 0], [True, 1]]),
                         "action entry True is not an integer"),
    "augmented-p": ("check-augmented", _aug_z2(p=[0, True]), "p entry True is not an integer"),
    "coaction-module-index": ("check-yd", _kereps_z2([False, 1, "1"]),
                              "coaction module index False is not an integer"),
    "coaction-descriptor-index": ("check-yd", _kereps_z2([0, True, "1"]),
                                  "coaction descriptor index True is not an integer"),
    "leibniz-dim": ("check-leibniz", {"dim": True, "basis": ["x"], "brackets": []},
                    "dim True is not an integer"),
    "leibniz-bracket-index": ("check-leibniz", {"dim": 2, "basis": ["x", "y"], "brackets": [
        {"i": True, "j": 0, "out": {"1": "1"}}]}, "bracket entry i True is not an integer"),
}


@pytest.mark.parametrize("case", sorted(BOOL_INDEX))
def test_a_json_bool_where_an_integer_belongs_exits_two(tmp_path, capsys, case):
    command, payload, message = BOOL_INDEX[case]
    assert run([command, _write(tmp_path, "input.json", payload)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


def _hv_module(degree):
    module = json.loads((FIXTURES / "yd_hv_first_order.json").read_text())
    module["hopf"]["degree"] = degree
    return module


# case -> (command, input, the error it must give); int() reads each of these
# strings, so they used to be read as the integers they spell
STRING_INDEX = {
    "shelf-op": ("check-rack", {"elements": ["a", "b"], "op": [["0", "1"], ["1", " 1 "]]},
                 "op entry '0' is not an integer"),
    "group-mul": ("make-conjugation", {"elements": ["e", "a"], "mul": [[0, 1], [1, "1_0"]]},
                  "mul entry '1_0' is not an integer"),
    "augmented-action": ("check-augmented", _aug_z2(action=[[0, 0], ["+1", 1]]),
                         "action entry '+1' is not an integer"),
    "augmented-p": ("check-augmented", _aug_z2(p=[0, "1"]), "p entry '1' is not an integer"),
    "coaction-module-index": ("check-yd", _kereps_z2(["0", 1, "1"]),
                              "coaction module index '0' is not an integer"),
    "coaction-descriptor-index": ("check-yd", _kereps_z2([0, "1", "1"]),
                                  "coaction descriptor index '1' is not an integer"),
    "hopf-degree": ("check-yd", _hv_module("2"), "degree '2' is not an integer"),
    "leibniz-dim": ("check-leibniz", {"dim": "1", "basis": ["x"], "brackets": []},
                    "dim '1' is not an integer"),
    "leibniz-bracket-index": ("check-leibniz", {"dim": 2, "basis": ["x", "y"], "brackets": [
        {"i": 0, "j": "1", "out": {"1": "1"}}]}, "bracket entry j '1' is not an integer"),
}


@pytest.mark.parametrize("case", sorted(STRING_INDEX))
def test_a_json_string_where_an_integer_belongs_exits_two(tmp_path, capsys, case):
    command, payload, message = STRING_INDEX[case]
    assert run([command, _write(tmp_path, "input.json", payload)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err


@pytest.mark.parametrize("key", ["01", " 1", "+1", "1_0"])
def test_a_sparse_index_not_in_canonical_decimal_exits_two(tmp_path, capsys, fixtures_dir, key):
    # int() reads each key as 1 (or 10); an index has one spelling only
    module = json.loads((fixtures_dir / "yd_kereps_z2.json").read_text())
    module["action"][0][1] = {key: "1"}
    _refused(capsys, ["check-yd", _write(tmp_path, "yd.json", module)],
             f"action vector index {key!r} is not an integer in canonical decimal")


def test_negative_witness_limit_exits_two(capsys, fixtures_dir):
    path = str(fixtures_dir / "not_a_shelf.json")
    assert run(["check-rack", path, "--witness-limit", "-1"]) == 2
    assert "--witness-limit: must be >= 0, not -1" in capsys.readouterr().err
    code, rep = report(capsys, "check-rack", path, "--witness-limit", "3")
    assert code == 1 and sorted(rep["witnesses"]) == [
        "bijectivity", "idempotence", "self_distributivity"]


@pytest.mark.parametrize("command", ["q-conditions", "braided-leibniz"])
def test_q_file_and_rack_q_together_exit_two(capsys, fixtures_dir, command):
    argv = [command, str(fixtures_dir / "yd_s3_conj.json"), "--rack-q",
            "--q", str(fixtures_dir / "q_s3_conj.json")]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "not allowed with argument --rack-q" in out.err


@pytest.mark.parametrize("command", ["q-conditions", "braided-leibniz"])
def test_a_q_index_outside_the_descriptor_exits_two(tmp_path, capsys, fixtures_dir, command):
    qfile = tmp_path / "q.json"
    qfile.write_text(json.dumps({"q": [{"99": "1", "0": "-1"}, {}, {}, {}, {}, {}]}))
    assert run([command, str(fixtures_dir / "yd_s3_conj.json"), "--q", str(qfile)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "error: q descriptor index 99 out of range at basis 0" in out.err


def test_check_ybe_failure_names_witness(tmp_path, capsys, fixtures_dir):
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    for module, out in (("yd_s3_conj.json", good), ("yd_s3_broken.json", bad)):
        run(["braiding-matrix", str(fixtures_dir / module), "--json", str(out)])
    capsys.readouterr()
    code, rep = report(capsys, "check-ybe", str(good))
    assert code == 0 and "witness" not in rep
    code, rep = report(capsys, "check-ybe", str(bad))
    assert code == 1 and rep["witness"] == [1, 1, 1]


def _d5_braiding():
    aug = racks.inner_augmentation(racks.dihedral_quandle(5))
    return yd.braiding(rackyd.linearize_augmented(aug).module)


def _dense_payload(bm):
    return {"basis_order": bm.convention, "factor_basis": list(bm.factor_basis),
            "matrix": bm.matrix.to_json_dict()}


def _set_column(value):
    def edit(payload):
        payload["columns"][0] = value
    return edit


# case -> (edit of the D5 braiding file, the error it must give); 25 columns
MALFORMED_SPARSE = {
    "wrong-column-count": (lambda payload: payload["columns"].append({}),
                           "needs 25 columns, got 26"),
    "column-not-an-object": (_set_column(["0", "1"]), "braiding column must be an object"),
    "row-not-an-integer": (_set_column({"a": "1"}), "braiding column index 'a' is not an integer"),
    "row-out-of-range": (_set_column({"25": "1"}), "braiding column index 25 out of range(25)"),
    "bad-coefficient": (_set_column({"0": "1/0"}), "bad rational literal '1/0'"),
    # "01" would name row 1 a second time; only the canonical spelling is read
    "row-given-twice": (_set_column({"1": "2", "01": "3"}),
                        "braiding column index '01' is not an integer in canonical decimal"),
    "factor-basis-not-a-list": (lambda payload: payload.update(factor_basis="abcde"),
                                "braiding factor_basis must be a list of labels"),
    "other-basis-order": (lambda payload: payload.update(basis_order="first-factor-major"),
                          "basis_order must be 'second-factor-major', got 'first-factor-major'"),
    "truncated-basis": (lambda payload: payload.update(factor_basis=payload["factor_basis"][:3]),
                        "needs 9 columns, got 25"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SPARSE))
def test_malformed_sparse_braiding_exits_two(tmp_path, capsys, case):
    edit, message = MALFORMED_SPARSE[case]
    payload = _d5_braiding().to_json_dict()
    edit(payload)
    assert run(["check-ybe", _write(tmp_path, "braid.json", payload)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert message in out.err and "Traceback" not in out.err


def test_dense_braiding_with_a_truncated_basis_exits_two(tmp_path, capsys):
    payload = _dense_payload(_d5_braiding())
    assert run(["check-ybe", _write(tmp_path, "braid.json", payload)]) == 0
    payload["factor_basis"] = payload["factor_basis"][:3]
    capsys.readouterr()
    assert run(["check-ybe", _write(tmp_path, "cut.json", payload)]) == 2
    assert "needs 9 columns, got 25" in capsys.readouterr().err


def test_paper_layout_refuses_a_large_grid_before_building_it(tmp_path, capsys, monkeypatch):
    module = rackyd.ker_eps_yd(racks.FiniteGroup.cyclic(34))  # 33-dimensional
    path = _write(tmp_path, "kereps.json", jsonio.yd_to_dict(module))
    built = []
    real = Matrix.from_columns

    def counted(cls, columns, rows):
        built.append(rows)
        return real(columns, rows)

    monkeypatch.setattr(Matrix, "from_columns", classmethod(counted))
    assert run(["braiding-matrix", path, "--paper-layout"]) == 2
    assert "exceeds 1024x1024" in capsys.readouterr().err
    assert built == []
    # the bound is on the side n^2 of the grid: 16 prints, 15 refuses
    monkeypatch.setattr(cli_modules, "PAPER_LAYOUT_MAX_SIDE", 16)
    assert run(["hv-rmatrix", "--paper-layout"]) == 0
    monkeypatch.setattr(cli_modules, "PAPER_LAYOUT_MAX_SIDE", 15)
    assert run(["hv-rmatrix", "--paper-layout"]) == 2
    assert built == [16]


def _edit_entry(row, col, value):
    def edit(matrix):
        matrix["entries"][row][col] = value
    return edit


def _one_then_true(matrix):
    matrix["entries"][0][0] = 1
    matrix["entries"][24][24] = True


def _drop_last_row(matrix):
    del matrix["entries"][-1]
    matrix["rows"] -= 1


def _float_shape(matrix):
    matrix["rows"], matrix["cols"] = float(matrix["rows"]), float(matrix["cols"])


# case -> (edit of the dense 25 x 25 matrix of the D5 braiding, the error it must give)
MALFORMED_DENSE = {
    "bad-entry": (_edit_entry(24, 24, "x"), "bad rational literal 'x'"),
    # true == 1 is read after 1: each entry is parsed by its own literal
    "boolean-entry": (_one_then_true, "bad rational literal True"),
    "zero-denominator": (_edit_entry(0, 3, "1/0"), "bad rational literal '1/0'"),
    "ragged-row": (lambda matrix: matrix["entries"][7].pop(), "does not match declared shape"),
    "not-square": (_drop_last_row, "braiding matrix must be square"),
    "no-entries": (lambda matrix: matrix.pop("entries"), "matrix JSON needs rows/cols/entries"),
    "float-shape": (_float_shape, "rows 25.0 is not an integer"),
}


@pytest.mark.parametrize("layout", ["plain", "braiding"])
@pytest.mark.parametrize("case", sorted(MALFORMED_DENSE))
def test_malformed_dense_braiding_exits_two(tmp_path, capsys, case, layout):
    edit, message = MALFORMED_DENSE[case]
    payload = _dense_payload(_d5_braiding())
    edit(payload["matrix"])
    if layout == "plain":
        payload = payload["matrix"]
    assert run(["check-ybe", _write(tmp_path, "braid.json", payload)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert message in out.err and "Traceback" not in out.err


def test_dense_braiding_files_are_read_into_sparse_columns(tmp_path, capsys, monkeypatch):
    bm = _d5_braiding()
    dense = _dense_payload(bm)
    paths = [_write(tmp_path, "plain.json", dense["matrix"]), _write(tmp_path, "dense.json", dense)]
    for path in paths:
        loaded = BraidingMatrix.from_json_dict(json.loads(pathlib.Path(path).read_text()))
        assert loaded.columns == bm.columns
    built = []
    real_init = Matrix.__init__

    def counted(self, data, rows=None, cols=None):
        built.append((rows, cols))
        real_init(self, data, rows, cols)

    monkeypatch.setattr(Matrix, "__init__", counted)
    for path in paths:
        assert run(["check-ybe", path]) == 0
    assert built == []  # no dense matrix is built from either file


@pytest.mark.parametrize("command", ["env-build", "env-checks", "theorem1-bracket"])
def test_degree_budget_refuses_before_building(capsys, fixtures_dir, monkeypatch, command):
    # sl2 at degree 2: 10 PBW monomials times dim M = 3
    path = str(fixtures_dir / "leibniz_sl2.json")
    built = []
    real_init = rackyd.envelope.TruncatedPBW.__init__

    def counted(self, *args, **kwargs):
        built.append(args[1])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(rackyd.envelope.TruncatedPBW, "__init__", counted)
    monkeypatch.setattr(rackyd.envelope, "ENV_MAX_SIZE", 29)
    assert run([command, path, "--degree", "2"]) == 2
    err = capsys.readouterr().err
    assert "truncation degree 2 gives a tetramodule of dimension 30, above ENV_MAX_SIZE = 29" in err
    assert built == []
    monkeypatch.setattr(rackyd.envelope, "ENV_MAX_SIZE", 30)
    assert run([command, path, "--degree", "2"]) == 0
    assert built == [2]


def test_env_build_writes_its_tables_out_only_under_json(tmp_path, capsys, fixtures_dir,
                                                        monkeypatch):
    path = str(fixtures_dir / "leibniz_sl2.json")
    calls = []
    real = rackyd.linalg.vec_to_json
    monkeypatch.setattr(rackyd.linalg, "vec_to_json", lambda vec: calls.append(1) or real(vec))
    code, out = invoke(capsys, "env-build", path, "--degree", "3")
    assert (code, calls) == (0, [])
    artifact = tmp_path / "env.json"
    code, rep = report(capsys, "env-build", path, "--degree", "3", "--json", str(artifact))
    assert code == 0 and calls and json.loads(artifact.read_text())["right_action"]
    # the same report but for the artifact's name
    assert rep.pop("artifact") == str(artifact)
    rep["command"] = rep["command"][:-2]
    assert out == json.dumps(rep, indent=2, sort_keys=True) + "\n"


# case -> (argv, the number of PBW monomials it enumerates at degree 2): sl2 has
# dimension 3, the Lie quotient of Heisenberg-Voros dimension 2
PBW_AT_DEGREE_2 = {
    "first-order-yd": (["first-order-yd", "leibniz_sl2.json"], 10),
    "hv-rmatrix": (["hv-rmatrix"], 6),
    "module-file-degree": (["check-yd", "yd_hv_first_order.json"], 6),
}


@pytest.mark.parametrize("case", sorted(PBW_AT_DEGREE_2))
def test_pbw_budget_refuses_before_enumerating(capsys, fixtures_dir, monkeypatch, case):
    argv, size = PBW_AT_DEGREE_2[case]
    argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
    monkeypatch.setattr(rackyd.envelope, "PBW_MAX_SIZE", size - 1)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"truncation degree 2 gives {size} PBW monomials, above PBW_MAX_SIZE = {size - 1}" in err
    monkeypatch.setattr(rackyd.envelope, "PBW_MAX_SIZE", size)
    assert run(argv) == 0


def _permute_module(doc, sigma):
    """The module with basis vector x renamed sigma[x]."""
    n = len(sigma)
    out = copy.deepcopy(doc)
    out["basis"] = [None] * n
    out["action"] = [None] * n
    out["coaction"] = [None] * n
    for x in range(n):
        out["basis"][sigma[x]] = doc["basis"][x]
        out["action"][sigma[x]] = [{str(sigma[int(y)]): c for y, c in vec.items()}
                                   for vec in doc["action"][x]]
        out["coaction"][sigma[x]] = [[sigma[m], h, c] for m, h, c in doc["coaction"][x]]
    return out


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("yd_*.json")))
def test_relabelling_a_module_conjugates_its_braiding(tmp_path, capsys, fixtures_dir, name):
    import random
    doc = json.loads((fixtures_dir / name).read_text())
    n = len(doc["basis"])
    sigma, rng = list(range(n)), random.Random(name)
    while n > 1 and sigma == sorted(sigma):
        rng.shuffle(sigma)
    (tmp_path / "relabelled.json").write_text(json.dumps(_permute_module(doc, sigma)))
    braidings, ybe = [], []
    for i, source in enumerate((fixtures_dir / name, tmp_path / "relabelled.json")):
        artifact = tmp_path / f"tau{i}.json"
        code, rep = report(capsys, "braiding-matrix", str(source), "--json", str(artifact))
        assert code == 0
        braidings.append(json.loads(artifact.read_text()))
        code, rep = report(capsys, "check-ybe", str(artifact))
        ybe.append((code, rep["ok"]))
    old, new = braidings
    assert new["factor_basis"] == [old["factor_basis"][sigma.index(x)] for x in range(n)]

    def flat(i, j):  # second-factor-major, as in rackyd.linalg.flat2
        return i + n * j

    expect = [None] * n * n
    for i in range(n):
        for j in range(n):
            expect[flat(sigma[i], sigma[j])] = {
                str(flat(sigma[int(r) % n], sigma[int(r) // n])): c
                for r, c in old["columns"][flat(i, j)].items()}
    assert new["columns"] == expect
    assert ybe[0] == ybe[1]


def _refused(capsys, argv, message):
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    assert f"error: {message}" in out.err


def test_a_sparse_term_given_twice_exits_two(tmp_path, capsys, fixtures_dir):
    # as for a braiding column (MALFORMED_SPARSE): a second spelling of an
    # index is not canonical, so the term is refused, not read over the first
    module = json.loads((fixtures_dir / "yd_kereps_z2.json").read_text())
    module["action"][0][1] = {"0": "1", "00": "0"}
    _refused(capsys, ["check-yd", _write(tmp_path, "yd.json", module)],
             "action vector index '00' is not an integer in canonical decimal")
    line = {"dim": 1, "basis": ["x"], "brackets": [{"i": 0, "j": 0, "out": {"0": "1", "+0": "1"}}]}
    _refused(capsys, ["check-leibniz", _write(tmp_path, "line.json", line)],
             "bracket output index '+0' is not an integer in canonical decimal")


def test_a_json_key_given_twice_exits_two(tmp_path, capsys, fixtures_dir):
    # json.load keeps the last value, so both files passed as written
    line = ('{"dim": 1, "basis": ["x"], '
            '"brackets": [{"i": 0, "j": 0, "out": {"0": "1", "0": "0"}}]}')
    path = tmp_path / "line.json"
    path.write_text(line)
    _refused(capsys, ["check-leibniz", str(path)], "JSON object key '0' given twice")
    braid = json.loads((fixtures_dir / "braiding_hv_sparse.json").read_text())
    assert braid["columns"][0] == {"0": "1"}
    braid["columns"][0] = "COLUMN"
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(braid).replace('"COLUMN"', '{"0": "5", "0": "1"}'))
    _refused(capsys, ["check-ybe", str(path)], "JSON object key '0' given twice")


def test_the_first_key_given_twice_is_named(tmp_path, capsys):
    # "a" is repeated before "b" is; each object is read on its own
    path = tmp_path / "keys.json"
    path.write_text('{"elements": ["e"], "mul": [[0]], "a": 1, "b": 2, "a": 3, "b": 4}')
    _refused(capsys, ["make-conjugation", str(path)], "JSON object key 'a' given twice")
    path.write_text('{"elements": ["e"], "mul": [[0]], "x": {"a": 1}, "y": {"a": 2}}')
    assert run(["make-conjugation", str(path)]) == 0


def test_a_bracket_entry_given_twice_exits_two(tmp_path, capsys):
    # [x,x] = x then [x,x] = 0 read as the abelian line, which passes
    entries = [{"i": 0, "j": 0, "out": {"0": "1"}}, {"i": 0, "j": 0, "out": {}}]
    line = {"dim": 1, "basis": ["x"], "brackets": entries}
    _refused(capsys, ["check-leibniz", _write(tmp_path, "line.json", line)],
             "bracket entry (0,0) given twice")
    line["brackets"] = entries[1:]
    assert run(["check-leibniz", _write(tmp_path, "abelian.json", line)]) == 0


def test_a_braiding_without_a_basis_order_is_read(tmp_path, capsys, fixtures_dir):
    braid = json.loads((fixtures_dir / "braiding_hv_sparse.json").read_text())
    del braid["basis_order"]
    assert run(["check-ybe", _write(tmp_path, "braid.json", braid)]) == 0


def test_env_checks_decides_the_restriction_lemma_without_the_invariants(monkeypatch, capsys,
                                                                        fixtures_dir):
    from rackyd import envelope
    calls = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    counted(envelope, "inv_part")
    counted(yd, "check_q_conditions")
    path = str(fixtures_dir / "leibniz_sl2.json")
    assert run(["env-checks", path, "--degree", "3"]) == 0
    assert calls == Counter()
    assert run(["theorem1-bracket", path, "--degree", "3"]) == 0
    assert calls == Counter(inv_part=1, check_q_conditions=1)
