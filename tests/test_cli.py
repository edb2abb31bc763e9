import json

from rackyd import jsonio
from rackyd.cli import run
from rackyd.linalg import Matrix
from rackyd.yd import BraidingMatrix, check_yd


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
    # matches the bundled fixture byte for byte after re-serialization
    bundled = json.loads((fixtures_dir / "matrix_hv_braiding.json").read_text())
    assert payload == bundled


def test_integers_flag_rejects_fractions(capsys, fixtures_dir):
    code = run(["braiding-matrix", str(fixtures_dir / "yd_noninteger.json"), "--integers"])
    assert code == 2
    capsys.readouterr()
    code, rep = report(
        capsys, "braiding-matrix", str(fixtures_dir / "yd_hv_first_order.json"), "--integers"
    )
    assert code == 0
    assert rep["braiding"]["matrix"]["entries"][0][0] == 1


def test_check_ybe_on_braiding_file(capsys, fixtures_dir):
    assert run(["check-ybe", str(fixtures_dir / "matrix_hv_braiding.json")]) == 0


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


def test_check_leibniz_exit_codes(capsys, fixtures_dir):
    assert run(["check-leibniz", str(fixtures_dir / "leibniz_sl2.json")]) == 0
    capsys.readouterr()
    assert run(["check-leibniz", str(fixtures_dir / "leibniz_not.json")]) == 1


def test_rack_braiding_command(capsys, fixtures_dir):
    code, rep = report(capsys, "rack-braiding", str(fixtures_dir / "aug_dihedral3.json"))
    assert code == 0
    assert rep["set_level_ybe"] is True
    assert rep["tensor_size"] == 9


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


def test_make_commands(tmp_path, capsys, fixtures_dir):
    out = tmp_path / "d6.json"
    code, rep = report(capsys, "make-dihedral", "6", "--json", str(out))
    assert code == 0 and rep["is_quandle"] is True
    code, rep = report(capsys, "inner-augmentation", str(out))
    assert code == 0 and rep["inner_group_order"] == 6
    code, rep = report(capsys, "make-conjugation", str(fixtures_dir / "group_s4.json"))
    assert code == 0 and rep["size"] == 24


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
