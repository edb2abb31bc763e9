"""Every report the CLI prints is built from JSON values alone.

``rackyd.cli.run`` hands each handler's report to ``json.dumps`` as it is,
with no conversion pass, so each report may hold only dicts with str keys,
lists, tuples, str, int, bool and None.  These tests run every command on
fixtures it accepts, failing ones included, over QQ and GF(7), and check
each report that reaches ``json.dumps``.
"""

import pytest

from rackyd import cli

FIELDS = ("rational", "gfp:7")

# command -> (exit code, the arguments after the command name and --field),
# for each of its runs; "{tmp}" is a temporary directory, "{fx}" the fixtures
CASES = {
    "check-rack": [(0, ["{fx}/rack_dihedral3.json"]), (1, ["{fx}/shelf_not_rack.json"]),
                   (1, ["{fx}/not_a_shelf.json"])],
    "make-dihedral": [(0, ["5"]), (0, ["4", "--json", "{tmp}/rack.json"])],
    "make-conjugation": [(0, ["{fx}/group_s3.json"]),
                         (0, ["{fx}/group_s3.json", "--json", "{tmp}/c.json"])],
    "inner-augmentation": [(0, ["{fx}/rack_dihedral4.json"]),
                           (0, ["{fx}/rack_dihedral4.json", "--json", "{tmp}/aug.json"])],
    "check-augmented": [(0, ["{fx}/aug_s3_conj.json"]), (1, ["{fx}/aug_s3_broken.json"])],
    "rack-braiding": [(0, ["{fx}/aug_s3_conj.json"]),
                      (0, ["{fx}/aug_s3_conj.json", "{fx}/aug_s3_conj.json"]),
                      (0, ["{fx}/aug_dihedral3.json", "--json", "{tmp}/t.json"])],
    "linearize": [(0, ["{fx}/aug_s3_conj.json"]),
                  (0, ["{fx}/aug_s3_conj.json", "--json", "{tmp}/m.json"])],
    "check-yd": [(0, ["{fx}/yd_s3_conj.json"]), (1, ["{fx}/yd_s3_broken.json"])],
    "braiding-matrix": [(0, ["{fx}/yd_hv_first_order.json"]),
                        (0, ["{fx}/yd_s3_conj.json", "--integers"]),
                        (0, ["{fx}/yd_s3_broken.json", "--json", "{tmp}/m.json"])],
    # broken_tau.json is the braiding of yd_s3_broken.json, written first
    "check-ybe": [(0, ["{fx}/braiding_hv_sparse.json"]), (0, ["{fx}/matrix_hv_braiding.json"]),
                  (1, ["{tmp}/broken_tau.json"]),
                  (1, ["{tmp}/broken_tau.json", "--json", "{tmp}/defect.json"])],
    "check-leibniz": [(0, ["{fx}/leibniz_sl2.json"]), (1, ["{fx}/leibniz_not.json"])],
    "lie-quotient": [(0, ["{fx}/leibniz_central_square2.json"]),
                     (0, ["{fx}/leibniz_central_square2.json", "--json", "{tmp}/lq.json"])],
    "unital-shelf": [(0, ["{fx}/leibniz_nonabelian2.json"])],
    "first-order-yd": [(0, ["{fx}/leibniz_heisenberg_voros.json"])],
    "hv-rmatrix": [(0, []), (0, ["--integers"]), (0, ["--json", "{tmp}/hv.json"])],
    "env-build": [(0, ["{fx}/leibniz_sl2.json"]),
                  (0, ["{fx}/leibniz_sl2.json", "--json", "{tmp}/env.json"])],
    "env-checks": [(0, ["{fx}/leibniz_sl2.json"]), (0, ["{fx}/leibniz_heisenberg_voros.json"])],
    "theorem1-bracket": [(0, ["{fx}/leibniz_sl2.json"])],
    "q-conditions": [(0, ["{fx}/yd_s3_conj.json", "--rack-q"]),
                     (0, ["{fx}/yd_s3_conj.json", "--q", "{fx}/q_s3_conj.json"]),
                     (1, ["{fx}/yd_s3_broken.json", "--rack-q"])],
    "braided-leibniz": [(0, ["{fx}/yd_s3_conj.json", "--rack-q"]),
                        (0, ["{fx}/yd_s3_conj.json", "--q", "{fx}/q_s3_conj.json"]),
                        (0, ["{fx}/yd_s3_conj.json", "--rack-q", "--json", "{tmp}/b.json"])],
    "dual-check": [(0, ["{fx}/aug_s3_conj.json"]), (1, ["{fx}/aug_s3_broken.json"])],
}


def non_json_values(value, path="report"):
    """The paths in ``value`` that hold something other than a JSON value: a
    dict key that is not a str, a float, or an object of any other type."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                yield f"{path} key {key!r}"
            yield from non_json_values(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from non_json_values(item, f"{path}[{i}]")
    elif not (value is None or isinstance(value, (str, int, bool))):
        yield f"{path} = {value!r}"  # a float lands here: it is no int


def test_every_command_has_a_case():
    assert set(CASES) == set(cli.COMMANDS)


def test_the_checker_finds_what_json_would_convert():
    from fractions import Fraction
    report = {"ok": True, "w": [(1, 2.0)], 3: None, "c": {"x": Fraction(1, 2)}}
    assert list(non_json_values(report)) == [
        "report['w'][0][1] = 2.0", "report key 3", "report['c']['x'] = Fraction(1, 2)"]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("command", sorted(CASES))
def test_reports_hold_only_json_values(command, field, tmp_path, fixtures_dir, monkeypatch,
                                       capsys):
    if command == "check-ybe":
        argv = ["braiding-matrix", "--field", field, str(fixtures_dir / "yd_s3_broken.json"),
                "--json", str(tmp_path / "broken_tau.json")]
        assert cli.run(argv) == 0
    reports, dumps = [], cli.json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda obj, **kw: reports.append(obj) or dumps(obj, **kw))
    codes = [cli.run([command, "--field", field, *(a.format(tmp=tmp_path, fx=fixtures_dir)
                                                    for a in args)])
             for _, args in CASES[command]]
    capsys.readouterr()
    assert codes == [code for code, _ in CASES[command]]
    assert len(reports) == len(codes)
    for report in reports:
        assert list(non_json_values(report)) == []
