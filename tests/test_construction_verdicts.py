"""Verdicts that a command reads off its own construction, against the checks
that once re-decided them.

``make-conjugation`` and ``make-dihedral`` report ``is_quandle`` from the
proofs in the docstrings of ``conjugation_rack`` and ``dihedral_quandle``,
``linearize`` reports ``yd_ok`` from the augmentation identity that
``check_augmented`` proves and writes kX from the augmented rack's tables,
byte for byte the file of the module ``linearize_augmented`` builds,
``first-order-yd`` reports ``yd_ok`` from the proof in ``first_order_yd``'s
docstring,
``rack-braiding`` on one file sweeps that
identity once, and ``inv_part`` reads one left coaction per PBW monomial and
one more for the invariance of 1 (x) M.  ``check_shelf`` and ``check_yd``
stay the references here, on every instance the commands are run on.
"""

import json
import random
from collections import Counter

import pytest
from conftest import FIXTURES

from rackyd import envelope, grouptable, jsonio, racks, yd
from rackyd.cli import _write_json, run
from rackyd.envelope import EnvTetramodule, build_env, inv_part
from rackyd.group_hopf import linearize_augmented
from rackyd.leibniz import LeibnizAlgebra, first_order_yd, heisenberg_voros, lie_map_object, sl2
from rackyd.racks import (
    AugmentedRack,
    FiniteGroup,
    check_augmented,
    check_shelf,
    conjugation_augmented,
    conjugation_rack,
    dihedral_quandle,
    inner_augmentation,
)
from rackyd.scalars import QQ, PrimeField

FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(PrimeField(7), id="GF7")]


@pytest.fixture
def calls(monkeypatch):
    """A Counter of the calls to the deleted re-checks and to the augmentation
    sweep, made through their modules."""
    counts = Counter()
    for owner, name in ((racks, "check_shelf"), (grouptable, "augmentation_witness"),
                        (yd, "check_yd")):
        def counted(*args, _real=getattr(owner, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, counted)
    return counts


def _report(capsys, argv):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


def relabelled(group, seed):
    """``group`` with its elements put in a seeded random order."""
    order = list(range(group.size))
    random.Random(seed).shuffle(order)  # element a moves to index order[a]
    mul = [[0] * group.size for _ in order]
    elements = [""] * group.size
    for a in range(group.size):
        elements[order[a]] = group.elements[a]
        for b in range(group.size):
            mul[order[a]][order[b]] = order[group.mul[a][b]]
    return FiniteGroup(elements, mul)


def _groups():
    named = [(path.stem, FiniteGroup.from_json_dict(json.loads(path.read_text())))
             for path in sorted(FIXTURES.glob("group_*.json"))]
    named += [("S4", FiniteGroup.symmetric(4)), ("S5", FiniteGroup.symmetric(5))]
    for name, group in named:
        yield pytest.param(group, id=name)
        for seed in (1, 2, 3):
            yield pytest.param(relabelled(group, seed), id=f"{name}-relabelled-{seed}")


@pytest.mark.parametrize("group", _groups())
def test_make_conjugation_reads_the_quandle_off_the_group(group, tmp_path, capsys, calls):
    shelf = conjugation_rack(group)
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group.to_json_dict()))
    report = _report(capsys, ["make-conjugation", str(path), "--json", str(tmp_path / "r.json")])
    assert calls == Counter()
    assert report["is_quandle"] is True and report["size"] == group.size
    assert json.loads((tmp_path / "r.json").read_text()) == shelf.to_json_dict()
    assert check_shelf(shelf).is_quandle


@pytest.mark.parametrize("group", [*_groups(), pytest.param(FiniteGroup.cyclic(1), id="trivial")])
def test_conjugation_tables_are_the_entrywise_conjugates(group):
    # built a column at a time from the mul and inv rows, not by group.conj
    n = group.size
    want = tuple(tuple(group.conj(x, y) for y in range(n)) for x in range(n))
    assert conjugation_rack(group).op == want
    assert conjugation_augmented(group).action == want


@pytest.mark.parametrize("group", [*_groups(), pytest.param(FiniteGroup.cyclic(1), id="trivial")])
def test_conjugation_augmented_is_built_as_proved(group):
    # the verifying constructor accepts the conjugation action, and the rack
    # it induces is the conjugation quandle
    aug = conjugation_augmented(group)
    assert AugmentedRack(group.elements, group, aug.action, aug.p) == aug
    assert check_augmented(aug).ok
    assert racks._induced_table(aug) == conjugation_rack(group)


@pytest.mark.parametrize("n", range(1, 41))
def test_make_dihedral_reads_the_quandle_off_the_formula(n, capsys, calls):
    report = _report(capsys, ["make-dihedral", str(n)])
    assert calls == Counter()
    assert report["is_quandle"] is True and report["size"] == n
    assert report["rack"] == dihedral_quandle(n).to_json_dict()
    assert check_shelf(dihedral_quandle(n)).is_quandle


def _augmented():
    for path in sorted(FIXTURES.glob("aug_*.json")):
        yield pytest.param(AugmentedRack.from_json_dict(json.loads(path.read_text())),
                           id=path.stem)
    for n in range(3, 13):
        yield pytest.param(inner_augmentation(dihedral_quandle(n)), id=f"D{n}-inner")
    for n in (3, 4):
        yield pytest.param(conjugation_augmented(FiniteGroup.symmetric(n)),
                           id=f"S{n}-conjugation")


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("aug", _augmented())
def test_linearize_reads_yd_off_the_augmentation_identity(aug, field, tmp_path, capsys, calls):
    path = tmp_path / "aug.json"
    path.write_text(json.dumps(aug.to_json_dict()))
    argv = ["linearize", str(path), "--field", "rational" if field is QQ else "gfp:7"]
    rep = check_augmented(aug)
    if not rep.ok:  # refused before anything is written
        assert run(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"error: augmentation identity fails at {rep.witness}\n")
        return
    module = linearize_augmented(aug, field).module
    calls.clear()
    assert run(argv) == 0
    assert calls == Counter({"augmentation_witness": 1})
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["yd_ok"] is True and report["dim"] == aug.size
    assert yd.check_yd(module).ok
    # the module in the report and in the artifact is the file of the module
    # linearize_augmented builds, byte for byte once written
    expected = jsonio.yd_to_dict(module)
    assert out == json.dumps({**report, "module": expected}, indent=2, sort_keys=True) + "\n"
    calls.clear()
    assert run([*argv, "--json", str(tmp_path / "kX.json")]) == 0
    assert calls == Counter({"augmentation_witness": 1})
    _write_json(tmp_path / "reference.json", expected)
    assert (tmp_path / "kX.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    capsys.readouterr()


def _leibniz_fixtures():
    for path in sorted(FIXTURES.glob("leibniz_*.json")):
        if path.name != "leibniz_not.json":
            yield pytest.param(path, id=path.stem)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("path", _leibniz_fixtures())
def test_first_order_yd_reads_yd_off_its_construction(path, degree, field, tmp_path, capsys,
                                                     calls):
    alg = LeibnizAlgebra.from_json_dict(json.loads(path.read_text()), field)
    module = first_order_yd(alg, degree)
    argv = ["first-order-yd", str(path), "--degree", str(degree),
            "--field", "rational" if field is QQ else "gfp:7"]
    report = _report(capsys, argv)
    assert report["yd_ok"] is True and report["dim"] == module.dim
    assert report["module"] == jsonio.yd_to_dict(module)
    report = _report(capsys, [*argv, "--json", str(tmp_path / "m.json")])
    assert report["yd_ok"] is True and report["artifact"] == str(tmp_path / "m.json")
    assert json.loads((tmp_path / "m.json").read_text()) == jsonio.yd_to_dict(module)
    assert calls == Counter()
    assert yd.check_yd(module).ok


def test_first_order_yd_still_refuses_a_bracket_that_is_not_leibniz(capsys):
    assert run(["first-order-yd", str(FIXTURES / "leibniz_not.json")]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: Leibniz identity fails at basis triple (0, 0, 0)\n")


def test_every_augmented_fixture_but_the_broken_one_linearizes():
    verdicts = {param.id: check_augmented(param.values[0]).ok for param in _augmented()}
    assert [name for name, ok in verdicts.items() if not ok] == ["aug_s3_broken"]


def test_rack_braiding_of_a_broken_rack_with_itself_sweeps_once(capsys, calls, fixtures_dir):
    assert run(["rack-braiding", str(fixtures_dir / "aug_s3_broken.json")]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "error: augmentation identity fails at (1, 2)" in out.err
    assert calls == Counter({"augmentation_witness": 1})


def test_rack_braiding_sweeps_each_file_once(capsys, calls, fixtures_dir):
    conj = str(fixtures_dir / "aug_s3_conj.json")
    assert run(["rack-braiding", conj]) == 0
    assert calls == Counter({"augmentation_witness": 1})
    assert run(["rack-braiding", conj, conj]) == 0  # two files are two objects
    assert calls == Counter({"augmentation_witness": 3})
    capsys.readouterr()


@pytest.fixture
def coactions(monkeypatch):
    """Counts the left coactions every tetramodule reads."""
    counts = Counter()
    real = EnvTetramodule.left_coaction

    def counted(self, e):
        counts["left_coaction"] += 1
        return real(self, e)
    monkeypatch.setattr(EnvTetramodule, "left_coaction", counted)
    return counts


@pytest.mark.parametrize("make", [heisenberg_voros, sl2], ids=["HV", "sl2"])
@pytest.mark.parametrize("degree", range(5))
def test_inv_part_reads_one_coaction_per_monomial(make, degree, coactions):
    env = build_env(lie_map_object(make()), degree)
    assert env.module_dim == 3
    inv_part(env)
    assert coactions["left_coaction"] == env.pbw.size + 1


def test_theorem1_bracket_reads_one_coaction_per_monomial(monkeypatch, capsys, coactions,
                                                          fixtures_dir):
    built = []

    def recorded(obj, degree, _real=envelope.build_env):
        built.append(_real(obj, degree))
        return built[-1]
    monkeypatch.setattr(envelope, "build_env", recorded)
    path = str(fixtures_dir / "leibniz_sl2.json")
    assert run(["theorem1-bracket", path, "--degree", "6"]) == 0
    capsys.readouterr()
    (env,) = built
    assert env.module_dim == 3 and env.pbw.size == 84
    assert coactions["left_coaction"] == env.pbw.size + 1
