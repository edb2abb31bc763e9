"""The result records are immutable NamedTuples, and importing the CLI stays cheap.

Each record was a frozen dataclass; importing ``dataclasses`` (which pulls in
``inspect``) and generating each record's methods cost every ``rackyd``
process about 20 ms of start-up.
"""

import pathlib
import subprocess
import sys
from functools import cached_property

import pytest

import rackyd
from rackyd import envelope, group_hopf, leibniz, racks, yd
from rackyd.yd import BraidingMatrix, YBEReport, check_ybe, flip_columns

RECORDS = [
    (racks, "ShelfReport"), (racks, "AugmentedReport"),
    (yd, "YDReport"), (yd, "YBEReport"), (yd, "QConditionsReport"),
    (yd, "BraidedLeibnizData"), (yd, "BraidedLeibnizReport"),
    (group_hopf, "LinearizedRack"), (group_hopf, "DualReport"),
    (leibniz, "LeibnizReport"), (leibniz, "LieQuotientData"), (leibniz, "BilinearMap"),
    (envelope, "PhiReport"), (envelope, "InvariantPart"), (envelope, "LemmaReport"),
    (envelope, "AntipodeReport"),
]


def test_importing_the_cli_imports_neither_dataclasses_nor_inspect():
    src = str(pathlib.Path(rackyd.__file__).resolve().parent.parent)
    script = (f"import sys; sys.path.insert(0, {src!r}); import rackyd.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    # -S: no site hook, so nothing but rackyd.cli can have imported them
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("module, name", RECORDS, ids=[name for _, name in RECORDS])
def test_every_field_of_a_record_is_read_only(module, name):
    cls = getattr(module, name)
    assert issubclass(cls, tuple)
    fields = cls._fields + (("sides",) if cls is YBEReport else ())
    record = cls(*[None] * len(fields))
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        assert getattr(record, field) is None


def _failing_ybe():
    # the flip on 3 basis vectors with e_1 (x) e_0 -> e_0 (x) e_1 + e_1 (x) e_0
    columns = flip_columns(3)
    columns[1] = {3: 1, 1: 1}
    return check_ybe(BraidingMatrix(columns, "abc"))


def test_ybe_defect_is_built_on_first_read_and_sides_stay_out_of_eq_and_repr():
    assert isinstance(vars(YBEReport)["defect"], cached_property)
    rep = _failing_ybe()
    assert "defect" not in vars(rep)
    defect = rep.defect
    assert vars(rep)["defect"] is defect and rep.defect is defect
    assert len(defect) == 27 and defect[0] == {} and defect[1] != {}
    again = _failing_ybe()
    assert again.sides is not rep.sides and again == rep
    assert rep == (False, (1, 0, 0), 27)
    assert repr(rep) == "YBEReport(ok=False, witness=(1, 0, 0), size=27)"
