"""The braiding file formats agree, and the braiding of kX is the set-level one.

A braiding is written as sparse columns and still read from the dense
``matrix`` format; both files of one tau must load to the same columns and
give ``check-ybe`` the same verdict and witness.
"""

import contextlib
import io
import json
import pathlib
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rackyd import jsonio
from rackyd.cli import run
from rackyd.group_hopf import linearize_augmented
from rackyd.linalg import flat2
from rackyd.racks import FiniteGroup, conjugation_augmented, dihedral_quandle, inner_augmentation
from rackyd.yd import BraidingMatrix, braiding

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _fixture_braiding(name):
    return braiding(jsonio.yd_from_dict(json.loads((FIXTURES / name).read_text())))


def _both_formats(bm):
    """The sparse and the dense JSON payloads of one braiding."""
    dense = {"basis_order": bm.convention, "factor_basis": list(bm.factor_basis),
             "matrix": bm.matrix.to_json_dict()}
    return bm.to_json_dict(), dense


def _check_ybe(directory, name, payload):
    """(exit code, witness) of ``check-ybe`` on ``payload`` written to a file."""
    path = pathlib.Path(directory) / name
    path.write_text(json.dumps(payload))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(["check-ybe", str(path)])
    return code, json.loads(out.getvalue()).get("witness")


def _assert_formats_agree(sparse, dense):
    loaded = [BraidingMatrix.from_json_dict(p) for p in (sparse, dense)]
    assert loaded[0].columns == loaded[1].columns
    assert loaded[0].factor_basis == loaded[1].factor_basis
    with tempfile.TemporaryDirectory() as directory:
        verdicts = [_check_ybe(directory, name, p)
                    for name, p in (("sparse.json", sparse), ("dense.json", dense))]
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("yd_*.json")))
def test_sparse_and_dense_files_of_a_fixture_braiding_agree(name):
    bm = _fixture_braiding(name)
    sparse, dense = _both_formats(bm)
    assert BraidingMatrix.from_json_dict(sparse).columns == bm.columns
    _assert_formats_agree(sparse, dense)


S3_CONJ = _fixture_braiding("yd_s3_conj.json")
S3_CONJ_SIDE = S3_CONJ.factor_dim ** 2


@settings(max_examples=40, deadline=None)
@given(row=st.integers(0, S3_CONJ_SIDE - 1), col=st.integers(0, S3_CONJ_SIDE - 1),
       coeff=st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                              Fraction(1, 2)]))
def test_a_single_entry_edit_reads_the_same_in_both_formats(row, col, coeff):
    # the edit is written into each file as it stands, an explicit zero included
    sparse, dense = _both_formats(S3_CONJ)
    sparse["columns"][col][str(row)] = str(coeff)
    dense["matrix"]["entries"][row][col] = str(coeff)
    _assert_formats_agree(sparse, dense)
    edited = {**S3_CONJ.columns[col], row: coeff}
    loaded = BraidingMatrix.from_json_dict(sparse).columns
    assert loaded[col] == {r: c for r, c in edited.items() if c}


AUGMENTED_RACKS = [
    *(pytest.param(inner_augmentation(dihedral_quandle(n)), id=f"D{n}") for n in range(3, 10)),
    *(pytest.param(conjugation_augmented(FiniteGroup.symmetric(n)), id=f"S{n}-conjugation")
      for n in (3, 4)),
]


@pytest.mark.parametrize("aug", AUGMENTED_RACKS)
def test_braiding_of_kx_is_the_set_level_braiding(aug):
    # tau(e_x (x) e_y) = e_y (x) e_{x . p(y)}: the permutation matrix of
    # the set-level braiding c(x, y) = (y, x . p(y))
    n = aug.size
    columns = braiding(linearize_augmented(aug).module).columns
    for x in range(n):
        for y in range(n):
            assert columns[flat2(x, y, n)] == {flat2(y, aug.act(x, aug.p[y]), n): 1}, (x, y)
