"""Braidings on M (x) M and the Yang-Baxter equation.

A braiding tau on a module M of dimension n is held as its n*n sparse
columns in the flattening convention of :mod:`rackyd.linalg`.  The braid
relation

    (T x 1)(1 x T)(T x 1) = (1 x T)(T x 1)(1 x T)

is linear, so it holds exactly when it holds on every basis triple
e_i (x) e_j (x) e_k; :func:`check_ybe` decides it that way and names the
lexicographically least failing triple.

A tau in *rack form*, ``tau(e_x (x) e_y) = c(x, y) e_y (x) e_(x <| y)`` with
every c nonzero (c = 1 on a linearized rack kX), sends e_x e_y e_z under the
two sides to ``c(y, z) e_z e_(y <| z)`` times ``c(x, y) c(x <| y, z) e_w``
and ``c(x, z) c(x <| z, y <| z) e_w'``, w = ``(x <| y) <| z`` and w' =
``(x <| z) <| (y <| z)``.  So it fails exactly where ``<|`` is not
self-distributive (:func:`rackyd.selfdist.witnesses`) or that cocycle
identity fails, swept only when the c differ.  Other taus are swept sparsely.

This module needs nothing of the Hopf-descriptor layer: :func:`braiding`
reads a :class:`rackyd.yd.YDModule` only through its coaction and action.
"""

import math
from typing import NamedTuple

from .errors import ShapeError, ValidationError
from .linalg import (
    Matrix, flat2, integral, lincomb, sparse_rows_from_json, vec_reader, vec_to_json,
)
from .scalars import QQ, GFElement
from .selfdist import witnesses


class BraidingMatrix:
    """The map tau on M (x) M, in the global flattening convention.

    It is held as n*n sparse columns, ``columns[flat2(a, b, n)]`` being
    tau(e_a (x) e_b), one per basis pair of ``factor_basis``; ``matrix`` is
    the dense view, built on first use.

    The JSON format is the columns themselves::

        {"basis_order": "second-factor-major", "factor_basis": [...],
         "columns": [{"<row>": "<coeff>", ...}, ...]}

    with zero coefficients omitted.  The dense format of older files, with
    ``"matrix": <Matrix JSON>`` in place of ``"columns"``, is still read, and
    so is a bare ``Matrix`` JSON, on the factor basis 0..n-1; neither builds
    the dense matrix.  A ``basis_order`` other than ``convention`` is
    refused; a file without one is read in that order.
    """

    convention = "second-factor-major"

    def __init__(self, columns, factor_basis):
        self.columns = tuple(columns)
        self._matrix = None
        self.factor_basis = tuple(factor_basis)
        n = self.factor_dim
        if len(self.columns) != n * n:
            raise ShapeError(
                f"a braiding of {n} basis vectors needs {n * n} columns, got {len(self.columns)}")
        if any(not 0 <= r < n * n for col in self.columns for r in col):
            raise ShapeError(f"a braiding of {n} basis vectors has rows 0..{n * n - 1} only")

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            self._matrix = Matrix.from_columns(self.columns, len(self.columns))
        return self._matrix

    @property
    def factor_dim(self) -> int:
        return len(self.factor_basis)

    def to_json_dict(self, integers=False, lazy=False):
        """The JSON format; ``integers`` writes each coefficient as an int
        (a ValidationError unless it is integral), and ``lazy`` gives the
        columns as an iterator, for :func:`rackyd.jsonwrite.dump`."""
        columns = (map(vec_to_json, self.columns) if not integers else
                   ({str(r): integral(c) for r, c in col.items()} for col in self.columns))
        return {
            "basis_order": self.convention,
            "factor_basis": list(self.factor_basis),
            "columns": columns if lazy else list(columns),
        }

    def int_rows(self):
        """The dense matrix as rows of ints; a ValidationError unless every
        entry is integral."""
        return self.matrix.as_int_rows()

    @classmethod
    def from_json_dict(cls, d, field=QQ):
        try:
            if not (isinstance(d, dict) and ("columns" in d or "matrix" in d)):
                n, tau = _columns_from_json(d, field)
                return cls(tau, range(n))
            basis = d["factor_basis"]
            if not isinstance(basis, list):
                raise ValidationError("braiding factor_basis must be a list of labels")
            order = d.get("basis_order", cls.convention)
            if order != cls.convention:
                raise ValidationError(
                    f"braiding basis_order must be {cls.convention!r}, got {order!r}")
            if "columns" in d:
                size = len(d["columns"])  # the matrix is square
                tau = list(map(vec_reader(field, "braiding column", size), d["columns"]))
            else:
                _, tau = _columns_from_json(d["matrix"], field)
        except (KeyError, TypeError) as exc:
            raise ValidationError("braiding JSON needs factor_basis and columns or matrix") from exc
        return cls(tau, basis)


def _columns_from_json(d, field):
    """n and the sparse columns of an n^2 x n^2 matrix in the dense JSON format."""
    rows, cols, sparse = sparse_rows_from_json(d, field)
    n = _square_side(rows, cols)
    columns = [{} for _ in range(cols)]
    for i, row in enumerate(sparse):
        for j, c in row.items():
            columns[j][i] = c
    return n, columns


def braiding(module) -> BraidingMatrix:
    """``tau(x (x) y) = y_(0) (x) x . y_(1)`` on basis pairs of a YDModule."""
    n = module.dim
    one = module.field.one
    columns = [None] * (n * n)
    for a in range(n):
        for b in range(n):
            columns[flat2(a, b, n)] = lincomb(module._coact[b], lambda bh: {
                flat2(bh[0], m, n): c for m, c in module.act_basis({a: one}, bh[1]).items()})
    return BraidingMatrix(columns, module.basis)


def flip_columns(n: int, one=1) -> list:
    """The sparse columns of the tensor flip e_i (x) e_j -> e_j (x) e_i."""
    return [{flat2(f // n, f % n, n): one} for f in range(n * n)]


def flip_matrix(n: int, field=QQ) -> Matrix:
    """The tensor flip e_i (x) e_j -> e_j (x) e_i as a matrix."""
    return Matrix.from_columns(flip_columns(n, field.one), n * n)


def _square_side(rows, cols) -> int:
    if rows != cols:
        raise ShapeError("braiding matrix must be square")
    n = math.isqrt(rows)
    if n * n != rows:
        raise ShapeError("braiding matrix size must be a perfect square")
    return n


class YBEReport(NamedTuple):
    ok: bool
    witness: tuple | None
    size: int  # n^3, the number of basis triples


def _ybe_sides(t: BraidingMatrix):
    """n, and f -> (lhs, rhs): both sides of the braid relation at the flat triple e_f."""
    columns, n = t.columns, t.factor_dim
    nn = n * n

    def t12(f):  # f = flat2(flat2(i, j, n), k, nn)
        ij, k = f % nn, f // nn
        return {flat2(r, k, nn): c for r, c in columns[ij].items()}

    def t23(f):  # f = flat2(i, flat2(j, k, n), n)
        i, jk = f % n, f // n
        return {flat2(i, r, n): c for r, c in columns[jk].items()}

    return n, lambda f: (lincomb(lincomb(t12(f), t23), t12), lincomb(lincomb(t23(f), t12), t23))


def _rack_form(t: BraidingMatrix):
    """``(op, coef)`` with ``tau(e_x (x) e_y) = coef[f] e_y (x) e_(op[x][y])``
    at f = x + n*y and every coef[f] nonzero, or None when tau is not so."""
    n = t.factor_dim
    img, coef = [], []
    for f, col in enumerate(t.columns):
        if len(col) != 1:
            return None
        (r, c), = col.items()
        if not c or r % n != f // n:
            return None
        img.append(r // n)
        coef.append(c)
    return [img[x::n] for x in range(n)], coef


def _numerators(coef):
    """``coef`` times the lcm D of its denominators, as ints, when some are
    ``Fraction``s; any other list comes back as it is.  Each side of the
    cocycle identity is a product of two coefficients, so scaling every one
    by D scales both sides by D^2: they compare as before, on ints."""
    if all(type(c) is int for c in coef) or any(isinstance(c, GFElement) for c in coef):
        return coef
    d = math.lcm(*(c.denominator for c in coef))
    return [c.numerator * (d // c.denominator) for c in coef]


def _cocycle_failure(op, coef, bound):
    """The least (x, y, z) below ``bound`` with ``c(x, y) c(x <| y, z) !=
    c(x, z) c(x <| z, y <| z)``, c(x, y) = coef[x + n*y], or None."""
    n = len(op)
    C = [coef[x::n] for x in range(n)]
    for x, (row, c_x) in enumerate(zip(op, C)):
        for y, xy in enumerate(row):
            if (x, y) > bound[:2]:
                return None
            c, c_xy, op_y = c_x[y], C[xy], op[y]
            for z in range(n):
                if c * c_xy[z] != c_x[z] * C[row[z]][op_y[z]] and (x, y, z) < bound:
                    return (x, y, z)
    return None


def check_ybe(t: BraidingMatrix) -> YBEReport:
    """Exact Yang-Baxter check: (T x 1)(1 x T)(T x 1) = (1 x T)(T x 1)(1 x T).

    A tau in rack form is decided on its table (see the module docstring);
    any other has both sides applied to one basis triple e_i (x) e_j (x) e_k
    at a time.  On failure ``witness`` is the lexicographically least failing
    (i, j, k); :func:`ybe_defect` gives the difference of the two sides.
    """
    n = t.factor_dim
    nn = n * n
    form = _rack_form(t)
    if form is not None:
        op, coef = form
        witness = witnesses(op)[0]
        if len(set(coef)) > 1:
            witness = _cocycle_failure(op, _numerators(coef), witness or (n,)) or witness
    else:
        _, sides = _ybe_sides(t)

        def fails(i, j, k):
            lhs, rhs = sides(flat2(flat2(i, j, n), k, nn))
            return lhs != rhs

        triples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
        witness = next((ijk for ijk in triples if fails(*ijk)), None)
    return YBEReport(witness is None, witness, nn * n)


def ybe_defect(t: BraidingMatrix) -> tuple:
    """The n^3 sparse columns of (T x 1)(1 x T)(T x 1) - (1 x T)(T x 1)(1 x T).

    Column f is the difference at the flat triple e_f, so it is empty exactly
    where the braid relation holds.
    """
    n, sides = _ybe_sides(t)
    return tuple(lincomb({0: 1, 1: -1}, sides(f).__getitem__) for f in range(n ** 3))


def is_involutive(t: BraidingMatrix) -> bool:
    columns = t.columns
    return all(lincomb(col, columns.__getitem__) == {f: 1} for f, col in enumerate(columns))
