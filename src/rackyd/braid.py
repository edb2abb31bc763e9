"""Braidings on M (x) M and the Yang-Baxter equation.

A braiding tau on a module M of dimension n is held as its n*n sparse
columns in the flattening convention of :mod:`rackyd.linalg`.  The braid
relation

    (T x 1)(1 x T)(T x 1) = (1 x T)(T x 1)(1 x T)

is linear, so it holds exactly when it holds on every basis triple
e_i (x) e_j (x) e_k; :func:`check_ybe` decides it that way and names the
lexicographically least failing triple.

When every column of tau is one basis vector times a nonzero scalar (a
*monomial* braiding, as on every linearized rack kX, where the scalar is 1),
each side of the relation sends a basis triple to one basis triple times a
product of three scalars, so the sweep runs on an image-index table and a
coefficient table instead of sparse vectors, in the same order and with the
same witness.  Any other tau is swept on sparse vectors.

This module needs nothing of the Hopf-descriptor layer: :func:`braiding`
reads a :class:`rackyd.yd.YDModule` only through its coaction and action.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ShapeError, ValidationError
from .linalg import Matrix, flat2, lincomb, sparse_rows_from_json, vec_from_json, vec_to_json
from .scalars import QQ


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

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            self._matrix = Matrix.from_columns(self.columns, len(self.columns))
        return self._matrix

    @property
    def factor_dim(self) -> int:
        return len(self.factor_basis)

    def to_json_dict(self):
        return {
            "basis_order": self.convention,
            "factor_basis": list(self.factor_basis),
            "columns": [vec_to_json(col) for col in self.columns],
        }

    @classmethod
    def from_json_dict(cls, d, field=QQ):
        try:
            if not (isinstance(d, dict) and ("columns" in d or "matrix" in d)):
                n, tau = _columns_from_json(d, field)
                return cls(tau, range(n))
            basis = tuple(d["factor_basis"])
            order = d.get("basis_order", cls.convention)
            if order != cls.convention:
                raise ValidationError(
                    f"braiding basis_order must be {cls.convention!r}, got {order!r}")
            if "columns" in d:
                size = len(d["columns"])  # the matrix is square
                tau = [vec_from_json(col, field, "braiding column", size) for col in d["columns"]]
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


def _monomial_tables(columns):
    """``(img, coef)`` with ``columns[f] == {img[f]: coef[f]}``, or None when
    some column is not a single nonzero entry at a row of the square."""
    img, coef = [], []
    for col in columns:
        if len(col) != 1:
            return None
        (r, c), = col.items()
        if not c or not 0 <= r < len(columns):
            return None
        img.append(r)
        coef.append(c)
    return img, coef


def _monomial_failures(n, img, coef):
    """The failing basis triples of a monomial braiding, in lexicographic order.

    With tau(e_a (x) e_b) = coef[f] e_img[f] (f = a + n*b) and ``lo``, ``hi``
    the two factors of an image index, T x 1 sends e_i e_j e_k to
    e_p e_q e_k (p, q the factors of img[i + n*j]) and 1 x T sends it to
    e_i e_a e_b (a, b those of img[j + n*k]).  Tables are sliced by first
    factor, ``IMG[x][y] = img[x + n*y]``, so each side is a few lookups.
    """
    nn = n * n
    lo = [r % n for r in img]
    hi = [r // n for r in img]
    IMG, LO, HI, C = ([t[x::n] for x in range(n)] for t in (img, lo, hi, coef))
    # every side is a product of three coefficients, so equal ones never differ
    scaled = len(set(coef)) > 1
    for i in range(n):
        lo_i, hi_i, c_i = LO[i], HI[i], C[i]
        for j in range(n):
            ij = i + n * j
            p, q = lo[ij], hi[ij]
            img_p, c_p = IMG[p], C[p]
            rows = zip(LO[q], HI[q], LO[j], HI[j])
            for k, (u, v, a, b) in enumerate(rows):
                # lhs: e_p e_u e_v, then T x 1 on (p, u); rhs: T x 1 on (i, a),
                # giving e_lo[ia] e_y e_b, then 1 x T on (y, b)
                y = hi_i[a]
                if img_p[u] + nn * v != lo_i[a] + n * IMG[y][b] or scaled and (
                        coef[ij] * C[q][k] * c_p[u] != C[j][k] * c_i[a] * C[y][b]):
                    yield (i, j, k)


def check_ybe(t: BraidingMatrix) -> YBEReport:
    """Exact Yang-Baxter check: (T x 1)(1 x T)(T x 1) = (1 x T)(T x 1)(1 x T).

    Both sides are applied to one basis triple e_i (x) e_j (x) e_k at a time,
    on index tables when tau is monomial (see the module docstring).  On
    failure ``witness`` is the lexicographically least failing (i, j, k);
    :func:`ybe_defect` gives the difference of the two sides.
    """
    n = t.factor_dim
    nn = n * n
    tables = _monomial_tables(t.columns)
    if tables is not None:
        failures = _monomial_failures(n, *tables)
    else:
        _, sides = _ybe_sides(t)

        def fails(i, j, k):
            lhs, rhs = sides(flat2(flat2(i, j, n), k, nn))
            return lhs != rhs

        triples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
        failures = (ijk for ijk in triples if fails(*ijk))
    witness = next(failures, None)
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
