"""Exact linear algebra on sparse vectors, with dense matrices as a view.

A sparse vector is a dict ``{index: coefficient}`` with no zero
coefficients.  A linear map is given by its values on basis elements: any
function from a basis index to a sparse vector, often the ``__getitem__`` of
a tuple of sparse columns.  :func:`lincomb` extends such a function
linearly.  Every identity the package checks is multilinear, so every check
comes down to that one operation.

The tensor flattening convention is fixed once and for all: the basis vector
e_i (x) e_j of two factors of dimensions m, n sits at flat index ``i + m*j``
(0-based; equivalently ``m*(j-1) + i`` 1-based).  The first factor varies
fastest, and the convention extends associatively to any number of factors.
A map T on M (x) M (dim M = n) is a tuple of n*n sparse columns under this
flattening; on M (x) M (x) M, T (x) 1 acts on the flat index
``(i + n*j) + n*n*k`` through column ``i + n*j`` and 1 (x) T on
``i + n*(j + n*k)`` through column ``j + n*k``.  Every map on tensor powers
of one module uses this flattening.  The one other order in the package is
the enveloping tetramodule's basis u (x) m of U(g) (x) M, which puts m
fastest (:meth:`rackyd.envelope.EnvTetramodule.eidx`).

In JSON a sparse vector is an object ``{"<index>": "<coefficient>"}``
(:func:`vec_to_json`, :func:`vec_from_json`), and a map is the list of its
columns in that form.

``Matrix`` is the dense view of such a map, used for display, for the dense
JSON format and as the reference in tests; ``kron`` follows the same
convention, so dense composites like (T (x) 1)(1 (x) T) are plain matrix
products.  Matrices are immutable after construction and may be shared
freely.  The echelon utilities take and return sparse vectors: a reduced
echelon basis is a dict ``{pivot: sparse row}``.
"""

from .errors import ShapeError, ValidationError, as_int
from .scalars import QQ, quotient


def lincomb(vec, col):
    """``sum of vec[i] * col(i)``: the linear extension of ``col``.

    ``col`` sends a basis index to a sparse vector; the result is a sparse
    vector with zero coefficients dropped.
    """
    out = {}
    for i, c in vec.items():
        for k, v in col(i).items():
            if k in out:
                out[k] += c * v
            else:
                out[k] = c * v
    return {k: v for k, v in out.items() if v}


def vsum(*vecs):
    """The sum of sparse vectors (with one argument: its nonzero part)."""
    return lincomb(dict.fromkeys(range(len(vecs)), 1), vecs.__getitem__)


def flat2(i: int, j: int, m: int) -> int:
    """Flat index of e_i (x) e_j when the first factor has dimension m."""
    return i + m * j


def vec_to_json(vec) -> dict:
    """A sparse vector as a JSON object, scalars as strings.  The keys keep
    the vector's order: the CLI writes with ``sort_keys``, which orders them."""
    return {str(i): str(c) for i, c in vec.items()}


def vec_from_json(vec, field, what, size=None) -> dict:
    """Read a sparse vector written by :func:`vec_to_json`.

    Zero coefficients are dropped; with ``size``, every index must lie in
    ``range(size)``.  Malformed input raises a ValidationError.  An index, a
    JSON object key, is read only in canonical decimal (``"0"``, ``"17"``, not
    ``"01"``, ``" 1"``, ``"+1"`` or ``"1_0"``), so each index has one spelling
    and no object names one twice.
    """
    return vec_reader(field, what, size)(vec)


def vec_reader(field, what, size=None):
    """``vec_from_json(vec, field, what, size)`` as a function of ``vec``, for
    reading many vectors: each distinct coefficient string is parsed once,
    and a one-entry vector whose string is parsed already skips the loop."""
    literals = {}

    def parse(c):
        if type(c) is not str:
            return field.parse(c)
        x = literals.get(c)
        if x is None:
            x = literals[c] = field.parse(c)
        return x

    def read(vec):
        if type(vec) is dict and len(vec) == 1:
            (k, c), = vec.items()
            x = literals.get(c) if type(c) is str else None
            if (x is not None and type(k) is str and k.isascii() and k.isdigit()
                    and (k == "0" or k[0] != "0")):
                i = int(k)
                if size is None or i < size:
                    return {i: x} if x else {}
        if not isinstance(vec, dict):
            raise ValidationError(f"{what} must be an object of index: coefficient")
        out = {}
        for k, c in vec.items():
            if not (isinstance(k, str) and k.isascii() and k.isdigit() and (k == "0" or k[0] != "0")):
                raise ValidationError(f"{what} index {k!r} is not an integer in canonical decimal")
            i = int(k)
            if size is not None and i >= size:
                raise ValidationError(f"{what} index {i} out of range({size})")
            x = parse(c)
            if x:
                out[i] = x
        return out

    return read


def sparse_rows_from_json(d, field=QQ):
    """``(rows, cols, sparse rows)`` of a matrix in the dense JSON format
    ``{"rows", "cols", "entries"}`` of :meth:`Matrix.to_json_dict`.

    Every entry is parsed, so a malformed one raises ValidationError, and the
    table must match the declared shape; only the nonzero entries are kept.
    A field parses an entry through its ``str``, so each distinct literal is
    parsed once.
    """
    parsed = {}

    def parse(s):
        key = str(s)
        if key not in parsed:
            parsed[key] = field.parse(s)
        return parsed[key]

    try:
        rows, cols, entries = as_int(d["rows"], "rows"), as_int(d["cols"], "cols"), d["entries"]
        sparse = [{j: x for j, x in enumerate(map(parse, row)) if x} for row in entries]
    except (KeyError, TypeError) as exc:
        raise ValidationError("matrix JSON needs rows/cols/entries") from exc
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ShapeError("entry table does not match declared shape")
    return rows, cols, sparse


def integral(a) -> int:
    """A rational or GF(p) scalar as a plain int; raises unless it is integral."""
    if getattr(a, "denominator", 1) != 1:
        raise ValidationError(f"non-integral entry {a}")
    return int(a) if not hasattr(a, "v") else a.v


class Matrix:
    """A dense matrix of exact scalars; equality is entrywise and exact."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data, rows=None, cols=None):
        data = tuple(tuple(row) for row in data)
        if rows is None:
            if not data:
                raise ShapeError("pass explicit rows/cols for an empty matrix")
            rows, cols = len(data), len(data[0])
        for row in data:
            if len(row) != cols:
                raise ShapeError("ragged rows")
        if len(data) != rows:
            raise ShapeError(f"expected {rows} rows, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, rows, cols, field=QQ):
        z = field.zero
        return cls(tuple(tuple(z for _ in range(cols)) for _ in range(rows)), rows, cols)

    @classmethod
    def identity(cls, n, field=QQ):
        one, zero = field.one, field.zero
        return cls(
            tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)),
            n, n,
        )

    @classmethod
    def from_columns(cls, columns, rows):
        """Dense view of a map given by its sparse columns."""
        some = next((c for col in columns for c in col.values()), 0)
        zero = some * 0
        data = [[zero] * len(columns) for _ in range(rows)]
        for j, col in enumerate(columns):
            for i, c in col.items():
                data[i][j] = c
        return cls(data, rows, len(columns))

    def columns(self) -> tuple:
        """The columns as sparse vectors."""
        return tuple(
            {i: row[j] for i, row in enumerate(self.data) if row[j]}
            for j in range(self.cols)
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("matrix addition needs equal shapes")
        return Matrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)),
            self.rows, self.cols,
        )

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError("matrix subtraction needs equal shapes")
        return Matrix(
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)),
            self.rows, self.cols,
        )

    def is_zero(self) -> bool:
        return all(not a for row in self.data for a in row)

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(
            (a == 1 if i == j else not a)
            for i, row in enumerate(self.data)
            for j, a in enumerate(row)
        )

    def as_int_rows(self):
        """Rows as plain ints; raises unless every entry is integral."""
        return [[integral(a) for a in row] for row in self.data]

    def to_json_dict(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(a) for a in row] for row in self.data],
        }

    @classmethod
    def from_json_dict(cls, d, field=QQ):
        rows, cols, sparse = sparse_rows_from_json(d, field)
        return cls([[row.get(j, field.zero) for j in range(cols)] for row in sparse], rows, cols)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact matrix product; skips zero entries, which makes the sparse
    permutation-like matrices of the braiding checks cheap."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    out = [[None] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        arow = a.data[i]
        orow = out[i]
        for k in range(a.cols):
            c = arow[k]
            if not c:
                continue
            brow = b.data[k]
            for j, v in enumerate(brow):
                if v:
                    cv = c * v
                    orow[j] = cv if orow[j] is None else orow[j] + cv
    # fill holes with an actual zero scalar of the right type
    some = next((x for row in a.data for x in row), None)
    if some is None:
        some = next((x for row in b.data for x in row), None)
    z = (some - some) if some is not None else 0
    for i in range(a.rows):
        orow = out[i]
        for j in range(b.cols):
            if orow[j] is None:
                orow[j] = z
    return Matrix(out, a.rows, b.cols)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product under the package flattening convention:
    ``kron(a, b)[i + a.rows*i2, j + a.cols*j2] = a[i, j] * b[i2, j2]``."""
    some = next((x for row in a.data for x in row), None)
    if some is None:
        some = next((x for row in b.data for x in row), None)
    z = (some - some) if some is not None else 0
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [[z] * cols for _ in range(rows)]
    for i in range(a.rows):
        for j in range(a.cols):
            c = a.data[i][j]
            if not c:
                continue
            for i2 in range(b.rows):
                brow = b.data[i2]
                orow = out[i + a.rows * i2]
                base = j
                for j2, v in enumerate(brow):
                    if v:
                        orow[base + a.cols * j2] = c * v
    return Matrix(out, rows, cols)


# ---------------------------------------------------------------------------
# echelon-form utilities on sparse vectors.  A reduced echelon basis is a dict
# ``{pivot: row}`` in which every row has a 1 at its pivot and a 0 at every
# other pivot, so reducing a vector by one row never disturbs its coefficient
# at another pivot.  ``rref`` and ``reduce_mod`` serve the Lie quotient;
# ``nullspace`` serves the elimination references of the tests, and
# perfbench/tracer.py names it and ``rref``

def _subtract(v, c, r):
    """``v -= c * r`` in place on sparse vectors, dropping what cancels."""
    for k, y in r.items():
        x = v[k] - c * y if k in v else -c * y
        if x:
            v[k] = x
        else:
            del v[k]


def reduce_mod(vec, rows):
    """Residual of ``vec`` modulo the span of the reduced echelon basis ``rows``."""
    v = {k: x for k, x in vec.items() if x}
    for p in [p for p in v if p in rows]:
        _subtract(v, v[p], rows[p])
    return v


def echelon_insert(rows, vec):
    """Add ``vec`` to the reduced echelon basis ``rows`` in place, keeping it
    reduced.  Returns the new row, or None when ``vec`` already lies in the span.
    """
    v = reduce_mod(vec, rows)
    if not v:
        return None
    piv = min(v)
    lead = v[piv]
    v = {k: quotient(x, lead) for k, x in v.items()}
    for r in rows.values():
        if piv in r:
            _subtract(r, r[piv], v)
    rows[piv] = v
    return v


def rref(vectors):
    """The reduced echelon basis ``{pivot: row}`` of the span of sparse ``vectors``."""
    rows = {}
    for vec in vectors:
        echelon_insert(rows, vec)
    return rows


def nullspace(rows_of_matrix, ncols):
    """Kernel basis, as sparse vectors, of the map on ``range(ncols)`` whose
    rows are the sparse vectors ``rows_of_matrix``: one vector per non-pivot
    column, with a 1 there (the field's, read off a pivot; an int 1 when
    every row is zero)."""
    rows = rref(rows_of_matrix)
    one = next((r[p] for p, r in rows.items()), 1)
    return [
        {**{p: -r[free] for p, r in rows.items() if free in r}, free: one}
        for free in range(ncols) if free not in rows
    ]
