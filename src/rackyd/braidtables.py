"""Braiding files in unit rack form read as the table of their rack.

``check-ybe`` hands the file it reads to :func:`rack_table_from_dict` first.
A file that is literally a braiding ``tau(e_x (x) e_y) = e_y (x) e_(x <| y)``
with every coefficient written as one, as ``braiding-matrix`` writes the
braiding of kX, is decided on the table of ``<|`` by
:func:`rackyd.selfdist.witnesses`; any other file goes to
:class:`rackyd.braid.BraidingMatrix` and :func:`rackyd.braid.check_ybe`.
This module imports nothing, so the table path compiles no braiding,
linear-algebra, rack or module code, and it is apart from the handler and
:mod:`rackyd.selfdist` so that no other command compiles it.
"""

from itertools import chain, repeat
from operator import floordiv, mod

_DICT = frozenset((dict,))
_UNIT_TYPES = frozenset((str, int))
_UNITS = frozenset(("1", 1))
_CONVENTION = "second-factor-major"


def rack_table_from_dict(d):
    """The table ``op`` of a braiding file in unit rack form, or None.

    ``d`` is read only when it is literally such a file: ``factor_basis`` is
    a list of n labels, ``basis_order`` is absent or ``"second-factor-major"``,
    and ``columns`` is a list of n^2 objects, each with exactly one entry
    ``{"<r>": c}``, r a canonical decimal below n^2 and c the string "1" or
    the int 1 (not ``true``, not ``1.0``), with ``r % n == f // n`` at column
    f = x + n*y.  Then ``op[x][y] = r // n``.  Anything else gives None.

    On such a file the braiding path decides the same equation with the same
    witness.  :meth:`rackyd.braid.BraidingMatrix.from_json_dict` reads every
    column as ``{r: one}``: "1" and 1 parse to the field's one over the
    rationals and over every GF(p), and that one is not 0, so no entry is
    dropped, and the shape and row checks hold.  :func:`rackyd.braid._rack_form`
    then returns this ``op`` and the coefficient one at every f.  With one
    coefficient the cocycle identity ``c(x, y) c(x <| y, z) = c(x, z)
    c(x <| z, y <| z)`` holds everywhere, so :func:`rackyd.braid.check_ybe`
    runs no cocycle sweep: its witness is ``selfdist.witnesses(op)[0]``, the
    least (x, y, z) at which ``<|`` is not self-distributive, in every field.
    Only the defect that ``check-ybe --json`` writes on a failure needs the
    braiding itself.
    """
    if type(d) is not dict:
        return None
    basis, columns = d.get("factor_basis"), d.get("columns")
    if (type(basis) is not list or type(columns) is not list
            or d.get("basis_order", _CONVENTION) != _CONVENTION):
        return None
    n = len(basis)
    nn = n * n
    # each column a dict, none empty, and n^2 keys in all: one key in each
    if len(columns) != nn or not _DICT.issuperset(map(type, columns)) or not all(columns):
        return None
    keys = list(chain.from_iterable(columns))
    if len(keys) != nn:
        return None
    values = list(chain.from_iterable(map(dict.values, columns)))
    if not (_UNIT_TYPES.issuperset(map(type, values)) and _UNITS.issuperset(values)):
        return None
    try:
        rows = list(map(int, keys))
    except ValueError:
        return None
    # canonical decimals below n^2: int() also reads "05", " 5", "+5" and "5_0"
    if nn and (list(map(str, rows)) != keys or min(rows) < 0 or max(rows) >= nn):
        return None
    # column f = x + n*y has its row in the block of e_y
    if list(map(mod, rows, repeat(n))) != list(chain.from_iterable(map(repeat, range(n),
                                                                       repeat(n)))):
        return None
    img = list(map(floordiv, rows, repeat(n)))
    return [img[x::n] for x in range(n)]
