"""Group and action axioms on index tables, a row at a time.

The kernels behind :class:`rackyd.racks.FiniteGroup` and
:func:`rackyd.racks.check_augmented`: ``mul[a][b]`` is the index of ``a b``
and every row is a tuple.  Each check compares whole rows, in C, and reads a
row that differs for its least failing entry, so a witness is the one the
entrywise loops (kept as references in ``tests/test_row_checks.py``) find.
Like :mod:`rackyd.selfdist`, it imports no other module of the package.
"""

from operator import getitem, itemgetter


def _first_difference(u, v):
    """The least index at which the sequences u and v differ."""
    return next((i for i, (x, y) in enumerate(zip(u, v)) if x != y), min(len(u), len(v)))


def identity(mul):
    """The least e whose row and column of ``mul`` are 0, 1, ..., or None."""
    points = tuple(range(len(mul)))
    return next((e for e in points
                 if mul[e] == points and tuple(row[e] for row in mul) == points), None)


def inverse(mul, e, x):
    """The least y with ``x y = e = y x``, or None."""
    row = mul[x]
    y = row.index(e) if e in row else None  # the least y with x y = e
    if y is None or mul[y][x] != e:
        y = next((y for y in range(len(mul)) if row[y] == e and mul[y][x] == e), None)
    return y


def associativity_witness(mul, generators):
    """The least ``(a, s, c)``, s in ``generators``, with ``(a s) c != a (s c)``,
    or None: for each a and s, the row of ``a s`` against the row of a read
    at the row of s."""
    products = [(s, itemgetter(*mul[s])) for s in generators]  # needs n > 1, as S does
    for a, row in enumerate(mul):
        for s, times_s in products:
            if mul[row[s]] != times_s(row):
                return (a, s, _first_difference(mul[row[s]], times_s(row)))
    return None


def action_witness(mul, e, generators, points, act):
    """:meth:`rackyd.racks.FiniteGroup.action_witness` for the group with
    table ``mul``, identity e and generating set ``generators``."""
    for i, x in enumerate(points):
        if act(x, e) != x:
            return (i, e)
    group = range(len(mul))
    # times_s(orbit of x) is the row of x (a s) over a
    products = [(s, itemgetter(*(row[s] for row in mul))) for s in generators]
    for i, x in enumerate(points):
        orbit = [act(x, a) for a in group]
        for s, times_s in products:
            if [act(xa, s) for xa in orbit] != list(times_s(orbit)):
                # the least (a, s) at x: a generator before s may fail at a smaller a
                return next((i, a, s) for a in group for s in generators
                            if act(orbit[a], s) != orbit[mul[a][s]])
    return None


def augmentation_failures(mul, action, p):
    """Every ``(x, g)`` with ``p(x.g) != g^-1 p(x) g``, in order.

    In a group the identity reads ``g p(x.g) = p(x) g``, and both sides are
    compared as a whole row over g; only a row that differs is read entry by
    entry."""
    for x, row in enumerate(action):
        # p(x.g) over g; itemgetter of a single index returns the item, not a tuple
        images = itemgetter(*row)(p) if len(row) > 1 else [p[y] for y in row]
        left, right = tuple(map(getitem, mul, images)), mul[p[x]]
        if left != right:
            yield from ((x, g) for g, (u, v) in enumerate(zip(left, right)) if u != v)


def augmentation_witness(mul, action, p):
    """The least ``(x, g)`` with ``p(x.g) != g^-1 p(x) g``, or None."""
    return next(augmentation_failures(mul, action, p), None)
