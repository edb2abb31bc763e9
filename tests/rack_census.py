"""Every finite rack of small order, as an exhaustive test corpus.

A table on ``range(n)`` is a rack when every column ``phi_y: x -> x <| y``
is a bijection and the table is self-distributive, which in columns reads
``phi_z(phi_y(x)) = phi_(y <| z)(phi_z(x))``.  :func:`labelled_racks`
chooses the columns one at a time among the n! permutations, and checks each
instance of that law as soon as the three columns it names are chosen, so a
branch is cut at the first column that breaks it.  :func:`census` keeps one
table per isomorphism class: the least relabelling of each.
"""

from itertools import permutations


def labelled_racks(n):
    """Every rack table on ``range(n)``, as a tuple of row tuples."""
    perms = list(permutations(range(n)))
    cols = []

    def consistent():
        k = len(cols) - 1
        for z in range(k + 1):
            for y in range(k + 1):
                w = cols[z][y]  # y <| z
                if max(y, z, w) == k and any(cols[z][cols[y][x]] != cols[w][cols[z][x]]
                                             for x in range(n)):
                    return False
        return True

    def extend():
        if len(cols) == n:
            yield tuple(zip(*cols))  # row x holds phi_y(x) at column y
            return
        for col in perms:
            cols.append(col)
            if consistent():
                yield from extend()
            cols.pop()

    return list(extend())


def relabelled(op, sigma):
    """The table of ``op`` with each x renamed ``sigma[x]``."""
    n = len(op)
    new = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            new[sigma[x]][sigma[y]] = sigma[op[x][y]]
    return tuple(map(tuple, new))


def census(n):
    """One rack table of order n per isomorphism class, the least relabelling
    of each, in increasing order."""
    sigmas = list(permutations(range(n)))
    seen, classes = set(), []
    for op in labelled_racks(n):
        if op not in seen:
            orbit = {relabelled(op, s) for s in sigmas}
            seen |= orbit
            classes.append(min(orbit))
    return sorted(classes)


def is_quandle(op):
    return all(row[x] == x for x, row in enumerate(op))
