"""Self-distributivity of a finite table: the one place where the law
``(x <| y) <| z = (x <| z) <| (y <| z)`` is decided.  Shelves
(:mod:`rackyd.racks`), braidings in rack form (:mod:`rackyd.braid`) and
braided Leibniz data in rack form (:mod:`rackyd.yd`) come down to it.  It
imports nothing, so every rack and braiding command can load it.
"""


def greedy_generators(table, start=()) -> tuple:
    """Each index, in order, that is not yet reached from ``start`` and the
    generators before it under ``x -> table[x][s]``, s one of those generators."""
    gens, reached = [], set(start)
    for g in range(len(table)):
        if g not in reached:
            gens.append(g)
            reached.add(g)
            frontier = list(reached)
            while frontier:
                frontier = [y for y in {table[x][s] for x in frontier for s in gens}
                            if y not in reached]
                reached.update(frontier)
    return tuple(gens)


def _not_injective(op):
    for y in range(len(op)):
        seen = {}
        for x, row in enumerate(op):
            x1 = seen.setdefault(row[y], x)
            if x1 != x:
                return (x1, x, y)
    return None


def witnesses(op) -> tuple:
    """``(self_distributivity, bijectivity)`` for the table ``x <| y = op[x][y]``:
    the lexicographically least (x, y, z) at which the law fails and the
    y-major first (x1 < x2, y) with ``x1 <| y = x2 <| y``; each None if none.

    When every right translation ``R_y: x -> x <| y`` is a bijection, the z
    whose R_z is an endomorphism are closed under ``<|``, because then
    ``R_(y <| z) = R_z R_y R_z^-1``; every element is reached from the
    generating set Z = ``greedy_generators(op)`` by such translations, so the
    law holds once every R_z, z in Z, is an endomorphism.  A failure there, or
    a table that is not bijective, gets the n^3 sweep that names the witness.
    """
    n = len(op)
    not_injective = _not_injective(op)

    def endomorphism(z):
        r = [row[z] for row in op]
        return all(list(map(r.__getitem__, row)) == list(map(op[r[x]].__getitem__, r))
                   for x, row in enumerate(op))

    if not_injective is None and all(map(endomorphism, greedy_generators(op))):
        return None, None
    failure = next(((x, y, z) for x in range(n) for y in range(n) for z in range(n)
                    if op[op[x][y]][z] != op[op[x][z]][op[y][z]]), None)
    return failure, not_injective
