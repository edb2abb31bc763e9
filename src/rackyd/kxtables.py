"""kX module files read as an augmented rack's tables.

``check-yd``, ``q-conditions --rack-q`` and ``braiding-matrix`` hand the
file they read to :func:`linearized_from_dict` first.  A file that is
literally a linearization, as :func:`rackyd.jsonio.linearized_to_dict`
writes kX and as ker(counit) of kG is written, is decided on its tables by
:func:`rackyd.racks.check_augmented`, and its braiding written from them by
:class:`LinearizedBraiding`; any other file goes to
:func:`rackyd.jsonio.yd_from_dict` and the sweeps of :mod:`rackyd.yd`.  The
table path imports no module, descriptor, braiding or linear-algebra code,
and this module is apart from :mod:`rackyd.jsonio` so that ``linearize``,
which imports that, does not compile it either.
"""

from itertools import chain
from operator import itemgetter

from .errors import ValidationError
from .racks import AugmentedRack, FiniteGroup

_STR = frozenset((str,))
_DICT = frozenset((dict,))


def linearized_from_dict(d):
    """The augmented rack whose linearization is the module file ``d``, the
    inverse of :func:`rackyd.jsonio.linearized_to_dict`, or None.

    ``d`` is read only when it is literally such a file: a module over a group
    algebra whose every action entry is ``{"<y>": "1"}``, y a canonical
    decimal index below |X|, whose coaction of x is ``[[x, h, "1"]]`` for an
    index h of G, and whose basis labels are strings.  The result holds the
    labels, the |X| x |G| index table of x . g and the grading p(x) = h.  A
    file that is anything else, or that fails a check below, gives None, and
    :func:`rackyd.jsonio.yd_from_dict` reads it, with every message and
    witness of its own.  "1" is the one of every field, so the result does
    not depend on one.

    On such a file :class:`rackyd.yd.YDModule` would refuse nothing these
    tables do not refuse:

    - shapes and ranges: there is a row per label and an entry per group
      element, every key names a point, every h is in G;
    - counitality: ``(id (x) counit)(x (x) p(x)) = x``;
    - the module axioms:
      :meth:`rackyd.group_hopf.GroupAlgebraDescriptor.check_action_axioms`
      reads a permutation module as this index table and calls
      :meth:`rackyd.racks.FiniteGroup.action_witness` on it; so does this
      reader, and it gives None when that call finds a witness.

    On the result, each condition that :mod:`rackyd.yd` sweeps at (x, g) is
    the augmentation identity ``p(x.g) = g^-1 p(x) g`` at (x, g), each a
    comparison of basis tensors with coefficients 1 (which is not 0):

    - the Yetter-Drinfel'd condition of :func:`rackyd.yd.check_yd`, with
      ``Delta(g) = g (x) g``, reads ``x.g (x) g p(x.g) = x.g (x) p(x) g``;
    - the equivariance of :func:`rackyd.yd.check_q_conditions` for
      ``q = p - 1`` reads ``g p(x.g) - g = p(x) g - g``, which holds exactly
      when ``g p(x.g) = p(x) g`` (a side is 0 where its first term is g).

    Each sweep is decided on the generating set S and names the least
    failing (x, g) over all of G once S fails; the g at which the identity
    holds for every x form a subgroup, so S fails exactly when some g does,
    and the least failing (x, g) over G is
    :func:`rackyd.grouptable.augmentation_witness` on these tables.  The
    colinearity of q holds for every grading, since
    ``Delta(p - 1) = p (x) p - 1 (x) 1 = 1 (x) (p - 1) + (p - 1) (x) p`` is
    its right side ``1 (x) q(x) + q(x_(0)) (x) x_(1)``; and q maps into
    ker(counit), as that check requires.
    """
    try:
        hopf, basis, action, coaction = d["hopf"], d["basis"], d["action"], d["coaction"]
        if (hopf["kind"] != "group_algebra" or type(basis) is not list
                or not _STR.issuperset(map(type, basis))):
            return None
        group = FiniteGroup.from_json_dict(hopf["group"])
    except (KeyError, TypeError, ValidationError):
        return None
    n, m = len(basis), group.size
    if type(action) is not list or type(coaction) is not list:
        return None
    if len(action) != n or len(coaction) != n:
        return None
    p = []
    for x, terms in enumerate(coaction):
        if type(terms) is not list or len(terms) != 1 or type(terms[0]) is not list:
            return None
        term = terms[0]
        if (len(term) != 3 or type(term[0]) is not int or term[0] != x
                or type(term[1]) is not int or not 0 <= term[1] < m or term[2] != "1"):
            return None
        p.append(term[1])
    index, ones, table = {str(y): y for y in range(n)}, ["1"] * m, []
    for row in action:
        # each entry a dict, none empty, and m keys in all: one key in each
        if (type(row) is not list or len(row) != m or not _DICT.issuperset(map(type, row))
                or not all(row)):
            return None
        keys = list(chain.from_iterable(row))
        if len(keys) != m or list(chain.from_iterable(map(dict.values, row))) != ones:
            return None
        try:
            table.append(tuple(map(index.__getitem__, keys)))
        except KeyError:  # not a canonical index below n
            return None
    if group.action_witness(range(n), table) is not None:
        return None
    return AugmentedRack(basis, group, tuple(table), p, proved=True)


class LinearizedBraiding:
    """``rackyd.braid.braiding`` of the linearization of ``aug``, on its
    tables.  With the action ``x.g`` and the coaction ``y -> y (x) p(y)``,
    ``tau(x (x) y) = y_(0) (x) x.y_(1) = y (x) x.p(y)``: column x + n*y is
    ``{y + n*(x.p(y)): 1}``, whose coefficient is the field's one, written
    "1" in every field.  :meth:`to_json_dict` and :meth:`int_rows` give what
    the same methods of :class:`rackyd.braid.BraidingMatrix` give."""

    def __init__(self, aug):
        self.factor_basis, self.factor_dim = aug.elements, aug.size
        n = aug.size
        # the row of each column, a block of n columns per y
        self.rows = [y + n * xp for y, py in enumerate(aug.p)
                     for xp in map(itemgetter(py), aug.action)]

    def to_json_dict(self, integers=False, lazy=False):
        one = 1 if integers else "1"  # the one of every field, as an int and as text
        columns = ({str(r): one} for r in self.rows)
        return {"basis_order": "second-factor-major", "factor_basis": list(self.factor_basis),
                "columns": columns if lazy else list(columns)}

    def int_rows(self):
        grid = [[0] * len(self.rows) for _ in self.rows]
        for f, r in enumerate(self.rows):
            grid[r][f] = 1
        return grid
