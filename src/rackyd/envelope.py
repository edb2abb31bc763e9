"""Degree-truncated enveloping algebras and the enveloping tetramodule.

``TruncatedPBW`` realizes U(g) through degree d for a finite-dimensional Lie
algebra g given by structure constants, on the ordered monomials of total
degree <= d.  Every product is folded from one table of products e_i x_k of
a monomial by a generator, each entry built on first use from entries of
lower degree.  It is also the Hopf descriptor that :mod:`rackyd.yd` reads,
so its ``product`` is exact and raises on degree overflow.  Only the
products by one generator, ``times_gen`` and ``gen_times``, which the
tetramodule tables and phi read, project away components of degree > d: the
full algebra is infinite-dimensional, and every identity verified here is
degree-filtered.

From an equivariant pair (a right g-module M together with a map f: M -> g,
which is a Lie algebra object in the Loday-Pirashvili category of linear
maps) we assemble the bimodule-and-bicomodule U(g) (x) M:

    right action   (u (x) m) . x = ux (x) m + u (x) m.x      for x in g
    left action    x . (u (x) m) = xu (x) m
    left coaction  u_(1) (x) (u_(2) (x) m)
    right coaction (u_(1) (x) m) (x) u_(2)

with the map phi(u (x) m) = u f(m).  The subspace of left-coaction
invariants is 1 (x) M, and :func:`inv_part` proves it from the tables rather
than solving for it: the right counit law u_(1) counit(u_(2)) = u turns an
invariant n, whose coaction is 1 (x) n, into n = 1 (x) (counit (x) id)(n),
and each 1 (x) m is invariant.  The invariants inherit a Yetter-Drinfel'd
structure (right adjoint action, restricted right coaction -- here
trivial), phi restricts to them with image in ker(counit), and the bracket
``x <| y = x phi~(y)`` makes them a braided Leibniz algebra.  Feeding in
the quotient pair pi: g -> g_Lie of a Leibniz algebra returns the original
bracket on g.  The tetramodule keeps only its four tables; the adjoint
action is needed on generators only, where it is n.x_k - x_k.n.

Checks that involve products near the degree window are restricted to basis
elements whose intermediate degrees provably stay inside it; each report says
which scope it used.  None of phi's identities is swept: :func:`phi_checks`,
:func:`antipode_checks` and the restriction lemma :func:`f_tilde_checks`
decide their verdicts from f's equivariance, which :class:`LieMapObject`
checks in O(dim M * dim g), and from the primitivity of each f(m) in g.
Their docstrings hold the proofs.  Only :func:`enveloping_bracket`, which
needs phi~ as its q, builds the invariants.
"""

import math
from typing import NamedTuple

from .braid import flip_columns
from .errors import ConsistencyError, DegreeOverflowError, ValidationError
from .linalg import lincomb, vsum
from .scalars import QQ
from .yd import BraidedLeibnizData, YDModule, braided_leibniz_from_q, braided_leibniz_witness


def check_lie(brackets):
    """Antisymmetry and Jacobi on all basis tuples; returns a witness or None.

    Jacobi in the form [[x,y],z] = [[x,z],y] + [x,[y,z]] is the braided
    Leibniz identity with the flip, so it is swept by
    :func:`rackyd.yd.braided_leibniz_witness`.
    """
    n = len(brackets)
    for i in range(n):
        for j in range(n):
            if vsum(brackets[i][j], brackets[j][i]):
                return ("antisymmetry", i, j)
    witness = braided_leibniz_witness(brackets, flip_columns(n))
    return None if witness is None else ("jacobi", *witness)


def lie_action_witness(dim, brackets, act, one) -> tuple | None:
    """The least (m, a, b) at which (m.x_a).x_b - (m.x_b).x_a = m.[x_a, x_b] fails.

    ``brackets`` is the Lie bracket table and ``act(vec, k)`` the right action
    of x_k on a sparse vector of a ``dim``-dimensional module.  None means the
    action is a right Lie action.
    """
    n = len(brackets)
    for m in range(dim):
        moved = [act({m: one}, a) for a in range(n)]  # m.x_a
        for a in range(n):
            for b in range(n):
                rhs = lincomb(brackets[a][b], moved.__getitem__)
                if act(moved[a], b) != vsum(rhs, act(moved[b], a)):
                    return (m, a, b)
    return None


def _mono_label(exp, labels):
    if not any(exp):
        return "1"
    parts = []
    for k, e in enumerate(exp):
        if e == 1:
            parts.append(labels[k])
        elif e > 1:
            parts.append(f"{labels[k]}^{e}")
    return "*".join(parts)


# sl2 at degree 70 has 62196 monomials: `first-order-yd` there takes about
# 0.5 s in-process (0.6 s as a process) and peaks at 37 MB (single runs,
# 2-CPU x86-64, Python 3.11)
PBW_MAX_SIZE = 65536


class TruncatedPBW:
    """U(g) through degree d, on the ordered monomials of degree <= d in a Lie algebra basis.

    There are ``comb(dim g + d, d)`` of them; above ``PBW_MAX_SIZE`` the
    construction is refused with a ValidationError before any is enumerated.
    This is the Hopf descriptor of :mod:`rackyd.yd`: ``product`` is exact and
    raises DegreeOverflowError when the degrees add up to more than d.  Only
    ``times_gen`` and ``gen_times``, the products by one generator that the
    tetramodule tables read, truncate above d.
    """

    def __init__(self, brackets, degree, labels=None, field=QQ):
        if degree < 0:
            raise ValidationError("truncation degree must be >= 0")
        n = len(brackets)
        size = math.comb(n + degree, degree)
        if size > PBW_MAX_SIZE:
            raise ValidationError(f"truncation degree {degree} gives {size} PBW monomials, "
                                  f"above PBW_MAX_SIZE = {PBW_MAX_SIZE}")
        self.field = field
        self.degree = degree
        self.dim_lie = n
        self.brackets = tuple(tuple(vsum(v) for v in row) for row in brackets)
        for row in self.brackets:
            if len(row) != n:
                raise ValidationError("bracket table must be n x n")
            for v in row:
                for k in v:
                    if not 0 <= k < n:
                        raise ValidationError(f"bracket target {k} out of range")
        witness = check_lie(self.brackets)
        if witness is not None:
            raise ValidationError(f"structure constants are not a Lie algebra: {witness}")
        self.lie_labels = tuple(labels) if labels else tuple(f"x{i}" for i in range(n))
        exps = []

        def gen_exps(prefix, remaining, pos):
            if pos == n:
                exps.append(tuple(prefix))
                return
            for e in range(remaining + 1):
                gen_exps(prefix + [e], remaining - e, pos + 1)

        gen_exps([], degree, 0)
        exps = sorted(set(exps), key=lambda e: (sum(e), tuple(-v for v in e)))
        self.basis = tuple(exps)
        self.index = {e: i for i, e in enumerate(exps)}
        self.labels = tuple(_mono_label(e, self.lie_labels) for e in exps)
        self.unit = self.index[tuple([0] * n)]
        self.gen_index = tuple(
            self.index[tuple(1 if k == i else 0 for k in range(n))] for i in range(n)
        ) if degree >= 1 else tuple()
        self._times = {}  # (i, k) -> e_i x_k, filled on first use

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def generators(self):
        return list(self.gen_index)

    algebra_generators = generators

    def word(self, i: int):
        out = []
        for k, e in enumerate(self.basis[i]):
            out.extend([k] * e)
        return tuple(out)

    def times_gen(self, i: int, k: int) -> dict:
        """(basis monomial i) * x_k, truncated above degree d: one entry of the table.

        Each entry is built on first use from entries of lower degree.  With
        x_l the last letter of e_i = e_w x_l, appending x_k keeps the word
        ordered when l <= k; otherwise
        ``e_i x_k = (e_w x_k) x_l + e_w [x_l, x_k]``, where e_w x_k has
        degree <= d and its only term of top degree ends in x_l, so every
        entry read has lower degree or is an append.  Truncating the sum is
        exact: the projection above d is linear.  Entries are shared, so no
        caller may mutate one.
        """
        out = self._times.get((i, k))
        if out is None:
            exp = list(self.basis[i])
            last = max((g for g, e in enumerate(exp) if e), default=-1)
            if last <= k:
                exp[k] += 1
                out = {self.index[tuple(exp)]: self.field.one} if sum(exp) <= self.degree else {}
            else:
                exp[last] -= 1
                w = self.index[tuple(exp)]
                out = vsum(lincomb(self.times_gen(w, k), lambda j: self.times_gen(j, last)),
                           lincomb(self.brackets[last][k], lambda c: self.times_gen(w, c)))
            self._times[i, k] = out
        return out

    def _fold(self, vec: dict, word) -> dict:
        """vec * x_{word[0]} * x_{word[1]} * ..., one table entry at a time."""
        for k in word:
            vec = lincomb(vec, lambda h: self.times_gen(h, k))
        return vec

    def gen_times(self, k: int, i: int) -> dict:
        """x_k * (basis monomial i), truncated above degree d.

        Every partial product but the last has degree <= d, so only the last
        entry read truncates.
        """
        return self._fold(self.times_gen(self.unit, k), self.word(i))

    def product(self, i: int, j: int) -> dict:
        """The exact product of two basis monomials: the table folded along the word of j."""
        di, dj = sum(self.basis[i]), sum(self.basis[j])
        if di + dj > self.degree:
            raise DegreeOverflowError(
                f"exact product of degrees {di} and {dj} exceeds d={self.degree}")
        return self._fold({i: self.field.one}, self.word(j))

    product_exact = product

    def coproduct(self, i: int):
        """Delta(monomial), multiplicative from Delta(x) = x (x) 1 + 1 (x) x.

        Every term of Delta splits the degree of the input, so the output is
        always exactly representable.
        """
        terms = {((), ()): self.field.one}
        for g in self.word(i):
            terms = lincomb(terms, lambda ww: {(ww[0] + (g,), ww[1]): 1, (ww[0], ww[1] + (g,)): 1})

        def idx(word):
            exp = [0] * self.dim_lie
            for g in word:
                exp[g] += 1
            return self.index[tuple(exp)]

        return [(c, idx(w1), idx(w2)) for (w1, w2), c in sorted(terms.items()) if c]

    def counit(self, i: int):
        return self.field.one if i == self.unit else self.field.zero

    def antipode(self, i: int) -> dict:
        """S(x) = -x on generators, extended anti-multiplicatively: the reversed
        word folded from the table (exact: it has the degree of the monomial)."""
        word = self.word(i)
        one = self.field.one
        return self._fold({self.unit: -one if len(word) % 2 else one}, reversed(word))

    def generator_word(self, i: int):
        return tuple(self.gen_index[k] for k in self.word(i))

    def check_action_axioms(self, module) -> tuple | None:
        """(m.x).y - (m.y).x = m.[x,y] on all generator pairs (none at degree 0)."""
        gens = self.gen_index
        return lie_action_witness(module.dim, self.brackets if gens else (),
                                  lambda vec, k: module.act_basis(vec, gens[k]), self.field.one)

    def __repr__(self):
        return f"TruncatedPBW(dim_lie={self.dim_lie}, degree={self.degree})"


# the package exports and perfbench's tracer still use this name
EnvelopingDescriptor = TruncatedPBW


class LieMapObject:
    """A right g-module M together with an equivariant map f: M -> g.

    ``action[k][m]`` is the sparse module vector ``m . x_k``; ``f[m]`` is a
    sparse vector over the Lie basis.  Construction verifies the Lie axioms
    of g, the right Lie-action axiom ``m.[x,y] = (m.x).y - (m.y).x``, and the
    equivariance ``f(m.x) = [f(m), x]``.
    """

    def __init__(self, brackets, lie_labels, module_labels, action, f, field=QQ):
        self.field = field
        self.brackets = tuple(tuple(vsum(v) for v in row) for row in brackets)
        n = len(self.brackets)
        witness = check_lie(self.brackets)
        if witness is not None:
            raise ValidationError(f"codomain is not a Lie algebra: {witness}")
        self.lie_labels = tuple(lie_labels) if lie_labels else tuple(f"x{i}" for i in range(n))
        self.module_labels = tuple(module_labels)
        nm = len(self.module_labels)
        if len(action) != n or any(len(row) != nm for row in action):
            raise ValidationError("action must be one row of module vectors per Lie basis")
        self.action = tuple(tuple(vsum(v) for v in row) for row in action)
        if len(f) != nm:
            raise ValidationError("f needs one value per module basis vector")
        self.f = tuple(vsum(v) for v in f)

        witness = lie_action_witness(
            nm, self.brackets, lambda vec, k: lincomb(vec, self.action[k].__getitem__), field.one)
        if witness is not None:
            m, a, b = witness
            raise ValidationError(f"not a right Lie action at (m={m}, x={a}, y={b})")
        witness = next(self.equivariance_defects(), None)
        if witness is not None:
            m, k = witness
            raise ValidationError(f"f is not equivariant at (m={m}, x={k})")

    def equivariance_defects(self):
        """The pairs (m, k), in lexicographic order, at which f(m.x_k) != [f(m), x_k].

        Reads ``self.f`` on every call, so it sees an f edited after construction.
        """
        for m in range(self.dim_module):
            for k in range(self.dim_lie):
                lhs = lincomb(self.action[k][m], self.f.__getitem__)
                rhs = lincomb(self.f[m], lambda j: self.brackets[j][k])
                if lhs != rhs:
                    yield m, k

    @property
    def dim_lie(self) -> int:
        return len(self.brackets)

    @property
    def dim_module(self) -> int:
        return len(self.module_labels)


# sl2 with M = sl2 reaches this at degree 18 (dimension 3990): `build_env`
# there takes about 2.5 s in-process and peaks at 100 MB (single runs, as above)
ENV_MAX_SIZE = 4096


class EnvTetramodule:
    """The four-structure module U(g) (x) M at a fixed truncation degree.

    Its dimension is the number of PBW monomials of degree <= d in dim g
    letters, ``comb(dim g + d, d)``, times dim M; above ``ENV_MAX_SIZE`` the
    construction is refused with a ValidationError before anything is built.
    """

    def __init__(self, obj: LieMapObject, degree: int = 2):
        size = math.comb(obj.dim_lie + degree, degree) * obj.dim_module if degree >= 0 else 0
        if size > ENV_MAX_SIZE:
            raise ValidationError(f"truncation degree {degree} gives a tetramodule of "
                                  f"dimension {size}, above ENV_MAX_SIZE = {ENV_MAX_SIZE}")
        self.obj = obj
        self.field = obj.field
        self.pbw = TruncatedPBW(obj.brackets, degree, obj.lie_labels, obj.field)
        nm = obj.dim_module
        self.module_dim = nm
        self.labels = tuple(
            f"{hl}⊗{ml}" for hl in self.pbw.labels for ml in obj.module_labels
        )
        right_act, left_act = [], []
        left_coact, right_coact = [], []
        lie = range(self.pbw.dim_lie)
        for h in range(self.pbw.size):
            # the products and the coproduct of h are shared by every m
            times_gen = [self.pbw.times_gen(h, k) for k in lie]
            gen_times = [self.pbw.gen_times(k, h) for k in lie]
            delta = self.pbw.coproduct(h)
            for m in range(nm):
                right_act.append(tuple(
                    vsum({self.eidx(h2, m): c for h2, c in times_gen[k].items()},
                         {self.eidx(h, m2): c for m2, c in obj.action[k][m].items()})
                    for k in lie
                ))
                left_act.append(tuple(
                    {self.eidx(h2, m): c for h2, c in gen_times[k].items()} for k in lie
                ))
                lco, rco = [], []
                for c, a, b in delta:
                    lco.append((a, self.eidx(b, m), c))
                    rco.append((self.eidx(a, m), b, c))
                left_coact.append(tuple(lco))
                right_coact.append(tuple(rco))
        self.right_act_tab = tuple(right_act)
        self.left_act_tab = tuple(left_act)
        self.left_coact_tab = tuple(left_coact)
        self.right_coact_tab = tuple(right_coact)

    @property
    def size(self) -> int:
        return self.pbw.size * self.module_dim

    def eidx(self, h: int, m: int) -> int:
        return h * self.module_dim + m

    def split(self, e: int):
        return divmod(e, self.module_dim)

    # -- the generator actions (truncating, like the tables they read) ------

    def right_act_gen(self, vec: dict, k: int) -> dict:
        return lincomb(vec, lambda e: self.right_act_tab[e][k])

    def left_act_gen(self, k: int, vec: dict) -> dict:
        return lincomb(vec, lambda e: self.left_act_tab[e][k])

    def adjoint(self, vec: dict, k: int) -> dict:
        """Right adjoint action S(h_(1)) . n . h_(2) of the generator h = x_k.

        Delta(x_k) = x_k (x) 1 + 1 (x) x_k and S(x_k) = -x_k, S(1) = 1, so the
        sum has two terms, S(x_k) . n . 1 + S(1) . n . x_k = n . x_k - x_k . n.
        On an invariant 1 (x) m it gives 1 (x) m.x_k, since both actions add
        the term x_k (x) m.
        """
        return vsum(self.right_act_gen(vec, k),
                    {e: -c for e, c in self.left_act_gen(k, vec).items()})


def build_env(obj: LieMapObject, degree: int = 2) -> EnvTetramodule:
    """Assemble the enveloping tetramodule of an equivariant pair."""
    return EnvTetramodule(obj, degree)


def phi_map(env: EnvTetramodule, vec: dict) -> dict:
    """phi(u (x) m) = u f(m), linearly extended (truncating above d, like ``times_gen``)."""

    def on_basis(e):
        h, m = env.split(e)
        return lincomb(env.obj.f[m], lambda k: env.pbw.times_gen(h, k))

    return lincomb(vec, on_basis)


class PhiReport(NamedTuple):
    ok: bool
    bimodule_ok: bool
    coderivation_ok: bool
    bimodule_scope: str
    coderivation_scope: str
    witnesses: dict


def _equivariance_defects(env: EnvTetramodule) -> list:
    """f's equivariance defects (m, k), or none below degree 2 where the identities are vacuous."""
    return list(env.obj.equivariance_defects()) if env.pbw.degree >= 2 else []


def phi_checks(env: EnvTetramodule) -> PhiReport:
    """phi is H-bilinear and a coderivation, on the exactly-representable range.

    The scopes are those of the basis elements u (x) m on which every product
    in the identity stays inside the window: first-factor degree <= d-1 for
    the coderivation identity, <= d-2 for the bimodule identities, which
    involve one more product.  Both are decided from two facts instead of a
    sweep: f is equivariant, f(m.x) = [f(m), x], and each f(m) lies in g, so
    it is primitive.

    Coderivation.  Delta(phi(u (x) m)) = Delta(u) Delta(f(m)) because Delta is
    multiplicative, and Delta(f(m)) = f(m) (x) 1 + 1 (x) f(m), so it equals
    u_(1) (x) u_(2) f(m) + u_(1) f(m) (x) u_(2) = n_(-1) (x) phi(n_(0)) +
    phi(n_(0)) (x) n_(1).  This holds for every f into g.

    Bimodule.  On the left, phi(x_k . (u (x) m)) = (x_k u) f(m) = x_k (u f(m))
    is associativity of the product, exact on the scope.  On the right,
    (u (x) m) . x_k = u x_k (x) m + u (x) m.x_k, so
    phi((u (x) m) . x_k) - phi(u (x) m) x_k = u (f(m.x_k) - [f(m), x_k]).
    That vanishes for every u when (m, k) is equivariant, and at u = 1 it is
    the defect itself, so for d >= 2 the identity fails exactly when some
    (m, k) is not equivariant, and the least failing basis element, in the
    order u (x) m then x_k, is 1 (x) m at the least failing (m, k).  For
    d < 2 the bimodule scope is empty.
    """
    d = env.pbw.degree
    defects = _equivariance_defects(env)
    witnesses = {}
    if defects:
        m, k = defects[0]
        witnesses["bimodule"] = (env.labels[env.eidx(env.pbw.unit, m)], env.pbw.lie_labels[k])
    return PhiReport(
        not defects,
        not defects,
        True,
        f"first-factor degree <= {d - 2}",
        f"first-factor degree <= {d - 1}",
        witnesses,
    )


class InvariantPart(NamedTuple):
    """The left-coaction invariants of a tetramodule, as a YD module."""

    module: YDModule
    vectors: tuple  # inv basis expressed in tetramodule coordinates


def inv_part(env: EnvTetramodule) -> InvariantPart:
    """Prove that the left-coaction invariants are 1 (x) M, and transport the structure.

    Two checks on the tables, each raising ConsistencyError on failure:
    (id (x) counit (x) id) applied to the left coaction of every basis
    element u (x) m gives back u (x) m (the right counit law of Delta), and
    the left coaction of each 1 (x) m is 1 (x) (1 (x) m).  An invariant n then
    equals (id (x) counit (x) id) delta(n) = 1 (x) (counit (x) id)(n), so it
    lies in 1 (x) M, and the second check shows 1 (x) M is invariant.

    The action on the invariants is the right adjoint action (which is where
    a bimodule's own action ends up once only one-sided structure remains),
    and the right coaction restricts; for enveloping data it is trivial.
    Both are read off the unit row; a value off 1 (x) M raises.
    """
    one = env.field.one
    pbw = env.pbw
    unit = pbw.unit
    delta = [vsum(*({(h1, e1): c} for h1, e1, c in terms)) for terms in env.left_coact_tab]

    def counit_middle(he):  # h1 (x) (u (x) m) -> counit(u) h1 (x) m
        u, m = env.split(he[1])
        return {env.eidx(he[0], m): pbw.counit(u)}

    for e, d in enumerate(delta):
        if lincomb(d, counit_middle) != {e: one}:
            raise ConsistencyError(f"left coaction fails the counit law at {env.labels[e]}")
    vectors = [{env.eidx(unit, m): one} for m in range(env.module_dim)]
    for vec in vectors:
        ((e, _),) = vec.items()
        if delta[e] != {(unit, e): one}:
            raise ConsistencyError(f"{env.labels[e]} is not left-coaction invariant")

    def unit_row(vec: dict) -> dict:
        coords = {}
        for e, c in sorted(vec.items()):
            h, m = env.split(e)
            if h != unit:
                raise ConsistencyError("structure map left the invariant subspace")
            coords[m] = c
        return coords

    action = [[unit_row(env.adjoint(vec, k)) for k in range(len(pbw.gen_index))]
              for vec in vectors]
    coaction = []
    for vec in vectors:
        delta_r = lincomb(vec, lambda e: {(e1, h1): c for e1, h1, c in env.right_coact_tab[e]})
        by_h = {}
        for (e1, h1), c in delta_r.items():
            by_h.setdefault(h1, {})[e1] = c
        coaction.append(sorted(
            (m, h1, c) for h1, vec_h in by_h.items() for m, c in unit_row(vec_h).items()
        ))
    module = YDModule(pbw, env.obj.module_labels, action, coaction)
    return InvariantPart(module, tuple(vectors))


class LemmaReport(NamedTuple):
    ok: bool
    im_in_ker_eps: bool
    colinear: bool
    yd_morphism: bool
    witnesses: dict


def require_invariant_degree(degree: int) -> None:
    """Refuse a truncation degree 0 or 1, too small for the restriction lemma and the bracket.

    A negative degree is left to :class:`TruncatedPBW`, which refuses it with
    its own message.
    """
    if 0 <= degree < 2:
        raise ValidationError("invariant checks need truncation degree >= 2")


def f_tilde_checks(env: EnvTetramodule) -> LemmaReport:
    """The restriction lemma: phi~, the restriction of phi to the invariants
    1 (x) M, satisfies the conditions of :func:`check_q_conditions
    <rackyd.yd.check_q_conditions>`.  Decided from f's equivariance, like
    :func:`phi_checks`, instead of building the invariants:

    (1) its image lies in ker(counit): phi(1 (x) m) = f(m) lies in the
        degree-1 span, where the counit vanishes;
    (2) it is colinear, Delta phi~(n) = 1 (x) phi~(n) + phi~(n_(0)) (x) n_(1):
        the invariants' right coaction is m -> m (x) 1, because Delta(1) =
        1 (x) 1, and f(m) is primitive, so both sides are
        1 (x) f(m) + f(m) (x) 1;
    (3) it intertwines the right adjoint actions, making it a morphism of
        Yetter-Drinfel'd modules: the adjoint action of x_k sends 1 (x) m to
        1 (x) m.x_k (see :meth:`EnvTetramodule.adjoint`), so the condition at
        (m, x_k), phi~(n.x_k) = phi~(n) x_k - x_k phi~(n), reads
        f(m.x_k) = [f(m), x_k]; the commutator of two degree-1 elements is
        exact for d >= 2.  ``check_q_conditions`` decides it on the
        generators x_k in order, so its least witness is the least (m, k)
        at which f is not equivariant, reported as labels.

    So (1) and (2) hold on every tetramodule, and ``ok`` and ``yd_morphism``
    hold exactly when f has no equivariance defect.  Degree 0 and 1 are
    refused, as for :func:`enveloping_bracket`, which still builds phi~ and
    runs ``check_q_conditions`` on it.
    """
    require_invariant_degree(env.pbw.degree)
    defect = next(env.obj.equivariance_defects(), None)
    if defect is None:
        return LemmaReport(True, True, True, True, {})
    m, k = defect
    witnesses = {"yd_morphism": (env.obj.module_labels[m], env.pbw.lie_labels[k])}
    return LemmaReport(False, True, True, False, witnesses)


class AntipodeReport(NamedTuple):
    ok: bool
    scope: str
    witness: object | None


def antipode_checks(env: EnvTetramodule) -> AntipodeReport:
    """phi(T(n)) = S(phi(n)) on first-factor degree <= d-1 (exact there).

    Decided from f's equivariance, like the bimodule identity of
    :func:`phi_checks`.  With n = u (x) m, T(n) = -S(u_(1)) (u_(2) (x) m) S(u_(3)),
    and when phi is a bimodule map on the scope,

        phi(T(u (x) m)) = -S(u_(1)) u_(2) f(m) S(u_(3)) = -f(m) S(u) = S(u f(m)),

    where the middle step is the antipode law S(u_(1)) u_(2) = counit(u) 1
    and the last uses S(f(m)) = -f(m), since f(m) is primitive.  Every product
    has degree <= d, so all of it is exact.  At u = 1 both sides are -f(m).
    At u = x_k, T(x_k (x) m) = (1 (x) m) . x_k, and the two sides differ by
    f(m.x_k) - [f(m), x_k].  So for d >= 2 the identity fails exactly when
    some (m, k) is not equivariant, and the least failing basis element is
    x_k (x) m at the least failing (k, m): the degree-1 monomials come in the
    order x_0, x_1, ... right after 1.  For d < 2 the scope holds at most
    u = 1, where the identity always holds.
    """
    scope = f"first-factor degree <= {env.pbw.degree - 1}"
    defect = min(((k, m) for m, k in _equivariance_defects(env)), default=None)
    if defect is None:
        return AntipodeReport(True, scope, None)
    k, m = defect
    return AntipodeReport(False, scope, env.labels[env.eidx(env.pbw.gen_index[k], m)])


def enveloping_bracket(env: EnvTetramodule) -> BraidedLeibnizData:
    """The braided Leibniz bracket ``x <| y = x phi~(y)`` on the invariants.

    phi~ is the restriction of phi to the invariants.  That it lands in
    ker(counit), is colinear there and intertwines the adjoint actions (the
    restriction lemma) is proved once, by the :func:`check_q_conditions
    <rackyd.yd.check_q_conditions>` inside :func:`braided_leibniz_from_q`; the
    returned data passes :func:`rackyd.yd.check_braided_leibniz`.  Requires
    degree >= 2, like :func:`f_tilde_checks`.
    """
    require_invariant_degree(env.pbw.degree)
    inv = inv_part(env)
    return braided_leibniz_from_q(inv.module, [phi_map(env, vec) for vec in inv.vectors])
