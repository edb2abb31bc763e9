"""Yetter-Drinfel'd modules, their braidings, and braided Leibniz brackets.

A *Hopf descriptor* is any object with a finite distinguished basis exposing

    field, size, labels, unit, generators, algebra_generators,
    product(i, j)        -> {idx: coeff}      (exact; may raise DegreeOverflowError)
    coproduct(i)         -> [(coeff, a, b)]   (distinct pairs (a, b))
    counit(i)            -> scalar
    antipode(i)          -> {idx: coeff}
    generator_word(i)    -> [generator indices] with product i
    check_action_axioms(module) -> witness | None  (reads every column of module.action)

``generators`` indexes the columns of a module's action table, and each of
its elements is group-like (``Delta(g) = g (x) g``) or primitive
(``Delta(x) = x (x) 1 + 1 (x) x``): :func:`check_yd` relies on that to
decide one form of the Yetter-Drinfel'd condition for both.
``algebra_generators``, a subset of it, generates the descriptor as an
algebra and is the set the compatibility sweeps below run over.

Group algebras (:mod:`rackyd.group_hopf`) and degree-truncated enveloping
algebras (:mod:`rackyd.envelope`) implement this.  Inside this module the
descriptor's products are always exact: degree overflow is an error, never a
silent truncation.

A right module and right comodule M over a descriptor carries the map

    tau(x (x) y) = y_(0) (x) x . y_(1)

(:func:`rackyd.braid.braiding`, re-exported here with the rest of the
braiding layer), and the classical fact is that tau satisfies the braid
relation precisely when M satisfies the Yetter-Drinfel'd compatibility
condition

    (x h_(2))_(0) (x) h_(1) (x h_(2))_(1)  =  x_(0) h_(1) (x) x_(1) h_(2)

Every descriptor has an antipode, and the condition is equivalent to

    (x h)_(0) (x) (x h)_(1)  =  x_(0) h_(2) (x) S(h_(1)) x_(1) h_(3),

its antipode form; on the generators the two forms are one equation (see
:func:`check_yd`), so only the coproduct form is computed.  It is linear in h
and holds at h = 1 once the module axioms hold, which :class:`YDModule`
proves on construction.  The h that satisfy it for every x are closed under
products: for a group element g the condition says
``delta(x g) = (rho_g (x) c_g) delta(x)`` with ``c_g`` conjugation by g, and
both ``g -> rho_g`` and ``g -> c_g`` are anti-homomorphisms.  So it is
decided on basis elements against ``algebra_generators``; only a failure
there pays for the sweep over every generator that names the
lexicographically least witness.  The equivariance condition of
:func:`check_q_conditions` is decided the same way.

A braided Leibniz algebra is a space with a bracket ``<|`` and a map tau on
the square satisfying

    (x <| y) <| z = x <| (y <| z) + (x <| z<1>) <| y<2>

where ``tau(y (x) z) = sum z<1> (x) y<2>``.  Every identity checked here is
multilinear in the swept arguments (tau is applied before bracketing), so
brute force over basis tuples is a complete verification, not a sample.
"""

from typing import NamedTuple

# the braiding layer lives in .braid; these names are re-exported from here
from .braid import (  # noqa: F401
    BraidingMatrix, YBEReport, _rack_form, _square_side, _ybe_sides, braiding, check_ybe,
    flip_columns, flip_matrix, is_involutive, ybe_defect,
)
from .errors import DegreeOverflowError, ShapeError, ValidationError
from .linalg import flat2, lincomb, vsum
from .scalars import QQ
from .selfdist import witnesses


def _delta(hopf, i: int) -> dict:
    """Delta(e_i) as a sparse vector over pairs (a, b)."""
    return {(a, b): c for c, a, b in hopf.coproduct(i)}


def hvec_mul(hopf, a: dict, b: dict) -> dict:
    """Product of two descriptor elements given as sparse basis combinations."""
    return lincomb(a, lambda i: lincomb(b, lambda j: hopf.product(i, j)))


def hvec_counit(hopf, a: dict):
    total = hopf.field.zero
    for i, c in a.items():
        total = total + c * hopf.counit(i)
    return total


def hvec_coproduct(hopf, a: dict) -> dict:
    return lincomb(a, lambda i: _delta(hopf, i))


def coproduct2(hopf, i: int) -> dict:
    """(Delta (x) id) Delta on a basis element, as {(a, b, c): coeff}."""
    return lincomb(_delta(hopf, i),
                   lambda ab: {(*aa, ab[1]): c for aa, c in _delta(hopf, ab[0]).items()})


def _tensor(u: dict, v: dict) -> dict:
    return {(a, b): c * d for a, c in u.items() for b, d in v.items()}


def _pair(m: int, hvec: dict) -> dict:
    """e_m (x) hvec, as a sparse vector over pairs (m_idx, h_idx)."""
    return {(m, h): c for h, c in hvec.items()}


def check_hopf_axioms(hopf, skip_overflow=False):
    """Verify the bialgebra/Hopf laws of a descriptor on basis elements.

    Checks coassociativity, the counit laws, multiplicativity of the coproduct
    and counit, counit(S(h)) = counit(h), and the convolution identities
    S(h_(1)) h_(2) = counit(h) 1 = h_(1) S(h_(2)).
    Returns the first witness, or None.  With ``skip_overflow`` pairs whose
    exact product leaves a truncated descriptor's window are skipped (used for
    degree-truncated descriptors, whose laws only hold inside the window).
    """
    one = hopf.field.one
    for i in range(hopf.size):
        d = _delta(hopf, i)
        id_delta = lincomb(d, lambda ab: {
            (ab[0], *bb): c for bb, c in _delta(hopf, ab[1]).items()})
        if coproduct2(hopf, i) != id_delta:
            return ("coassociativity", i)
        left = lincomb(d, lambda ab: {ab[1]: hopf.counit(ab[0])})
        right = lincomb(d, lambda ab: {ab[0]: hopf.counit(ab[1])})
        if left != {i: one} or right != {i: one}:
            return ("counit law", i)
        if hvec_counit(hopf, hopf.antipode(i)) != hopf.counit(i):
            return ("counit of antipode", i)
        conv_l = lincomb(d, lambda ab: hvec_mul(hopf, hopf.antipode(ab[0]), {ab[1]: one}))
        conv_r = lincomb(d, lambda ab: hvec_mul(hopf, {ab[0]: one}, hopf.antipode(ab[1])))
        want = vsum({hopf.unit: hopf.counit(i)})
        if conv_l != want or conv_r != want:
            return ("antipode convolution identity", i)
    for i in range(hopf.size):
        for j in range(hopf.size):
            try:
                prod = hopf.product(i, j)
                dj = _delta(hopf, j)
                rhs = lincomb(_delta(hopf, i), lambda ab: lincomb(dj, lambda xy: _tensor(
                    hopf.product(ab[0], xy[0]), hopf.product(ab[1], xy[1]))))
            except DegreeOverflowError:
                if skip_overflow:
                    continue
                raise
            if hvec_counit(hopf, prod) != hopf.counit(i) * hopf.counit(j):
                return ("counit not multiplicative", i, j)
            if hvec_coproduct(hopf, prod) != rhs:
                return ("coproduct not an algebra map", i, j)
    return None


class YDModule:
    """A right module and right comodule over a Hopf descriptor.

    ``action[m][k]`` is the sparse vector ``e_m . g_k`` for the k-th entry of
    ``hopf.generators``; ``coaction[m]`` is ``delta(e_m)`` as a list of
    ``(m_idx, h_idx, coeff)`` triples.  Construction verifies counitality of
    the coaction and the descriptor's module axioms on generator pairs, but
    *not* the Yetter-Drinfel'd condition -- deliberately broken instances are
    representable and reported by :func:`check_yd`.
    """

    def __init__(self, hopf, basis, action, coaction):
        self.hopf = hopf
        self.field = hopf.field
        self.basis = tuple(str(b) for b in basis)
        n = len(self.basis)
        gens = list(hopf.generators)
        self._gen_pos = {g: k for k, g in enumerate(gens)}
        if len(action) != n:
            raise ValidationError("action table must have one row per basis vector")
        act = []
        for row in action:
            if len(row) != len(gens):
                raise ValidationError("action row must have one entry per generator")
            act.append(tuple({m: c for m, c in v.items() if c} for v in row))
            for v in act[-1]:
                for m in v:
                    if not 0 <= m < n:
                        raise ValidationError(f"action target {m} out of range")
        self.action = tuple(act)
        # action columns per generator: _by_gen[k][m] = e_m . g_k
        self._by_gen = tuple(tuple(row[k] for row in act) for k in range(len(gens)))
        if len(coaction) != n:
            raise ValidationError("coaction table must have one row per basis vector")
        coact = []
        for terms in coaction:
            for m, h, _ in terms:
                if not 0 <= m < n:
                    raise ValidationError(f"coaction module index {m} out of range")
                if not 0 <= h < hopf.size:
                    raise ValidationError(f"coaction descriptor index {h} out of range")
            combined = vsum(*({(m, h): c} for m, h, c in terms))
            coact.append(tuple(sorted((m, h, c) for (m, h), c in combined.items())))
        self.coaction = tuple(coact)
        # delta(e_m) as a sparse vector over pairs (m_idx, h_idx)
        self._coact = tuple({(m, h): c for m, h, c in terms} for terms in coact)
        for i, delta in enumerate(self._coact):
            if lincomb(delta, lambda mh: {mh[0]: hopf.counit(mh[1])}) != {i: self.field.one}:
                raise ValidationError(f"coaction is not counital on basis vector {i}")
        witness = hopf.check_action_axioms(self)
        if witness is not None:
            raise ValidationError(f"action violates the module axioms at {witness}")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def act_basis(self, vec: dict, h_idx: int) -> dict:
        """Apply a single descriptor *basis* element on the right of a vector."""
        if h_idx == self.hopf.unit:
            return dict(vec)
        if h_idx in self._gen_pos:
            return lincomb(vec, self._by_gen[self._gen_pos[h_idx]].__getitem__)
        out = dict(vec)
        for g in self.hopf.generator_word(h_idx):
            out = self.act_basis(out, g)
        return out

    def act_hvec(self, vec: dict, hvec: dict) -> dict:
        return lincomb(hvec, lambda h: self.act_basis(vec, h))


class YDReport(NamedTuple):
    ok: bool
    ok_coproduct_form: bool
    ok_antipode_form: bool
    witness: tuple | None


def _least_failure(module: YDModule, holds):
    """The least (m, h), h in ``hopf.generators``, at which ``holds`` fails.

    ``holds(m, h)`` must be an identity that is linear in h, true at the unit,
    and whose h (over all m) are closed under products; it is then decided on
    ``hopf.algebra_generators``, and None means it holds everywhere.
    """
    hopf = module.hopf

    def first(hs):
        return next(((m, h) for m in range(module.dim) for h in hs if not holds(m, h)), None)

    if first(hopf.algebra_generators) is None:
        return None
    return first(hopf.generators)


def check_yd(module: YDModule) -> YDReport:
    """Verify the Yetter-Drinfel'd condition on the whole module.

    The coproduct form is decided on (basis, algebra generator) pairs, which
    is complete (see the module docstring); if it fails, the report names the
    least failing (basis, generator) pair.  One sweep decides the antipode
    form too, with the same witness, because :func:`_least_failure` only
    evaluates a form at (m, h) with h in ``hopf.generators``, where the two
    forms hold or fail together:

    - for kG, h is a group element g, which is group-like; applying the
      bijection ``id (x) (g .)`` to the antipode form at (m, g),
      ``delta(m g) = m_(0) g (x) g^-1 m_(1) g``, gives the coproduct form
      ``(m g)_(0) (x) g (m g)_(1) = m_(0) g (x) m_(1) g``;
    - for :class:`rackyd.envelope.TruncatedPBW`, h is a degree-1 monomial x,
      which is primitive, and both forms read
      ``delta(m x) = m_(0) x (x) m_(1) + m_(0) (x) (m_(1) x - x m_(1))``.
      They read the same products ``x m_(1)`` and ``m_(1) x``, so a
      DegreeOverflowError is raised in both or in neither.

    So the two forms fail at the same (m, h), and their least witnesses are
    the same.  ``ok_coproduct_form`` and ``ok_antipode_form`` are both ``ok``.
    """
    hopf = module.hopf
    one = module.field.one
    coact = module._coact

    def coproduct_form(m, h):
        dh = _delta(hopf, h)

        def lhs_term(hh):  # (x h_(2))_(0) (x) h_(1) (x h_(2))_(1)
            h1, h2 = hh
            return lincomb(module.act_basis({m: one}, h2), lambda mi: lincomb(
                coact[mi], lambda mk: _pair(mk[0], hopf.product(h1, mk[1]))))

        def rhs_term(mk):  # x_(0) h_(1) (x) x_(1) h_(2)
            m0, hk = mk
            return lincomb(dh, lambda hh: lincomb(
                module.act_basis({m0: one}, hh[0]),
                lambda m1: _pair(m1, hopf.product(hk, hh[1]))))

        return lincomb(dh, lhs_term) == lincomb(coact[m], rhs_term)

    witness = _least_failure(module, coproduct_form)
    ok = witness is None
    return YDReport(ok, ok, ok, witness)


class QConditionsReport(NamedTuple):
    ok: bool
    equivariance: bool
    coderivation_condition: bool
    witnesses: dict


def check_q_conditions(module: YDModule, q) -> QConditionsReport:
    """Check the two conditions that make ``x <| y = x q(y)`` braided Leibniz.

    ``q`` maps the module into the descriptor, given as one sparse descriptor
    vector per basis element.  Its image must lie in ker(counit); that is a
    precondition forced by the colinearity condition, so a violation raises.
    The two reported conditions are

        h_(1) q(x h_(2)) = q(x) h                      (equivariance: right
                                                        linearity for the
                                                        adjoint action)
        Delta q(x) = 1 (x) q(x) + q(x_(0)) (x) x_(1)   (colinearity for the
                                                        coaction
                                                        h -> h_(1) (x) h_(2)
                                                             - 1 (x) h)

    Equivariance holds at h = 1, and for a group element g it says
    ``q(x g) = g^-1 q(x) g``, so its h are closed under products: it is
    decided on ``algebra_generators`` and its witness is the least failing
    (basis, generator) pair.  Colinearity is checked on every basis vector.
    """
    hopf = module.hopf
    one = module.field.one
    q = [vsum(v) for v in q]
    if len(q) != module.dim:
        raise ValidationError("q needs one value per basis vector")
    for i, v in enumerate(q):
        for h in v:
            if not 0 <= h < hopf.size:
                raise ValidationError(f"q descriptor index {h} out of range at basis {i}")
        if hvec_counit(hopf, v):
            raise ValidationError(f"im q must lie in ker(counit); fails at basis {i}")
    witnesses = {}

    def equivariant(m, h):
        lhs = lincomb(_delta(hopf, h), lambda hh: hvec_mul(
            hopf, {hh[0]: one}, lincomb(module.act_basis({m: one}, hh[1]), q.__getitem__)))
        return lhs == hvec_mul(hopf, q[m], {h: one})

    wit = _least_failure(module, equivariant)
    equivariance = wit is None
    if not equivariance:
        witnesses["equivariance"] = wit
    coderivation = True
    for m in range(module.dim):
        rhs = vsum(
            _pair(hopf.unit, q[m]),
            lincomb(module._coact[m], lambda mk: {(ha, mk[1]): ca for ha, ca in q[mk[0]].items()}),
        )
        if hvec_coproduct(hopf, q[m]) != rhs:
            coderivation = False
            witnesses["coderivation_condition"] = (m,)
            break
    return QConditionsReport(equivariance and coderivation, equivariance, coderivation, witnesses)


class BraidedLeibnizData(NamedTuple):
    """A bracket table together with a braiding on the same carrier."""

    basis: tuple
    bracket: tuple  # bracket[i][j] = sparse vector e_i <| e_j
    tau: BraidingMatrix
    field: object = QQ

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bra(self, vec: dict, j: int) -> dict:
        return lincomb(vec, lambda i: self.bracket[i][j])

    def bra_vec(self, vec: dict, w: dict) -> dict:
        return lincomb(w, lambda j: self.bra(vec, j))


def braided_leibniz_from_q(module: YDModule, q) -> BraidedLeibnizData:
    """Bracket ``x <| y = x q(y)`` with the canonical braiding of the module.

    Preconditions (the module is Yetter-Drinfel'd and q satisfies both
    conditions of :func:`check_q_conditions`) are enforced; the result then
    passes :func:`check_braided_leibniz`.
    """
    rep = check_yd(module)
    if not rep.ok:
        raise ValidationError(f"not a Yetter-Drinfel'd module (witness {rep.witness})")
    qrep = check_q_conditions(module, q)
    if not qrep.ok:
        raise ValidationError(f"q conditions fail: {qrep.witnesses}")
    one = module.field.one
    q = [vsum(v) for v in q]
    bracket = tuple(
        tuple(module.act_hvec({i: one}, q[j]) for j in range(module.dim))
        for i in range(module.dim)
    )
    return BraidedLeibnizData(module.basis, bracket, braiding(module), module.field)


class BraidedLeibnizReport(NamedTuple):
    ok: bool
    witness: tuple | None


def braided_leibniz_witness(bracket, tau) -> tuple | None:
    """The least basis triple (i, j, k) failing the braided Leibniz identity.

    ``bracket[i][j]`` is the sparse vector e_i <| e_j and ``tau`` the n*n
    sparse columns of the braiding, so the identity read at (i, j, k) is
    (x <| y) <| z = x <| (y <| z) + (x <| z<1>) <| y<2>.  With tau the flip
    (:func:`flip_columns`) it is the right Leibniz identity, which is also
    the Jacobi identity of a Lie bracket.  None means it holds everywhere.
    """
    n = len(bracket)

    def bra(vec, j):
        return lincomb(vec, lambda i: bracket[i][j])

    for i in range(n):
        def braided(r):
            # (x <| u) <| v for tau's output basis pair e_u (x) e_v at r
            return bra(bracket[i][r % n], r // n)

        for j in range(n):
            xy = bracket[i][j]
            for k in range(n):
                rhs = vsum(lincomb(bracket[j][k], bracket[i].__getitem__),
                           lincomb(tau[flat2(j, k, n)], braided))
                if bra(xy, k) != rhs:
                    return (i, j, k)
    return None


def check_braided_leibniz(data: BraidedLeibnizData) -> BraidedLeibnizReport:
    """The braided Leibniz identity on every basis triple, which is complete.

    Data in unit rack form, ``tau(e_x (x) e_y) = e_y (x) e_(x <| y)`` and
    ``e_x <| e_y = e_(x <| y) - e_x`` for one table ``<|``, is decided by
    :func:`rackyd.selfdist.witnesses` on the table: at (x, y, z) the two sides
    differ by ``e_((x <| y) <| z) - e_((x <| z) <| (y <| z))``.  Other data is
    swept by :func:`braided_leibniz_witness`.
    """
    if data.tau.factor_dim != data.dim:
        raise ShapeError("tau factor basis must match the bracket carrier")
    one, (op, coef) = data.field.one, _rack_form(data.tau) or (None, ())
    if op is not None and all(c == one for c in coef) and [list(row) for row in data.bracket] == [
            [{} if xy == x else {xy: one, x: -one} for xy in row] for x, row in enumerate(op)]:
        witness = witnesses(op)[0]
    else:
        witness = braided_leibniz_witness(data.bracket, data.tau.columns)
    return BraidedLeibnizReport(witness is None, witness)
