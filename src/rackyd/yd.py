"""Yetter-Drinfel'd modules, their braidings, and braided Leibniz brackets.

A *Hopf descriptor* is any object with a finite distinguished basis exposing

    field, size, labels, unit, generators, has_antipode,
    product(i, j)        -> {idx: coeff}      (exact; may raise DegreeOverflowError)
    coproduct(i)         -> [(coeff, a, b)]   (distinct pairs (a, b))
    counit(i)            -> scalar
    antipode(i)          -> {idx: coeff}
    generator_word(i)    -> [generator indices] with product i
    check_action_axioms(module) -> witness | None  (reads every column of module.action)

Group algebras (:mod:`rackyd.group_hopf`) and degree-truncated enveloping
algebras (:mod:`rackyd.envelope`) implement this.  Inside this module the
descriptor's products are always exact: degree overflow is an error, never a
silent truncation.

A right module and right comodule M over a descriptor carries the map

    tau(x (x) y) = y_(0) (x) x . y_(1)

and the classical fact is that tau satisfies the braid relation precisely
when M satisfies the Yetter-Drinfel'd compatibility condition

    (x h_(2))_(0) (x) h_(1) (x h_(2))_(1)  =  x_(0) h_(1) (x) x_(1) h_(2)

(checked on basis elements against descriptor generators, which suffices by
bilinearity).  When the descriptor has an antipode the condition is
equivalent to

    (x h)_(0) (x) (x h)_(1)  =  x_(0) h_(2) (x) S(h_(1)) x_(1) h_(3),

and both forms are computed.

A braided Leibniz algebra is a space with a bracket ``<|`` and a map tau on
the square satisfying

    (x <| y) <| z = x <| (y <| z) + (x <| z<1>) <| y<2>

where ``tau(y (x) z) = sum z<1> (x) y<2>``.  Every identity checked here is
multilinear in the swept arguments (tau is applied before bracketing), so
brute force over basis tuples is a complete verification, not a sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from .errors import DegreeOverflowError, ShapeError, ValidationError
from .linalg import Matrix, flat2, lincomb, vsum
from .scalars import QQ


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
    and counit, counit(S(h)) = counit(h), and (when an antipode is present)
    the convolution identities S(h_(1)) h_(2) = counit(h) 1 = h_(1) S(h_(2)).
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
        if hopf.has_antipode:
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
            act.append(tuple(vsum(v) for v in row))
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


@dataclass(frozen=True)
class YDReport:
    ok: bool
    ok_coproduct_form: bool
    ok_antipode_form: bool | None
    witness: tuple | None


def check_yd(module: YDModule) -> YDReport:
    """Verify the Yetter-Drinfel'd condition on all (basis, generator) pairs.

    Both the coproduct form and (when the descriptor has an antipode) the
    antipode form are computed independently; for a Hopf descriptor they are
    equivalent and the two booleans agree on every instance we construct.
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

    def antipode_form(m, h):
        def rhs_term(t):  # x_(0) h_(2) (x) S(h_(1)) x_(1) h_(3)
            h1, h2, h3 = t
            return lincomb(coact[m], lambda mk: lincomb(
                module.act_basis({mk[0]: one}, h2),
                lambda m1: _pair(m1, hvec_mul(
                    hopf, hvec_mul(hopf, hopf.antipode(h1), {mk[1]: one}), {h3: one}))))

        # (x h)_(0) (x) (x h)_(1)
        lhs = lincomb(module.act_basis({m: one}, h), coact.__getitem__)
        return lhs == lincomb(coproduct2(hopf, h), rhs_term)

    def first_failure(holds):
        return next(((m, h) for m in range(module.dim) for h in hopf.generators
                     if not holds(m, h)), None)

    wit2 = first_failure(coproduct_form)
    ok2 = wit2 is None
    wit3, ok3 = None, None
    if hopf.has_antipode:
        wit3 = first_failure(antipode_form)
        ok3 = wit3 is None
    ok = ok2 and (ok3 is not False)
    return YDReport(ok, ok2, ok3, wit2 if wit2 is not None else wit3)


class BraidingMatrix:
    """The map tau on M (x) M, in the global flattening convention.

    It is held as n*n sparse columns, ``columns[flat2(a, b, n)]`` being
    tau(e_a (x) e_b); ``matrix`` is the dense view, built on first use.  The
    first argument is either that dense ``Matrix`` or the columns.
    """

    def __init__(self, matrix, factor_basis, convention="second-factor-major"):
        if isinstance(matrix, Matrix):
            _square_side(matrix)
            self._matrix = matrix
            self.columns = matrix.columns()
        else:
            self._matrix = None
            self.columns = tuple(matrix)
        self.factor_basis = tuple(factor_basis)
        self.convention = convention

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
            "matrix": self.matrix.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d, field=QQ):
        try:
            m = Matrix.from_json_dict(d["matrix"], field)
            return cls(m, tuple(d["factor_basis"]), d.get("basis_order", "second-factor-major"))
        except (KeyError, TypeError) as exc:
            raise ValidationError("braiding JSON needs factor_basis/matrix") from exc


def braiding(module: YDModule) -> BraidingMatrix:
    """``tau(x (x) y) = y_(0) (x) x . y_(1)`` on basis pairs."""
    n = module.dim
    one = module.field.one
    columns = [None] * (n * n)
    for a in range(n):
        for b in range(n):
            columns[flat2(a, b, n)] = lincomb(module._coact[b], lambda bh: {
                flat2(bh[0], m, n): c for m, c in module.act_basis({a: one}, bh[1]).items()})
    return BraidingMatrix(columns, module.basis)


def flip_matrix(n: int, field=QQ) -> Matrix:
    """The tensor flip e_i (x) e_j -> e_j (x) e_i as a matrix."""
    return Matrix.from_columns(
        [{flat2(f // n, f % n, n): field.one} for f in range(n * n)], n * n
    )


def _square_side(m: Matrix) -> int:
    if m.rows != m.cols:
        raise ShapeError("braiding matrix must be square")
    n = math.isqrt(m.rows)
    if n * n != m.rows:
        raise ShapeError("braiding matrix size must be a perfect square")
    return n


def _tau_columns(t):
    """Sparse columns of a braiding given as a BraidingMatrix or a Matrix, and dim M."""
    if isinstance(t, BraidingMatrix):
        columns = t.columns
    else:
        _square_side(t)
        columns = t.columns()
    return columns, math.isqrt(len(columns))


@dataclass(frozen=True)
class YBEReport:
    ok: bool
    defect: Matrix | None = dc_field(default=None, repr=False)
    witness: tuple | None = None


def check_ybe(t) -> YBEReport:
    """Exact Yang-Baxter check: (T x 1)(1 x T)(T x 1) = (1 x T)(T x 1)(1 x T).

    Both sides are applied to one basis triple e_i (x) e_j (x) e_k at a time.
    On failure ``witness`` is the lexicographically least failing (i, j, k),
    and ``defect`` is the dense matrix of the difference of the two sides.
    """
    columns, n = _tau_columns(t)
    nn = n * n

    def t12(f):  # f = flat2(flat2(i, j, n), k, nn)
        ij, k = f % nn, f // nn
        return {flat2(r, k, nn): c for r, c in columns[ij].items()}

    def t23(f):  # f = flat2(i, flat2(j, k, n), n)
        i, jk = f % n, f // n
        return {flat2(i, r, n): c for r, c in columns[jk].items()}

    def sides(f):
        return lincomb(lincomb(t12(f), t23), t12), lincomb(lincomb(t23(f), t12), t23)

    def fails(i, j, k):
        lhs, rhs = sides(flat2(flat2(i, j, n), k, nn))
        return lhs != rhs

    triples = ((i, j, k) for i in range(n) for j in range(n) for k in range(n))
    witness = next((ijk for ijk in triples if fails(*ijk)), None)
    if witness is None:
        return YBEReport(True)
    # column f of the defect is lhs - rhs applied to e_f
    defect = [lincomb({0: 1, 1: -1}, sides(f).__getitem__) for f in range(nn * n)]
    return YBEReport(False, Matrix.from_columns(defect, nn * n), witness)


def is_involutive(t) -> bool:
    columns, _ = _tau_columns(t)
    return all(lincomb(col, columns.__getitem__) == {f: 1} for f, col in enumerate(columns))


@dataclass(frozen=True)
class QConditionsReport:
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
    """
    hopf = module.hopf
    one = module.field.one
    q = [vsum(v) for v in q]
    if len(q) != module.dim:
        raise ValidationError("q needs one value per basis vector")
    for i, v in enumerate(q):
        if hvec_counit(hopf, v):
            raise ValidationError(f"im q must lie in ker(counit); fails at basis {i}")
    witnesses = {}
    equivariance = True
    for m in range(module.dim):
        for h in hopf.generators:
            lhs = lincomb(_delta(hopf, h), lambda hh: hvec_mul(
                hopf, {hh[0]: one}, lincomb(module.act_basis({m: one}, hh[1]), q.__getitem__)))
            if lhs != hvec_mul(hopf, q[m], {h: one}):
                equivariance = False
                witnesses["equivariance"] = (m, h)
                break
        if not equivariance:
            break
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


@dataclass(frozen=True)
class BraidedLeibnizData:
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


@dataclass(frozen=True)
class BraidedLeibnizReport:
    ok: bool
    witness: tuple | None


def check_braided_leibniz(data: BraidedLeibnizData) -> BraidedLeibnizReport:
    """Brute-force the braided Leibniz identity over all basis triples."""
    n = data.dim
    if data.tau.factor_dim != n:
        raise ShapeError("tau factor basis must match the bracket carrier")
    tau = data.tau.columns
    one = data.field.one
    for i in range(n):
        ei = {i: one}

        def braided(r):
            # (x <| u) <| v for tau's output basis pair e_u (x) e_v at r
            return data.bra(data.bra(ei, r % n), r // n)

        for j in range(n):
            xy = data.bra(ei, j)
            for k in range(n):
                lhs = data.bra(xy, k)
                rhs = vsum(data.bra_vec(ei, data.bracket[j][k]),
                           lincomb(tau[flat2(j, k, n)], braided))
                if lhs != rhs:
                    return BraidedLeibnizReport(False, (i, j, k))
    return BraidedLeibnizReport(True, None)
