"""Reference sweeps for the truncated envelope and the tetramodule's phi identities.

``TruncatedPBW`` folds its products from a table of products by one
generator; :func:`straighten` is the word rewriting it replaced, kept as the
oracle for its products, antipode and truncation.
``rackyd.envelope.phi_checks`` and ``antipode_checks`` decide their verdicts
from f's equivariance; the sweeps below are the basis-by-basis checks they
replaced, kept as the oracle for the differential tests.  Each returns the
same record, with the same scopes and witnesses.  The actions of whole
elements of the truncated envelope, the general adjoint action and the
antipode component T are folded here from the tetramodule's generator tables.
"""

from rackyd.envelope import AntipodeReport, PhiReport, phi_map
from rackyd.linalg import lincomb, vsum
from rackyd.yd import hvec_coproduct


def straighten(pbw, word) -> dict:
    """A word in the Lie basis as a combination of ordered monomials, truncated above d.

    The first out-of-order pair ``ab`` is rewritten as ``ba + [a, b]``; the
    rewritten words are distinct, so they index one combination.  Rewriting
    never lengthens a word, and only ordered words longer than d are dropped,
    so this is the product in U(g) projected onto degree <= d.
    """
    for pos in range(len(word) - 1):
        a, b = word[pos], word[pos + 1]
        if a > b:
            head, tail = word[:pos], word[pos + 2:]
            rewrite = {head + (k,) + tail: c for k, c in pbw.brackets[a][b].items()}
            rewrite[head + (b, a) + tail] = pbw.field.one
            return lincomb(rewrite, lambda w: straighten(pbw, w))
    if len(word) > pbw.degree:
        return {}
    exp = [0] * pbw.dim_lie
    for g in word:
        exp[g] += 1
    return {pbw.index[tuple(exp)]: pbw.field.one}


def right_act(env, vec, hvec):
    """n . h for an element h of the truncated envelope, one letter at a time."""

    def on_basis(h):
        out = vec
        for g in env.pbw.word(h):
            out = env.right_act_gen(out, g)
        return out

    return lincomb(hvec, on_basis)


def left_mul(env, hvec, vec):
    """h . n for an element h of the truncated envelope, last letter first."""

    def on_basis(h):
        out = vec
        for g in reversed(env.pbw.word(h)):
            out = env.left_act_gen(g, out)
        return out

    return lincomb(hvec, on_basis)


def adjoint_by_coproduct(env, vec, h):
    """The right adjoint action S(h_(1)) . n . h_(2) of a basis monomial h, summed over Delta(h)."""
    one = env.field.one
    return lincomb({(h1, h2): c for c, h1, h2 in env.pbw.coproduct(h)}, lambda hh: left_mul(
        env, env.pbw.antipode(hh[0]), right_act(env, vec, {hh[1]: one})))


def antipode_component(env, vec):
    """T(n) = -S(n_(-1)) n_(0) S(n_(1)), from the coaction tables."""
    one = env.field.one

    def left_term(he):
        h1, e1 = he
        s1 = env.pbw.antipode(h1)
        return lincomb({(e2, h2): c for e2, h2, c in env.right_coact_tab[e1]}, lambda eh: (
            left_mul(env, s1, right_act(env, {eh[0]: one}, env.pbw.antipode(eh[1])))))

    return lincomb({e: -c for e, c in vec.items()}, lambda e: lincomb(
        {(h1, e1): c for h1, e1, c in env.left_coact_tab[e]}, left_term))


def phi_checks_by_sweep(env) -> PhiReport:
    """phi is H-bilinear and a coderivation, swept on every basis element in scope.

    The coderivation identity compares Delta(phi(n)) with
    n_(-1) (x) phi(n_(0)) + phi(n_(0)) (x) n_(1); it is exact on basis
    elements of first-factor degree <= d-1.  The bimodule identities involve
    one more product and are exact on first-factor degree <= d-2.
    """
    d = env.pbw.degree
    one = env.field.one
    witnesses = {}
    coderivation_ok = True
    for e in range(env.size):
        h, _ = env.split(e)
        if sum(env.pbw.basis[h]) > d - 1:
            continue
        lhs = hvec_coproduct(env.pbw, phi_map(env, {e: one}))
        left = lincomb({(h1, e1): c for h1, e1, c in env.left_coact_tab[e]},
                       lambda he: {(he[0], k): c for k, c in phi_map(env, {he[1]: one}).items()})
        right = lincomb({(e1, h1): c for e1, h1, c in env.right_coact_tab[e]},
                        lambda eh: {(k, eh[1]): c for k, c in phi_map(env, {eh[0]: one}).items()})
        if lhs != vsum(left, right):
            coderivation_ok = False
            witnesses["coderivation"] = env.labels[e]
            break
    bimodule_ok = True
    for e in range(env.size):
        h, _ = env.split(e)
        if sum(env.pbw.basis[h]) > d - 2:
            continue
        for k in range(env.pbw.dim_lie):
            g = env.pbw.gen_index[k]
            right_lhs = phi_map(env, env.right_act_gen({e: one}, k))
            right_rhs = lincomb(phi_map(env, {e: one}), lambda i: env.pbw.product(i, g))
            left_lhs = phi_map(env, env.left_act_gen(k, {e: one}))
            left_rhs = lincomb(phi_map(env, {e: one}), lambda i: env.pbw.product(g, i))
            if right_lhs != right_rhs or left_lhs != left_rhs:
                bimodule_ok = False
                witnesses["bimodule"] = (env.labels[e], env.pbw.lie_labels[k])
                break
        if not bimodule_ok:
            break
    return PhiReport(
        bimodule_ok and coderivation_ok,
        bimodule_ok,
        coderivation_ok,
        f"first-factor degree <= {d - 2}",
        f"first-factor degree <= {d - 1}",
        witnesses,
    )


def antipode_checks_by_sweep(env) -> AntipodeReport:
    """phi(T(n)) = S(phi(n)), swept on first-factor degree <= d-1 (exact there)."""
    d = env.pbw.degree
    one = env.field.one
    for e in range(env.size):
        h, _ = env.split(e)
        if sum(env.pbw.basis[h]) > d - 1:
            continue
        lhs = phi_map(env, antipode_component(env, {e: one}))
        rhs = lincomb(phi_map(env, {e: one}), env.pbw.antipode)
        if lhs != rhs:
            return AntipodeReport(False, f"first-factor degree <= {d - 1}", env.labels[e])
    return AntipodeReport(True, f"first-factor degree <= {d - 1}", None)
