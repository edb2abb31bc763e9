"""The antipode form of the Yetter-Drinfel'd condition, kept as a reference.

``rackyd.yd.check_yd`` sweeps the coproduct form alone; its docstring proves
that at every (m, h) with h in ``hopf.generators`` the antipode form

    (x h)_(0) (x) (x h)_(1)  =  x_(0) h_(2) (x) S(h_(1)) x_(1) h_(3)

holds or fails with it.  :func:`antipode_form_witness` is the sweep of that
form which ``check_yd`` no longer makes, run here over every generator with
no generating-set shortcut, so the differential tests compare the report's
``ok_antipode_form`` and witness with it.
"""

from itertools import product

from rackyd.linalg import lincomb
from rackyd.yd import coproduct2, hvec_mul


def antipode_form_holds(module, m, h) -> bool:
    """The antipode form at basis vector m and descriptor basis element h; a
    product outside a truncated descriptor's window raises DegreeOverflowError."""
    hopf, one, coact = module.hopf, module.field.one, module._coact

    def pair(m1, hvec):
        return {(m1, k): c for k, c in hvec.items()}

    def rhs_term(t):  # x_(0) h_(2) (x) S(h_(1)) x_(1) h_(3)
        h1, h2, h3 = t
        return lincomb(coact[m], lambda mk: lincomb(
            module.act_basis({mk[0]: one}, h2),
            lambda m1: pair(m1, hvec_mul(
                hopf, hvec_mul(hopf, hopf.antipode(h1), {mk[1]: one}), {h3: one}))))

    # (x h)_(0) (x) (x h)_(1)
    lhs = lincomb(module.act_basis({m: one}, h), coact.__getitem__)
    return lhs == lincomb(coproduct2(hopf, h), rhs_term)


def antipode_form_witness(module):
    """The least (m, h), h in ``hopf.generators``, at which the antipode form
    fails, swept over every pair in order; None if it holds at all of them."""
    return next(((m, h) for m, h in product(range(module.dim), module.hopf.generators)
                 if not antipode_form_holds(module, m, h)), None)
