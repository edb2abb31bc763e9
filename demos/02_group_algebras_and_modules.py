#!/usr/bin/env python3
"""The group algebra as a Hopf algebra and the modules this package builds on it.

Three constructions:

* ker(counit) with the right adjoint action and the coaction
  a -> a_(1) (x) a_(2) - 1 (x) a, always Yetter-Drinfel'd;
* the linearization kX of an augmented rack, graded by p, Yetter-Drinfel'd
  exactly because the augmentation identity holds (a scrambled grading is
  caught both by the compatibility check and by the braid relation);
* the scalar-function picture: the pullback p*: k[G] -> k[X] respects the
  right adjoint coaction on delta bases.
"""

from fractions import Fraction

from rackyd import (
    FiniteGroup,
    GroupAlgebraDescriptor,
    braiding,
    check_ybe,
    check_yd,
    conjugation_augmented,
    function_dual_check,
    grading_module,
    ker_eps_yd,
    linearize_augmented,
)
from rackyd.linalg import lincomb
from rackyd.yd import hvec_coproduct, hvec_counit, hvec_mul

s3 = FiniteGroup.symmetric(3)
kS3 = GroupAlgebraDescriptor(s3)


def element(coeffs):
    """An element of kS_3 as a sparse vector {group index: coefficient}."""
    return {s3.index_of(label): Fraction(c) for label, c in coeffs.items()}


def show(x):
    return " + ".join(f"{c}*{s3.elements[g]}" for g, c in sorted(x.items())) or "0"


def adjoint(x, h):
    """The right adjoint action x <- h = S(h_(1)) x h_(2)."""
    return lincomb(hvec_coproduct(kS3, h), lambda ab: hvec_mul(
        kS3, hvec_mul(kS3, kS3.antipode(ab[0]), x), {ab[1]: kS3.field.one}))


print("== the Hopf algebra kS_3 ==")
g = element({"(1 2 3)": 1})
print(f"g = {show(g)},  S(g) = {show(lincomb(g, kS3.antipode))},  "
      f"counit(g) = {hvec_counit(kS3, g)}")
x = element({"(1 2)": 3, "(1 3)": -3})
print(f"x = {show(x)},  counit(x) = {hvec_counit(kS3, x)}")
print(f"adjoint: (1 2) <- (1 3) = "
      f"{show(adjoint(element({'(1 2)': 1}), element({'(1 3)': 1})))}")

print()
print("== ker(counit) as a Yetter-Drinfel'd module ==")
m = ker_eps_yd(s3)
print(f"basis {m.basis}")
print(f"compatibility condition holds: {check_yd(m).ok}")

print()
print("== linearizing an augmented rack ==")
aug = conjugation_augmented(s3)
lin = linearize_augmented(aug)
rep = check_yd(lin.module)
print(f"kX for X = conj(S_3): Yetter-Drinfel'd = {rep.ok}")
bm = braiding(lin.module)
print(f"its braiding is a {bm.matrix.rows}x{bm.matrix.cols} permutation matrix; "
      f"Yang-Baxter holds: {check_ybe(bm).ok}")

print()
print("== breaking the grading breaks both checks ==")
e = s3.identity
swapped = list(range(s3.size))
a, b = [i for i in range(s3.size) if i != e][:2]
swapped[a], swapped[b] = swapped[b], swapped[a]
broken = grading_module(aug, swapped)
rep = check_yd(broken)
print(f"swapped grading: compatibility = {rep.ok} (witness {rep.witness}), "
      f"Yang-Baxter = {check_ybe(braiding(broken)).ok}")

print()
print("== functions on X and G ==")
rep = function_dual_check(aug)
print(f"p* colinear for the adjoint coaction: {rep.p_star_right_colinear}")
