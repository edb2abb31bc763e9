#!/usr/bin/env python3
"""Regenerate the bundled fixture corpus under fixtures/.

Run from the repository root:  python scripts/make_fixtures.py
"""

import pathlib

from rackyd import (
    AugmentedRack,
    FiniteGroup,
    FiniteShelf,
    abelian_lie,
    braiding,
    central_square2,
    conjugation_augmented,
    conjugation_rack,
    dihedral_quandle,
    first_order_yd,
    grading_module,
    heisenberg_voros,
    inner_augmentation,
    jsonio,
    ker_eps_yd,
    linearize_augmented,
    non_leibniz1,
    nonabelian_lie2,
    rack_q_map,
    sl2,
    trivial_coaction_module,
)
from rackyd.cli import _write_json

OUT = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def dump(name, payload):
    path = OUT / name
    _write_json(path, payload)
    print(f"wrote {path.relative_to(OUT.parent)}")


def main():
    OUT.mkdir(exist_ok=True)

    # groups
    z2 = FiniteGroup.cyclic(2)
    z3 = FiniteGroup.cyclic(3)
    s3 = FiniteGroup.symmetric(3)
    s4 = FiniteGroup.symmetric(4)
    for name, g in [("z2", z2), ("z3", z3), ("s3", s3), ("s4", s4)]:
        dump(f"group_{name}.json", g.to_json_dict())

    # shelves and racks
    trivial3 = FiniteShelf(["a", "b", "c"], [[i] * 3 for i in range(3)])
    dump("rack_trivial3.json", trivial3.to_json_dict())
    for n in range(3, 8):
        dump(f"rack_dihedral{n}.json", dihedral_quandle(n).to_json_dict())
    dump("rack_s3_conj.json", conjugation_rack(s3).to_json_dict())
    # 0 <| 0 = 1, everything else the first argument: self-distributive but
    # the right translation by 0 is not injective, so a shelf and not a rack
    dump("shelf_not_rack.json", FiniteShelf(["0", "1"], [[1, 0], [1, 1]]).to_json_dict())
    # fails self-distributivity at (0, 0, 1)
    dump("not_a_shelf.json", FiniteShelf(["0", "1"], [[0, 1], [0, 0]]).to_json_dict())

    # augmented racks
    s3_conj = conjugation_augmented(s3)
    dump("aug_s3_conj.json", s3_conj.to_json_dict())
    aug_z2 = AugmentedRack(["0", "1"], z2, [[0, 0], [1, 1]], [0, 1])
    dump("aug_z2_trivial.json", aug_z2.to_json_dict())
    # same carrier and p but with the trivial action: the augmentation
    # identity fails at any non-central pair
    trivial_action = [[x] * s3.size for x in range(s3.size)]
    broken_aug = AugmentedRack(s3.elements, s3, trivial_action, list(range(s3.size)))
    dump("aug_s3_broken.json", broken_aug.to_json_dict())
    for n in range(3, 8):
        dump(f"aug_dihedral{n}.json", inner_augmentation(dihedral_quandle(n)).to_json_dict())

    # module-comodule files
    dump("yd_s3_conj.json", jsonio.yd_to_dict(linearize_augmented(s3_conj).module))
    aug_d3 = inner_augmentation(dihedral_quandle(3))
    dump("yd_dihedral3.json", jsonio.yd_to_dict(linearize_augmented(aug_d3).module))
    dump("yd_kereps_z2.json", jsonio.yd_to_dict(ker_eps_yd(z2)))
    dump("yd_kereps_s3.json", jsonio.yd_to_dict(ker_eps_yd(s3)))
    hv_mod = first_order_yd(heisenberg_voros())
    dump("yd_hv_first_order.json", jsonio.yd_to_dict(hv_mod))
    hv_braiding = braiding(hv_mod)
    dump("braiding_hv_sparse.json", hv_braiding.to_json_dict())
    # the same braiding in the dense format, which the loaders still read
    dump("matrix_hv_braiding.json", {
        "basis_order": hv_braiding.convention,
        "factor_basis": list(hv_braiding.factor_basis),
        "matrix": hv_braiding.matrix.to_json_dict(),
    })

    e = s3.identity
    swapped = list(range(s3.size))
    a, b = [i for i in range(s3.size) if i != e][:2]
    swapped[a], swapped[b] = swapped[b], swapped[a]
    dump("yd_s3_broken.json", jsonio.yd_to_dict(grading_module(s3_conj, swapped)))
    g2 = list(aug_d3.p)
    g2[0], g2[1] = g2[1], g2[0]
    dump("yd_dihedral3_broken.json", jsonio.yd_to_dict(grading_module(aug_d3, g2)))

    # action_perms[g][x] = image of x under g
    conj_perms = [[s3.conj(x, g) for x in range(s3.size)] for g in range(s3.size)]
    dump(
        "yd_s3_trivial_coaction.json",
        jsonio.yd_to_dict(trivial_coaction_module(s3, conj_perms, labels=s3.elements)),
    )

    # a module whose braiding matrix is not integral: one-dimensional module
    # over the enveloping algebra of the abelian line, the generator acting
    # by 1/2 and appearing in the coaction
    noninteger = {
        "hopf": {
            "kind": "first_order_enveloping",
            "lie": abelian_lie(1).to_json_dict(),
            "degree": 2,
        },
        "basis": ["m"],
        "action": [[{"0": "1/2"}]],
        "coaction": [[[0, 0, "1"], [0, 1, "1"]]],
    }
    dump("yd_noninteger.json", noninteger)

    # Leibniz structure constants
    dump("leibniz_heisenberg_voros.json", heisenberg_voros().to_json_dict())
    dump("leibniz_abelian2.json", abelian_lie(2).to_json_dict())
    dump("leibniz_nonabelian2.json", nonabelian_lie2().to_json_dict())
    dump("leibniz_sl2.json", sl2().to_json_dict())
    dump("leibniz_central_square2.json", central_square2().to_json_dict())
    dump("leibniz_not.json", non_leibniz1().to_json_dict())

    # q-map for the S3 conjugation module
    dump("q_s3_conj.json", jsonio.q_to_dict(rack_q_map(linearize_augmented(s3_conj))))


if __name__ == "__main__":
    main()
