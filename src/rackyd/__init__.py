"""rackyd: exact-arithmetic racks, Yetter-Drinfel'd modules, and braided
Leibniz algebras over finite Hopf descriptors.

The names below are loaded on first use (PEP 562), so ``import rackyd``
imports no submodule and a ``rackyd`` command pays only for the modules it
runs.  ``from rackyd import X`` and ``rackyd.<submodule>`` work as before.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConsistencyError", "DegreeOverflowError", "ShapeError", "ValidationError"),
    "scalars": ("QQ", "PrimeField", "field_from_name"),
    "linalg": ("Matrix", "kron", "mat_mul"),
    "racks": (
        "AugmentedRack", "FiniteGroup", "FiniteShelf", "check_augmented", "check_shelf",
        "conjugation_augmented", "conjugation_rack", "dihedral_quandle", "induced_rack",
        "inner_augmentation", "rack_braiding_ybe", "rack_tensor_and_braiding",
    ),
    "braid": (
        "BraidingMatrix", "braiding", "check_ybe", "flip_matrix", "is_involutive", "ybe_defect",
    ),
    "yd": (
        "BraidedLeibnizData", "YDModule", "braided_leibniz_from_q", "check_braided_leibniz",
        "check_hopf_axioms", "check_q_conditions", "check_yd",
    ),
    "group_hopf": (
        "GroupAlgebraDescriptor", "function_dual_check", "grading_module", "ker_eps_yd",
        "linearize_augmented", "rack_q_map", "trivial_coaction_module",
    ),
    "leibniz": (
        "LeibnizAlgebra", "abelian_lie", "central_square2", "check_leibniz", "first_order_yd",
        "heisenberg_voros", "lie_map_object", "lie_quotient", "non_leibniz1",
        "nonabelian_lie2", "sl2", "squares_ideal", "unital_shelf",
    ),
    "envelope": (
        "EnvTetramodule", "EnvelopingDescriptor", "LieMapObject", "TruncatedPBW",
        "antipode_checks", "build_env", "enveloping_bracket", "f_tilde_checks", "inv_part",
        "phi_checks", "phi_map",
    ),
}
_SUBMODULES = ("braid", "cli", "cli_io", "cli_leibniz", "cli_modules", "cli_racks", "envelope",
               "errors", "group_hopf", "grouptable", "jsonio", "jsonwrite", "leibniz", "linalg",
               "racks", "scalars", "selfdist", "yd")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_ORIGIN, *_SUBMODULES})
