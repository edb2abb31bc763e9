"""rackyd: exact-arithmetic racks, Yetter-Drinfel'd modules, and braided
Leibniz algebras over finite Hopf descriptors."""

from .errors import (
    ConsistencyError,
    DegreeOverflowError,
    ShapeError,
    ValidationError,
)
from .scalars import QQ, PrimeField, field_from_name
from .linalg import Matrix, kron, mat_mul
from .racks import (
    AugmentedRack,
    FiniteGroup,
    FiniteShelf,
    check_augmented,
    check_shelf,
    conjugation_augmented,
    conjugation_rack,
    dihedral_quandle,
    induced_rack,
    inner_augmentation,
    rack_braiding_ybe,
    rack_tensor_and_braiding,
)
from .yd import (
    BraidedLeibnizData,
    BraidingMatrix,
    YDModule,
    braided_leibniz_from_q,
    braiding,
    check_braided_leibniz,
    check_hopf_axioms,
    check_q_conditions,
    check_yd,
    check_ybe,
    flip_matrix,
    is_involutive,
)
from .group_hopf import (
    GroupAlgebraDescriptor,
    GroupAlgebraElement,
    adjoint_action,
    function_dual_check,
    grading_module,
    hopf_ops,
    ker_eps_yd,
    linearize_augmented,
    rack_q_map,
    trivial_coaction_module,
)
from .leibniz import (
    LeibnizAlgebra,
    abelian_lie,
    central_square2,
    check_leibniz,
    first_order_yd,
    heisenberg_voros,
    lie_map_object,
    lie_quotient,
    non_leibniz1,
    nonabelian_lie2,
    sl2,
    squares_ideal,
    unital_shelf,
)
from . import jsonio
from .envelope import (
    EnvTetramodule,
    EnvelopingDescriptor,
    LieMapObject,
    TruncatedPBW,
    antipode_checks,
    antipode_component,
    build_env,
    enveloping_bracket,
    f_tilde_checks,
    inv_part,
    phi_checks,
    phi_map,
)

__version__ = "0.1.0"
