"""latsuper: exact supercharacter theories from lattices of normal subgroups."""

from .errors import (
    AmbiguityError,
    ArgumentError,
    CapacityError,
    CompatibilityError,
    ConstructionError,
    FormulaInapplicableError,
    InputError,
    InternalConsistencyError,
    LatsuperError,
    UnfavorableEmbeddingError,
    UnsupportedStructureError,
    VerificationError,
)
from .groups import (
    GroupSpec,
    GroupTable,
    conjugacy_classes,
    is_normal,
    make_group,
)
from .lattice import (
    NormalLattice,
    birkhoff_antichain,
    cover_to_irreducible_map,
    distributive_analysis,
    is_general_position,
    normal_lattice,
)
from .products import ProductReport, decompose_class_function, tensor_product
from .restriction import (
    GroupEmbedding,
    RestrictionContext,
    build_restriction_context,
    compute_A_H,
    restrict_decompose,
)
from .sct import (
    SCTheory,
    SuperclassPartition,
    build_theory,
    chi_bullet_multiplicative,
    chi_subgroup,
    degree_sum,
    inner_product,
    verify_sct,
)

__version__ = "0.1.0"
