"""qhs: exact Weingarten calculus over the six easy partition categories and
their affine homogeneous spaces, with brute-force finite-group oracles."""

from .exact import (
    ClosureCapError,
    DomainError,
    ExactMatrix,
    IncompatibleOracleError,
    ParseError,
    ResourceGuardError,
    ScaleBaseError,
    ScaledScalar,
    SingularGramError,
    invert,
    rank,
    rank_nullspace,
)
from .frobenius import frobenius_to_fix, frobenius_to_hom
from .opspaces import (
    OperatorSpace,
    axiom_report,
    fxi_space,
    grid_cells,
    hom_operator_space,
    saturation_report,
)
from .oracle import (
    GroupDualData,
    OracleGroup,
    OracleRealization,
    averaging_operator,
    brute_integrate_G,
    build_group,
    dual_integrate_G,
    dual_matrix_moment,
    dual_s3,
    dual_X_moment,
    dual_z2,
    fixed_space,
    hom_dimension,
    normal_closure_compare,
    orbit_moment,
    parse_oracle,
)
from .partitions import (
    BLACK,
    WHITE,
    CategorySpec,
    FixBasis,
    SetPartition,
    all_pairings,
    all_partitions,
    conjugate_word,
    enumerate_category,
    fix_basis,
    format_partition,
    parse_partition,
    partition_vector,
    select_basis,
)
from .relations import (
    Relation,
    RelationSystem,
    med_spans_max,
    parse_relation_system,
    relations_hom,
    relations_max,
    relations_med,
    verify_relations,
)
from .weingarten import (
    GramData,
    IndexSet,
    K_vector,
    ergodicity_check,
    gram_weingarten,
    integrate_G,
    integrate_X,
    projection_P,
)

__version__ = "0.1.0"
