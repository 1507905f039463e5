"""Exact computation with preordered groups, positive cones, and split extensions."""

from types import ModuleType as _ModuleType

from .verdict import SaturationBudget, State, Verdict, Window
from .groups import (
    CayleyGroup,
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    Group,
    RationalVector,
    Semidirect,
    ShapeError,
    StructureError,
)
from .homs import (
    FreeImagesHom,
    Homomorphism,
    IdentityHom,
    LinearHom,
    PairHom,
    ScalarHom,
    TableHom,
    check_homomorphism,
    enumerate_automorphisms,
    enumerate_homomorphisms,
)
from .actions import (
    Action,
    FiniteTableAction,
    MatrixAction,
    PrecomposedAction,
    ScalingAction,
    SignAction,
    TrivialAction,
    validate_action,
)
from .cones import (
    Cone,
    ExtensionalCone,
    FullCone,
    GeneratedCone,
    IntersectionCone,
    LexCone,
    OrthantCone,
    PreorderedGroup,
    ProductCone,
    TrivialCone,
    UnitsReport,
    check_cone_axioms,
    cones_equal,
    cone_subset,
    generated_cone,
    is_monotone,
    units_subgroup,
)
from .extensions import (
    ExhaustiveFinite,
    ExtensionShape,
    FamilyCone,
    LatticeReport,
    SplitExtension,
    SuperadditiveWindow,
    UpSetFibers,
    compatible_exists,
    cone_to_family,
    enumerate_compatible_cones,
    is_compatible,
    is_minimal_equal_product,
    lex_cone,
    minimal_cone,
    normalize,
    point,
    product_cone,
    semidirect,
    validate_family,
)
from .points import (
    PointClassification,
    PointMorphism,
    StablyStrongReport,
    check_point_morphism,
    classify_point,
    default_base_catalog,
    equivariance_failure,
    hom_leq,
    is_rali,
    is_strong,
    point_product,
    pullback,
    ssfl_check,
    stably_strong_over,
)
from .classifiers import (
    AutGroup,
    MinusCone,
    PlusCone,
    TildeCone,
    admissible_check,
    aut_cone,
    build_classifier,
    classify_into,
    monotone_aut,
    no_classifier_witness,
    sclass_membership,
)
from .document import DocumentError, ProblemDocument, parse_document, run
from .catalog import builtin_catalog, catalog_dict

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
