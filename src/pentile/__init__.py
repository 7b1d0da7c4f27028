"""Convex pentagon tilings: types, patches, verification, node statistics."""

from .errors import (
    AngleSumViolation,
    ClosureViolation,
    DegenerateLimit,
    DegenerateTile,
    EmptyModel,
    EmptyPatch,
    InfeasibleParams,
    InvalidInnerRadius,
    ModeMismatch,
    NegativeLength,
    NonConvergence,
    NonConvexAngles,
    ParseError,
    PentileError,
    RecipeInvalid,
    SingularClosure,
    TypeMismatch,
    UnknownType,
)
from .catalog import (
    RepresentativeInstance,
    TypeSpec,
    classify,
    get_type_spec,
    representative,
    solve_instance,
)
from .pentagon import (
    RELATION_NAMES,
    Pentagon,
    has_theorem1_property,
    make_pentagon,
    pentagon_from_json_dict,
    satisfied_relations,
    solve_edges,
)
from .tiling import (
    Isometry,
    PlacedTile,
    TilingRecipe,
    builtin_recipe,
    congruence_defect,
    generate_patch,
    load_recipe,
)
from .arrangement import (
    Patch,
    PatchEdge,
    PatchVertex,
    patch_from_json_dict,
)
from .verifier import (
    CheckReport,
    NormalityWitness,
    check_coverage,
    check_no_overlap,
    check_periodicity,
    normality_witness,
    verify_patch,
)
from .stats import (
    LimitEstimate,
    PatchStats,
    average_adjacents,
    average_valence,
    balance_residual,
    compute_stats,
    euler_residual,
    limit_sweep,
    proof_model_average_valence,
    proposition1_check,
    synthetic_limit,
    write_sweep_csv,
)
from .render import patch_to_svg

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
