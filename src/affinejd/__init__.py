"""Affine jump-diffusions on closed convex state spaces: generalized
Riccati ODEs, the exponential-moment transform with explosion semantics,
and Monte Carlo validation."""

from .cone import ConeCheckResult, cone_leq, interior_preservation_check, monotonicity_check, regularity_Lu_check
from .errors import (
    AffineError,
    CholeskyFailure,
    DimensionMismatch,
    DivergentIntegral,
    ExplosionBeforeHorizon,
    IntensityInfinite,
    ModelFormatError,
    NegativeJumpWeight,
    NonFiniteRHS,
    PathOverflow,
    StateSpaceMismatch,
    StepLimitExceeded,
    UnsupportedFamily,
    UnsupportedSpace,
)
from .jumps import ExponentialRay, FiniteAtomic, JumpMeasure, TabulatedDensity
from .model import (
    AdmissibilityReport,
    AffineModel,
    check_admissibility,
    diffusion_at,
    drift_at,
    exponential_moment_condition,
    in_U,
    k_eval,
)
from .modelio import canonical_json, load_model, model_from_dict, model_hash, model_to_dict, save_model
from .riccati import (
    ExplosionResult,
    RiccatiSolution,
    explosion_time,
    flow_identity_residual,
    mean_flow,
    riccati_rhs,
    solution_to_csv,
    solve_riccati,
    variation_of_constants_residual,
)
from .simulate import (
    MCEstimate,
    MartingaleReport,
    PathEnsemble,
    SimConfig,
    ensemble_summary_csv,
    expected_jump_count,
    martingale_diagnostic,
    mc_transform,
    simulate_paths,
    sup_moment,
)
from .statespace import Canonical, HalfSpaceIntersection, Lorentz, Parabolic, PSDCone, StateSpace, unvech, vech
from .transform import (
    DampingDiagnostic,
    RayProbe,
    TransformValue,
    damped_model,
    damped_transform_sequence,
    effective_domain_ray,
    infinite_divisibility_check,
    scaled_model,
    transform,
)

__version__ = "0.1.0"
