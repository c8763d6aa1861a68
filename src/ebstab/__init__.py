"""Directional-derivative error-bound moduli and stability certificates
for convex inequality systems."""

from .errors import (
    ConvexityViolation,
    DimensionMismatch,
    EbstabError,
    MinNormNonConvergence,
    NoSignChangeInBox,
    NoSlaterPoint,
    NumericalOverflow,
    ParseError,
    PreconditionError,
    UnsupportedSubdifferential,
)
from .expressions import (
    AbsCoord,
    Affine,
    ComposeAffine,
    Const,
    ConvexExpr,
    EuclidNorm,
    Exp1D,
    Max,
    PosPartSquare,
    Sum,
    dd_quotient_scan,
    directional_derivative,
    directional_derivatives,
    evaluate,
    subdifferential,
)
from .geometry import (
    MinNormResult,
    OriginLocation,
    OriginTag,
    SubdiffSet,
    classify_origin,
    min_norm_point,
    min_support_direction,
    signed_boundary_distance,
    support,
    support_batch,
)
from .moduli import (
    BoundarySample,
    BoxSample,
    Condition39Result,
    ModulusReport,
    QCWitness,
    StabilityVerdict,
    boundary_sample,
    box_sample,
    check_condition_3_9,
    classify_global_stability,
    classify_local_stability,
    distance_to_solution_set,
    eta_global,
    eta_local,
    find_slater_point,
    qc_witness_search,
)
from .problems import ProblemFile, parse_problem, serialize_expr, serialize_problem
from .reports import emit_report, make_envelope
from .scenarios import SCENARIO_NAMES, ScenarioReport, reproduce
from .sphere import (
    BetaCertificate,
    beta,
    beta_of_linear_perturbation,
    beta_sampled,
    linear_perturbation,
    with_linear_term,
)
from .sweep import SweepResult, SweepRow, run_perturbation_sweep
from .systems import (
    ActiveSet,
    FiniteFamily,
    HypothesisCheck,
    IntervalFamily,
    active_set,
    check_active_set_hypotheses,
    classify_system_stability,
    dd_max_formula,
    materialize_sup,
    perturb_system,
    sup_value,
    system_subdifferential,
)

__version__ = "0.1.0"
