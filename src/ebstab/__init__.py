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
    directional_derivative,
    evaluate,
    subdifferential,
)
from .geometry import (
    MinNormResult,
    OriginLocation,
    OriginTag,
    SubdiffSet,
    min_norm_point,
    min_support_direction,
)
from .moduli import (
    BoundarySample,
    BoxSample,
    ModulusReport,
    QCWitness,
    StabilityVerdict,
    boundary_sample,
    box_sample,
    classify_global_stability,
    classify_local_stability,
    distance_to_solution_set,
    eta_global,
    eta_local,
    find_slater_point,
    local_modulus,
    qc_witness_search,
)
from .problems import ProblemFile, parse_problem, serialize_expr, serialize_problem
from .reports import emit_report, make_envelope
from .scenarios import SCENARIO_NAMES, ScenarioReport, reproduce
from .sphere import (
    BetaCertificate,
    beta,
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
    materialize_sup,
)

__version__ = "0.1.0"
