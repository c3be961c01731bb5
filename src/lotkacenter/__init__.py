"""Center-focus analysis for planar power-law predator-prey systems.

The library answers one question about the two-species model

    dx/dt = x**a1 * y**b1 - 1
    dy/dt = K * (1 - x**a3 * y**b3)        (K > 0)

on the open positive quadrant: when the equilibrium (1, 1) has purely
imaginary eigenvalues, is it a center or a fine focus?  Closed-form
focal values, a table of first integrals, reversibility transforms, a
numerical Lyapunov engine and a Poincare return map all feed the same
verdict and cross-check each other.
"""

from .classifier import (
    CenterCase,
    CenterClassification,
    Verdict,
    classify,
    match_table_cases,
)
from .conserved import (
    FirstIntegral,
    IntegralCase,
    build_integral,
    evaluate,
    gradient,
    invariance_residual,
)
from .dynamics import (
    BautinResult,
    CycleRecord,
    CycleStability,
    LimitCycleReport,
    ReturnRecord,
    TerminationReason,
    Trajectory,
    bautin_scenario,
    detect_limit_cycles,
    integrate,
    poincare_return,
    section_displacement,
)
from .errors import (
    BadBase,
    CaseMismatch,
    DomainError,
    InsufficientDegree,
    IntegrationFailure,
    InternalInconsistency,
    LotkaError,
    NoKnownIntegral,
    NonIsolatedEquilibrium,
    NoPositiveEquilibrium,
    NoReturn,
    PreconditionViolated,
)
from .focal import (
    FocalBranch,
    FocalValues,
    LyapunovQuantities,
    TaylorField,
    closed_form_focal,
    lyapunov_numeric,
    taylor_expand,
)
from .model import (
    CanonicalParams,
    EigenvalueKind,
    JacobianSummary,
    Point,
    RawLotkaParams,
    canonicalize,
    jacobian,
    vector_field,
)
from .symmetry import (
    TransformedField,
    r1_residual,
    r2_residual,
    r2_transform,
    transformed_field_value,
)

__version__ = "0.1.0"

__all__ = [
    "BadBase",
    "BautinResult",
    "CanonicalParams",
    "CaseMismatch",
    "CenterCase",
    "CenterClassification",
    "CycleRecord",
    "CycleStability",
    "DomainError",
    "EigenvalueKind",
    "FirstIntegral",
    "FocalBranch",
    "FocalValues",
    "InsufficientDegree",
    "IntegralCase",
    "IntegrationFailure",
    "InternalInconsistency",
    "JacobianSummary",
    "LimitCycleReport",
    "LotkaError",
    "LyapunovQuantities",
    "NoKnownIntegral",
    "NonIsolatedEquilibrium",
    "NoPositiveEquilibrium",
    "NoReturn",
    "Point",
    "PreconditionViolated",
    "RawLotkaParams",
    "ReturnRecord",
    "TaylorField",
    "TerminationReason",
    "Trajectory",
    "TransformedField",
    "Verdict",
    "bautin_scenario",
    "build_integral",
    "canonicalize",
    "classify",
    "closed_form_focal",
    "detect_limit_cycles",
    "evaluate",
    "gradient",
    "integrate",
    "invariance_residual",
    "jacobian",
    "lyapunov_numeric",
    "match_table_cases",
    "poincare_return",
    "r1_residual",
    "r2_residual",
    "r2_transform",
    "section_displacement",
    "taylor_expand",
    "transformed_field_value",
    "vector_field",
]
