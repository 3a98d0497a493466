"""Exact cohomology dimensions for anticanonical and pluricanonical bundles
on Hirzebruch surfaces and on blow-ups of the projective plane at points,
with cross-checked closed formulas and deformation-family jump reports.

All arithmetic is exact: arbitrary-precision integers and rationals only.
"""

__version__ = "0.1.0"

from .blowup import (
    JetConditionMatrix,
    PointConfiguration,
    PointFileError,
    SamplingBudgetError,
    achievable_dims,
    blowup_row,
    generate_configuration,
    h0_blowup,
    jet_matrix,
    monomial_count,
    parse_point_file,
)
from .exact_linalg import RatMatrix, rank
from .family import (
    FiberReportRow,
    KodairaFamily,
    noninvariance_report_blowup,
    noninvariance_report_hirzebruch,
)
from .hirzebruch import (
    FormulaEvaluation,
    HirzebruchSurface,
    RegimeError,
    dim_enumerated,
    dim_formula,
    h1_pluricanonical_formula,
    hirzebruch_row,
    section_basis,
)
from .surface_invariants import (
    CohomologyRow,
    SurfaceInvariants,
    h1_from_rr,
    invariants_blowup_p2,
    invariants_hirzebruch,
)

__all__ = [
    "CohomologyRow",
    "FiberReportRow",
    "FormulaEvaluation",
    "HirzebruchSurface",
    "JetConditionMatrix",
    "KodairaFamily",
    "PointConfiguration",
    "PointFileError",
    "RatMatrix",
    "RegimeError",
    "SamplingBudgetError",
    "SurfaceInvariants",
    "achievable_dims",
    "blowup_row",
    "dim_enumerated",
    "dim_formula",
    "generate_configuration",
    "h0_blowup",
    "h1_from_rr",
    "h1_pluricanonical_formula",
    "hirzebruch_row",
    "invariants_blowup_p2",
    "invariants_hirzebruch",
    "jet_matrix",
    "monomial_count",
    "noninvariance_report_blowup",
    "noninvariance_report_hirzebruch",
    "parse_point_file",
    "rank",
    "section_basis",
]
