"""Exact machine verification of every real sequence satisfying
T(mn) = T(m)T(n) + T(m-1)T(n-1).

The classification lands on exactly five families: the zero sequence,
the constant 1/2, ceil(n/2), the period-3 indicator of n = 1 (mod 3),
and the triangular numbers n(n+1)/2.  All arithmetic is exact.
"""

from .classifier import (
    DEFAULT_PROBES,
    Branch,
    BranchRecord,
    ClassificationReport,
    ConstraintRecord,
    WeakProbesError,
    branch_analysis,
    cofactor_gcd_check,
    solve_c,
)
from .exactalg import (
    DomainError,
    Poly,
    RatFunc,
    equal_up_to_scalar,
    exact_div,
    extract_rational_factors,
    poly_gcd,
    rational_roots,
)
from .seqengine import (
    DEFAULT_MAX_INDEX,
    FamilyId,
    SymbolicTable,
    derive_d,
    family_value,
    residual_numerator,
)
from .veritool import (
    CheckFailure,
    VerifyReport,
    crosscheck_specialization,
    scan_candidate,
    verify_family,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchRecord",
    "CheckFailure",
    "ClassificationReport",
    "ConstraintRecord",
    "DEFAULT_MAX_INDEX",
    "DEFAULT_PROBES",
    "DomainError",
    "FamilyId",
    "Poly",
    "RatFunc",
    "SymbolicTable",
    "VerifyReport",
    "WeakProbesError",
    "branch_analysis",
    "cofactor_gcd_check",
    "crosscheck_specialization",
    "derive_d",
    "equal_up_to_scalar",
    "exact_div",
    "extract_rational_factors",
    "family_value",
    "poly_gcd",
    "rational_roots",
    "residual_numerator",
    "scan_candidate",
    "solve_c",
    "verify_family",
]
