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
    Poly2,
    RatFunc,
    Rational,
    equal_up_to_scalar,
    exact_div,
    extract_rational_factors,
    poly_gcd,
    rational_roots,
)
from .seqengine import (
    DEFAULT_MAX_INDEX,
    BivariateTable,
    FamilyId,
    SymbolicTable,
    d_of_c,
    derive_d,
    family_value,
    residual,
    residual_numerator,
    residual_numerator_at,
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
    "BivariateTable",
    "CheckFailure",
    "ClassificationReport",
    "ConstraintRecord",
    "DEFAULT_MAX_INDEX",
    "DEFAULT_PROBES",
    "DomainError",
    "FamilyId",
    "Poly",
    "Poly2",
    "RatFunc",
    "Rational",
    "SymbolicTable",
    "VerifyReport",
    "WeakProbesError",
    "branch_analysis",
    "cofactor_gcd_check",
    "crosscheck_specialization",
    "d_of_c",
    "derive_d",
    "equal_up_to_scalar",
    "exact_div",
    "extract_rational_factors",
    "family_value",
    "poly_gcd",
    "rational_roots",
    "residual",
    "residual_numerator",
    "residual_numerator_at",
    "scan_candidate",
    "solve_c",
    "verify_family",
]
