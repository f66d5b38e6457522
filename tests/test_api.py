"""The public API: `prodrule.__all__` is pinned and every exported name imports.

Besides the exports, the acceptance gate (`tests/test_acceptance.py`) and
the benchmark's tracer (`perfbench/tracer.py`) read names straight off the
modules; each of those must stay importable too.
"""

import importlib

import pytest

import prodrule

PUBLIC = {
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
    "verify_pieces",
}

MODULES = ("exactalg", "seqengine", "classifier", "veritool", "cli")

# module -> names read from it by the acceptance gate and the tracer
CALLERS_USE = {
    "exactalg": {"Poly", "RatFunc", "equal_up_to_scalar", "poly_gcd", "rational_roots"},
    "seqengine": {"D_DENOM", "D_NUMER", "FamilyId", "SymbolicTable", "derive_d",
                  "poly_gcd", "residual_numerator"},
    "classifier": {"cofactor_gcd_check", "derive_d", "poly_gcd", "rational_roots",
                   "residual_numerator", "solve_c"},
    "veritool": {"crosscheck_specialization", "family_value", "residual_numerator",
                 "scan_candidate"},
    "cli": {"run", "solve_c", "verify_family"},
}

RETIRED = {
    "exactalg": {"Poly2", "_homogeneous_eval", "Rational"},
    "seqengine": {"BivariateTable", "_HalvingTable", "d_of_c", "_C2", "_D_MINUS_C2", "_D_POWERS", "_scales",
                  "_value", "residual", "residual_numerator_at", "doubled_form"},
    "veritool": {"_powers", "_scales"},
    "cli": {"_TEXT", "_FAMILIES", "build_parser", "_shared_parser"},
}


def test_package_all_is_pinned():
    assert len(prodrule.__all__) == len(set(prodrule.__all__))
    assert set(prodrule.__all__) == PUBLIC


def test_star_import_gives_every_export():
    namespace = {}
    exec("from prodrule import *", namespace)
    assert PUBLIC <= set(namespace)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_and_caller_names_import(module):
    mod = importlib.import_module(f"prodrule.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), (module, name)
    for name in CALLERS_USE[module]:
        assert hasattr(mod, name), (module, name)
    for name in RETIRED.get(module, ()):
        assert not hasattr(mod, name), (module, name)
        assert name not in getattr(mod, "__all__", ())


def test_the_table_keeps_no_retired_method():
    # a value at c0 is `walk_value`, a batch `_basis`, or `table.value(n)(c0)`;
    # the reach is the check-only `_reach`
    assert not hasattr(prodrule.SymbolicTable, "value_at")
    assert not hasattr(prodrule.SymbolicTable, "_entry")
