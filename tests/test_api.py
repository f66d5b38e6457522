"""The public API: `prodrule.__all__` is pinned and every exported name imports.

Besides the exports, the acceptance gate (`tests/test_acceptance.py`) and
the benchmark's tracer (`perfbench/tracer.py`) read names straight off the
modules; each of those must stay importable too.  The five records keep
the field order and defaults they had as dataclasses, and a CLI process
imports none of the heavy stdlib modules that `src/` has given up.
"""

import importlib
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import prodrule
from prodrule import (
    BranchRecord,
    CheckFailure,
    ClassificationReport,
    ConstraintRecord,
    FamilyId,
    SymbolicTable,
    VerifyReport,
    branch_analysis,
    solve_c,
    verify_family,
)

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
    "exactalg": {"Poly2", "_homogeneous_eval", "Rational", "Union"},
    "seqengine": {"BivariateTable", "_HalvingTable", "d_of_c", "_C2", "_D_MINUS_C2", "_D_POWERS", "_scales",
                  "_value", "residual", "residual_numerator_at", "doubled_form"},
    "classifier": {"dataclass", "field"},
    "veritool": {"_powers", "_scales", "dataclass"},
    "cli": {"_TEXT", "_FAMILIES", "build_parser", "_shared_parser", "Path"},
}

# stdlib modules that `src/` no longer imports, and that cost most of a CLI process's start-up
UNLOADED_BY_CLI = ("dataclasses", "typing", "pathlib", "inspect", "ast")


def test_package_all_is_pinned():
    assert len(prodrule.__all__) == len(set(prodrule.__all__))
    assert set(prodrule.__all__) == PUBLIC


def test_each_library_module_exports_its_own_share_of_the_package():
    # the package's __all__ is the union of its modules' lists, each name in one of them
    shares = [importlib.import_module(f"prodrule.{module}").__all__ for module in MODULES if module != "cli"]
    assert sorted(name for share in shares for name in share) == sorted(prodrule.__all__) == sorted(PUBLIC)


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


def test_a_cli_process_imports_no_heavy_stdlib_module():
    # -S: no site, so only what prodrule.cli imports is loaded
    src = str(Path(prodrule.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import prodrule.cli; "
            f"print(' '.join(m for m in {UNLOADED_BY_CLI!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=10).stdout
    assert out.split() == []


# each record, its fields in the order the dataclasses had them, and one instance
RECORDS = {
    "BranchRecord": (BranchRecord, "branch conclusion families justification", lambda: branch_analysis()[0]),
    "ConstraintRecord": (ConstraintRecord, "m n numerator roots cofactor",
                         lambda: ConstraintRecord.probe(3, 3, SymbolicTable())),
    "ClassificationReport": (ClassificationReport,
                             "branches d_formula constraints surviving_c family_map residual_cofactor_check "
                             "cofactor_gcd_check notes unresolved_cofactor", solve_c),
    "CheckFailure": (CheckFailure, "m n lhs rhs", lambda: CheckFailure(2, 3, Fraction(1, 2), Fraction(3, 4))),
    "VerifyReport": (VerifyReport, "subject range checked failures", lambda: verify_family(FamilyId.ZERO, 3)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_keeps_its_fields_and_is_immutable(name):
    cls, fields, make = RECORDS[name]
    assert cls.__name__ == name and cls._fields == tuple(fields.split())
    assert cls._field_defaults == ({"notes": (), "unresolved_cofactor": None} if cls is ClassificationReport else {})
    record = make()
    assert type(record) is cls
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], getattr(record, cls._fields[0]))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert repr(record) == f"{name}({', '.join(f'{field}={value!r}' for field, value in zip(cls._fields, record))})"
    if cls is CheckFailure:
        assert repr(record) == "CheckFailure(m=2, n=3, lhs=Fraction(1, 2), rhs=Fraction(3, 4))"
