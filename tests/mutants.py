"""A catalogue of mutants that the differential tests must kill, and its runner.

Each entry names a file under the repository root, an exact old text that
occurs there once, the new text that replaces it, the pytest ids of which
every one must fail on the mutated tree, and why the mutant matters.  The
Tier-1 guard `tests/test_mutants.py` checks that every old text still occurs
exactly once, so a refactor that moves the code updates its entry.

The runner is stdlib only and not part of Tier-1.  It copies the tree to a
temporary directory once and, entry by entry, applies the mutant, runs that
entry's tests there and restores the file.  The tests run with hypothesis
seed 0 and an address space capped at 2 GiB, so a mutant that drops a
refusal fails on `MemoryError` rather than filling the machine:

    python tests/mutants.py            # every entry
    python tests/mutants.py 0 3        # entries 0 and 3

It first runs every picked entry's tests on the unmutated copy and exits 2
if any fails there.  Then it prints one line per entry and exits 1 if any
entry survives, that is if any of its tests passes.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 2 << 30
TIMEOUT_S = 600


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    reason: str


_VT = "tests/test_veritool.py::"
_SE = "tests/test_seqengine.py::"
_EX = "tests/test_exactalg.py::"
_CLI = "tests/test_cli.py::"
_FZ = "tests/test_cli_fuzz.py::"
_API = "tests/test_api.py::test_a_record_keeps_its_fields_and_is_immutable"

MUTANTS = [
    # the grid's deciding square
    Mutant(
        "src/prodrule/veritool.py",
        "deciding = min(max_mn, len(pieces) * (degree + 1))",
        "deciding = min(max_mn, len(pieces) * degree)",
        (_VT + "test_class_decision_matches_the_fraction_table_on_random_pieces",
         _VT + "test_a_passing_grid_checks_only_its_deciding_rows[FamilyId.TRIANGULAR-40]"),
        "M delta deciding rows leave a class with only delta rows, too few to fix a degree-delta defect",
    ),
    Mutant(
        "src/prodrule/veritool.py",
        "degree = max((j for piece in pieces for j, coef in enumerate(piece) if coef), default=0)",
        "degree = 0",
        (_VT + "test_class_decision_matches_the_fraction_table_on_random_pieces",
         _VT + "test_a_passing_grid_checks_only_its_deciding_rows[FamilyId.TRIANGULAR-40]",
         _VT + "test_a_passing_grid_checks_only_its_deciding_rows[FamilyId.CEIL_HALF-40]"),
        "delta forced to 0 decides every class by one row",
    ),
    Mutant(
        "src/prodrule/veritool.py",
        "if not failures or top == max_mn:",
        "if True:",
        (_VT + "test_a_corrupted_piece_fails_past_the_deciding_rows[ceilhalf-odd]",
         _VT + "test_a_corrupted_piece_fails_past_the_deciding_rows[period3-one]",
         _VT + "test_a_corrupted_piece_fails_past_the_deciding_rows[triangular]",
         _VT + "test_class_decision_matches_the_fraction_table_on_random_pieces",
         _VT + "test_verify_family_matches_the_integer_brute_force_on_random_pieces"),
        "the whole grid never rechecked after a failing square",
    ),
    Mutant(
        "src/prodrule/veritool.py",
        "    max_mn = index(max_mn)   # a float N is refused before any work\n",
        "",
        tuple(_VT + f"test_verify_family_refuses_a_float_bound[FamilyId.{name}]"
              for name in ("ZERO", "HALF", "CEIL_HALF", "PERIOD3", "TRIANGULAR")),
        "operator.index dropped: a passing square accepts a float N and reports a float checked",
    ),
    Mutant(
        "src/prodrule/veritool.py",
        "pieces = tuple((index(c), index(b), index(a)) for c, b, a in pieces)",
        "pieces = tuple((c, b, a) for c, b, a in pieces)",
        (_VT + "test_malformed_pieces_are_refused_before_any_work[float]",
         _VT + "test_malformed_pieces_are_refused_before_any_work[fraction]"),
        "the int check on pieces dropped: float pieces pass and `Fraction` pieces report a failure",
    ),
    Mutant(
        "src/prodrule/veritool.py",
        "if top > MAX_FULL_GRID:",
        "if False:",
        (_VT + "test_a_grid_past_the_bound_is_refused_before_its_rows[square-fails-past-the-bound]",
         _VT + "test_a_grid_past_the_bound_is_refused_before_its_rows[period-past-the-bound]"),
        "the grid bound dropped: a failing grid past MAX_FULL_GRID is checked in full, N^2 failures and all",
    ),
    Mutant(
        "src/prodrule/seqengine.py",
        "for c, b, a in (pieces[x % period],)]",
        "for c, b, a in (pieces[x // step % period],)]",
        (_SE + "test_piece_values_match_the_point_evaluator[2]",
         _VT + "test_every_family_passes_a_small_grid[FamilyId.CEIL_HALF]",
         _VT + "test_every_family_passes_a_small_grid[FamilyId.PERIOD3]"),
        "u(m x) read from the class of x instead of the class of m x",
    ),
    # the specialisation checks and the reach
    Mutant(
        "src/prodrule/veritool.py",
        "if max_prod > table.max_index:   # one pass",
        "if False:   # one pass",
        (_SE + "test_a_refused_scan_lists_and_fills_nothing",),
        "the scan's refusal pass dropped: a scan past the reach lists every probe before it refuses",
    ),
    Mutant(
        "src/prodrule/veritool.py",
        "    table._reach(max_n)   # refused before any fill\n",
        "",
        (_SE + "test_a_refused_crosscheck_fills_nothing",),
        "the crosscheck's reach check dropped: entries fill before the refusal",
    ),
    Mutant(
        "src/prodrule/classifier.py",
        "    for m, n in probes:   # every probe's reach, before the first record fills an entry\n"
        "        table._reach(m * n)\n",
        "",
        (_SE + "test_a_refused_probe_fills_nothing",),
        "solve_c's reach loop dropped: the probes before a refused one fill entries",
    ),
    Mutant(
        "src/prodrule/seqengine.py",
        "scales = [(den**(2 * e - k), d**e) if 2 * e >= k else (1, den**(k - 2 * e) * d**e)",
        "scales = [(d**e, den**(2 * e - k)) if 2 * e >= k else (den**(k - 2 * e) * d**e, 1)",
        (_VT + "test_crosscheck_specialization_at_resolved_points",
         _VT + "test_scan_matches_poly_evaluation"),
        "a and b swapped in _basis",
    ),
    Mutant(
        "src/prodrule/seqengine.py",
        "for i in range(k + 1)]",
        "for i in range(k)]",
        (_VT + "test_crosscheck_specialization_at_resolved_points",
         _SE + "test_the_point_evaluator_matches_poly_evaluation_on_any_pair"),
        "the power vector w one entry short",
    ),
    Mutant(
        "src/prodrule/seqengine.py",
        "        max_index = operator.index(max_index)\n",
        "",
        (_SE + "test_float_indices_and_points_raise_and_leave_the_memos_int[SymbolicTable(1e3)]",),
        "no operator.index in SymbolicTable.__init__: a float reach is accepted",
    ),
    Mutant(
        "src/prodrule/seqengine.py",
        "if Poly(s) * const + Poly(t) * lin != -28:",
        "if False:",
        (_SE + "test_derive_d_raises_when_its_internal_checks_fail[corrupted witness]",),
        "the pole check of derive_d off",
    ),
    # the root pass
    Mutant(
        "src/prodrule/exactalg.py",
        "return quo if ints[0] + carry == 0 else None",
        "return quo",
        (_EX + "test_root_extraction_matches_the_fraction_reference",
         _EX + "test_planted_roots_match_the_reference_with_pruning_at_both_ends"),
        "the remainder check of _divide_linear dropped: a candidate that passes the pretests divides",
    ),
    Mutant(
        "src/prodrule/exactalg.py",
        "denominators = _divisors(work[-1])",
        "denominators = _divisors(work[0])",
        ("tests/test_exactalg.py::test_root_extraction_matches_the_fraction_reference",
         "tests/test_exactalg.py::test_rational_roots_fractional",
         "tests/test_exactalg.py::test_rational_roots_verified_and_complete"),
        "the hoisted denominators read off the constant term instead of the leading coefficient",
    ),
    Mutant(
        "src/prodrule/exactalg.py",
        "not work[0] % p and",
        "not work[0] % q and",
        (_EX + "test_roots_come_out_in_ascending_order",
         _EX + "test_planted_roots_match_the_reference_with_pruning_at_both_ends",
         _EX + "test_root_extraction_matches_the_fraction_reference"),
        "the constant-term pretest reads q for p: a root whose q does not divide the constant term is skipped",
    ),
    Mutant(
        "src/prodrule/exactalg.py",
        "root[0] * (lead // root[1])",
        "root[0] * root[1]",
        (_EX + "test_roots_come_out_in_ascending_order",),
        "the sort key p q instead of p (|lc|/q): -1/2 sorts before -1",
    ),
    # the rendering of a report
    Mutant(
        "src/prodrule/classifier.py",
        'base = f"c + {text[1:]}"',
        'base = f"c - {text[1:]}"',
        (_CLI + "test_stdout_matches_golden[classify]",
         "tests/test_classifier.py::test_linear_factor_str_matches_the_polynomial_rendering"),
        "the factor of a negative root printed with a minus sign",
    ),
    Mutant(
        "src/prodrule/cli.py",
        'f",\\n{inner}".join(items)',
        'f"\\n{inner}".join(items)',
        (_CLI + "test_stdout_matches_golden[classify --format json]",
         _CLI + "test_out_file_matches_golden[table --family half --max 20]",
         _CLI + "test_the_writer_matches_json_dumps_on_any_document"),
        "the JSON writer's item separator without its comma",
    ),
    Mutant(
        "src/prodrule/cli.py",
        "{encode_basestring_ascii(key)}: ",
        '\\"{key}\\": ',
        (_CLI + "test_the_writer_matches_json_dumps_on_any_document",),
        "dict keys quoted without escaping: golden keys are plain ASCII names, so only the differential test sees it",
    ),
    # the option parser
    Mutant(
        "src/prodrule/cli.py",
        "    if missing:\n",
        "    if False:\n",
        (_CLI + "test_missing_required_arguments",
         _CLI + "test_a_refusal_prints_one_error_line[required]",
         _FZ + "test_the_table_parser_reads_argv_as_the_reference_does"),
        "the REQUIRED check dropped: a missing option reaches its command as the sentinel",
    ),
    Mutant(
        "src/prodrule/cli.py",
        "        if text not in names:\n",
        "        if False:\n",
        (_CLI + "test_a_refusal_prints_one_error_line[format-choice]",
         _CLI + "test_a_refusal_prints_one_error_line[family-choice]",
         _FZ + "test_the_table_parser_reads_argv_as_the_reference_does"),
        "the choice check dropped: --format xml prints text, --family triangle raises",
    ),
    Mutant(
        "src/prodrule/cli.py",
        "values[name] = options[name][0](text)\n",
        "values[name] = options[name][0](text) if values[name] is options[name][1] else values[name]\n",
        (_CLI + "test_options_take_prefixes_equals_forms_and_the_last_repeated_value",
         _FZ + "test_the_table_parser_reads_argv_as_the_reference_does"),
        "the first of two repeated values kept instead of the last",
    ),
    # the halving fill
    Mutant(
        "src/prodrule/seqengine.py",
        "lambda a, b: _add(a, _mul(_FREE_D_MINUS_C, b)),",
        "lambda a, b: _add(a, _mul(_FREE_C, b)),",
        (_SE + "test_free_d_entries_match_the_bivariate_reference",
         _SE + "test_t18_relation_matches_the_reference",
         _SE + "test_derive_d_matches_closed_form"),
        "the d-free odd step multiplies by c instead of d - c",
    ),
    Mutant(
        "src/prodrule/seqengine.py",
        "pair = table._residuals[m, n] = _strip_d(*_residual_sum(",
        "pair = table._residuals[m, n] = tuple(_residual_sum(",
        (_SE + "test_residual_matches_ratfunc_reference",),
        "the residual's D-strip dropped: (13, 15) keeps a factor of D in its numerator",
    ),
    # the packed residual
    Mutant(
        "src/prodrule/seqengine.py",
        "return bound.bit_length() + 1",
        "return bound.bit_length()",
        (_SE + "test_pack_and_unpack_round_trip_at_the_tight_slot_width",),
        "the slot width one bit short: a coefficient at the bound spills into the slot above",
    ),
    Mutant(
        "src/prodrule/seqengine.py",
        "            digit -= mask + 1\n            x += 1\n",
        "            digit -= mask + 1\n",
        (_SE + "test_pack_and_unpack_round_trip_at_the_tight_slot_width",
         _SE + "test_packed_residual_matches_the_schoolbook_sum_on_every_probe",
         _SE + "test_residual_33_numerator_exact"),
        "the borrow dropped in the unpack: every negative coefficient leaves the slot above one too small",
    ),
    # the records
    Mutant(
        "src/prodrule/veritool.py",
        '    Fields: m int, n int, lhs Fraction, rhs Fraction.\n    """\n    __slots__ = ()\n',
        '    Fields: m int, n int, lhs Fraction, rhs Fraction.\n    """\n',
        (_API + "[CheckFailure]",),
        "__slots__ dropped from CheckFailure: every failure carries a __dict__ that takes new attributes",
    ),
    Mutant(
        "src/prodrule/classifier.py",
        "defaults=((), None)",
        "defaults=(None, None)",
        (_API + "[ClassificationReport]",),
        "the ClassificationReport defaults read (None, None): a report built without notes has notes None",
    ),
    Mutant(
        "src/prodrule/veritool.py",
        'namedtuple("CheckFailure", "m n lhs rhs")',
        'namedtuple("CheckFailure", "n m lhs rhs")',
        (_API + "[CheckFailure]",
         _VT + "test_failure_serialization",
         _CLI + "test_failing_verify_stdout_matches_golden[corrupt verify --family ceilhalf --max 12]"),
        "the CheckFailure fields swapped: a failure built as (m, n, ...) reports m as n",
    ),
]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _failing(tree: Path, tests) -> set[str] | None:
    """The ids among tests that fail or error in the tree; None when pytest ends in no verdict.

    No verdict is a run past `TIMEOUT_S`, or an exit status other than 0
    (all passed) and 1 (some failed), such as an id pytest cannot find.
    """
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=tree, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=TIMEOUT_S, preexec_fn=_cap_address_space,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode not in (0, 1):
        return None
    return set(re.findall(r"^(?:FAILED|ERROR) (\S.*?)(?: - .*)?$", proc.stdout, re.M))


def _run(tree: Path, mutant: Mutant) -> str:
    """Apply one mutant to the copy, run its tests, restore the file; the verdict line."""
    path = tree / mutant.file
    original = path.read_text()
    if original.count(mutant.old) != 1:
        return "STALE: the old text does not occur exactly once"
    path.write_text(original.replace(mutant.old, mutant.new))
    try:
        failed = _failing(tree, mutant.tests)
    finally:
        path.write_text(original)
    if failed is None:
        return "SURVIVED: pytest gave no verdict"
    passed = [t for t in mutant.tests if t not in failed]
    return f"SURVIVED: {', '.join(passed)} passed" if passed else f"killed by {len(mutant.tests)} of {len(mutant.tests)}"


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info"))
        baseline = _failing(tree, sorted({t for i in picked for t in MUTANTS[i].tests}))
        if baseline != set():
            print(f"the unmutated tree fails: {sorted(baseline) if baseline else 'no verdict'}")
            return 2
        for i in picked:
            verdict = _run(tree, MUTANTS[i])
            survivors += not verdict.startswith("killed")
            print(f"{i:2d} {MUTANTS[i].file}: {MUTANTS[i].reason}: {verdict}", flush=True)
    print(f"{len(picked) - survivors} of {len(picked)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
