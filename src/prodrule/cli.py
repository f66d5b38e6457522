"""Command-line interface.

Subcommands: derive-d, classify, verify, eval, table, constraints.
Output is text by default; `--format json` emits one JSON document on
stdout, and `--out PATH` additionally writes that document to a file.
Diagnostics go to stderr.  Exit codes: 0 success (for verify and
classify this requires every check to pass), 1 failed checks or domain
errors, 2 usage errors, an `--out` path that cannot be written included.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .classifier import ConstraintRecord, WeakProbesError, solve_c
from .exactalg import DomainError
from .seqengine import DEFAULT_MAX_INDEX, FamilyId, SymbolicTable, derive_d, family_value
from .veritool import verify_family

_FAMILIES = {fam.value: fam for fam in FamilyId}


class UsageError(Exception):
    """Bad argument combination detected after parsing."""


def _rational_arg(text: str) -> Fraction:
    try:
        if "/" in text:
            num, _, den = text.partition("/")
            if int(den) == 0:
                raise argparse.ArgumentTypeError("denominator must be nonzero")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _pairs_arg(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    try:
        for chunk in text.split(";"):
            m, _, n = chunk.partition(",")
            pairs.append((int(m), int(n)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected pairs like 3,3;3,5 and got {text!r}"
        ) from exc
    for m, n in pairs:
        if m < 2 or n < 2:
            raise argparse.ArgumentTypeError(f"pair ({m}, {n}) needs both indices >= 2")
    return tuple(pairs)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodrule",
        description="Exact verifier and classifier for sequences satisfying "
        "T(mn) = T(m)T(n) + T(m-1)T(n-1).",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format on stdout (default text)",
    )
    common.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="also write the JSON document to PATH",
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sub.add_parser(
        "derive-d",
        parents=[common],
        help="print T(3) as a function of c",
    )

    p_classify = sub.add_parser(
        "classify",
        parents=[common],
        help="run the full classification and print the report",
    )
    p_classify.add_argument(
        "--probes",
        type=_pairs_arg,
        default=((3, 3), (3, 5)),
        metavar="m,n;m,n",
        help="product-rule instances to probe (default 3,3;3,5)",
    )
    p_classify.add_argument(
        "--range",
        type=_positive_int,
        default=DEFAULT_MAX_INDEX,
        metavar="K",
        help=f"largest index the symbolic engine may compute (default {DEFAULT_MAX_INDEX})",
    )

    p_verify = sub.add_parser(
        "verify",
        parents=[common],
        help="exhaustively check a family on the square grid",
    )
    p_verify.add_argument(
        "--family",
        required=True,
        choices=tuple(_FAMILIES) + ("all",),
        help="family to check, or all five",
    )
    p_verify.add_argument(
        "--max",
        type=_positive_int,
        required=True,
        metavar="N",
        help="grid bound: every 1 <= m, n <= N is checked",
    )

    p_eval = sub.add_parser(
        "eval",
        parents=[common],
        help="evaluate the symbolic T(n) at a rational c",
    )
    p_eval.add_argument("--c", type=_rational_arg, required=True, help="value of c, as p/q or an integer")
    p_eval.add_argument("--n", type=_nonnegative_int, required=True, help="sequence index")

    p_table = sub.add_parser(
        "table",
        parents=[common],
        help="print n, T(n) rows for one closed-form family",
    )
    p_table.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p_table.add_argument("--max", type=_nonnegative_int, required=True, metavar="N")

    p_constraints = sub.add_parser(
        "constraints",
        parents=[common],
        help="print probe constraint numerators in factor-extracted form",
    )
    p_constraints.add_argument(
        "--pairs",
        type=_pairs_arg,
        default=((3, 3), (3, 5)),
        metavar="m,n;m,n",
        help="probe instances (default 3,3;3,5)",
    )

    return parser


def _cmd_derive_d(args) -> tuple[int, dict, list[str]]:
    d = derive_d()
    return 0, {"d": str(d)}, [str(d)]


def _classify_lines(report) -> list[str]:
    lines = [f"d = {report.d_formula}"]
    for rec in report.branches:
        suffix = f" [{', '.join(fam.value for fam in rec.families)}]" if rec.families else ""
        lines.append(f"branch {rec.branch.value}: {rec.conclusion}{suffix}")
    for rec in report.constraints:
        lines.extend(rec.lines())
    lines.append("surviving c: " + ", ".join(str(r) for r in report.surviving_c))
    lines.append(
        "family map: "
        + ", ".join(f"{r} -> {fam.value}" for r, fam in report.family_map.items())
    )
    lines.append(f"residual cofactor check: {'pass' if report.residual_cofactor_check else 'FAIL'}")
    lines.append(f"cofactor gcd check: {'pass' if report.cofactor_gcd_check else 'FAIL'}")
    lines.append("notes:")
    lines.extend(f"  - {note}" for note in report.notes)
    return lines


def _cmd_classify(args) -> tuple[int, dict, list[str]]:
    for m, n in args.probes:
        if m * n > args.range:
            raise UsageError(
                f"probe ({m}, {n}) needs index {m * n}, beyond --range {args.range}"
            )
    table = SymbolicTable(args.range)
    report = solve_c(args.probes, table)
    code = 0 if report.all_checks_pass else 1
    if code:
        print("error: the probes do not certify the classification; see the failed checks",
              file=sys.stderr)
    return code, report.to_dict(), _classify_lines(report)


def _cmd_verify(args) -> tuple[int, dict, list[str]]:
    families = list(FamilyId) if args.family == "all" else [_FAMILIES[args.family]]
    reports = []
    code = 0
    for fam in families:
        report = verify_family(fam, args.max)
        reports.append(report)
        if not report.ok:
            code = 1
            if args.format == "text":
                break  # fail fast; json mode always aggregates all families
    lines = []
    for report in reports:
        lines.append(
            f"{report.subject}: range {report.range}, checked {report.checked}, "
            f"failures: {len(report.failures)}"
        )
        lines.extend(
            f"  ({f.m}, {f.n}): lhs {f.lhs}, rhs {f.rhs}" for f in report.failures
        )
    if len(reports) == 1:
        doc = reports[0].to_dict()
    else:
        doc = {"reports": [report.to_dict() for report in reports]}
    return code, doc, lines


def _cmd_eval(args) -> tuple[int, dict, list[str]]:
    table = SymbolicTable(max(DEFAULT_MAX_INDEX, args.n))
    value = table.value_at(args.n, args.c)
    return 0, {"c": str(args.c), "n": args.n, "value": str(value)}, [str(value)]


def _cmd_table(args) -> tuple[int, dict, list[str]]:
    family = _FAMILIES[args.family]
    rows = [(n, family_value(family, n)) for n in range(args.max + 1)]
    doc = {
        "family": family.value,
        "max": args.max,
        "rows": [[n, str(v)] for n, v in rows],
    }
    return 0, doc, [f"{n}\t{v}" for n, v in rows]


def _cmd_constraints(args) -> tuple[int, dict, list[str]]:
    for m, n in args.pairs:
        if m * n > DEFAULT_MAX_INDEX:
            raise UsageError(f"pair ({m}, {n}) needs index {m * n}, beyond {DEFAULT_MAX_INDEX}")
    table = SymbolicTable()
    records = [ConstraintRecord.probe(m, n, table) for m, n in args.pairs]
    lines = [line for rec in records for line in rec.lines()]
    return 0, {"constraints": [rec.to_dict() for rec in records]}, lines


_COMMANDS = {
    "derive-d": _cmd_derive_d,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "eval": _cmd_eval,
    "table": _cmd_table,
    "constraints": _cmd_constraints,
}


def run(argv=None) -> int:
    """Parse argv, execute one command, and return the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, doc, lines = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeakProbesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        except (OSError, ValueError) as exc:   # ValueError: a NUL byte in the path
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
