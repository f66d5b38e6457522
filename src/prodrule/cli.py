"""Command-line interface.

Subcommands: derive-d, classify, verify, eval, table, constraints.
Each command builds one JSON document through the reports' `to_dict`;
`run` prints it under `--format json`, and otherwise the text view that
the command table `_COMMANDS` pairs with the command, which reads the
document alone.  `--out PATH` additionally writes the document to a
file.  Both write, byte for byte, `json.dumps(doc, indent=2)`, through
the one writer `_json_text`.  Diagnostics go to stderr.  Exit codes: 0
success (for verify and classify this requires every check to pass), 1
failed checks or probes that constrain nothing, 2 usage errors, an
`--out` path that cannot be written included; `main` also exits 2 when
stdout is closed before the output is written, as in
`prodrule table ... | head -1`.

`run` builds the argparse parser on its first call and reuses it for
every later call in the process; `build_parser` still returns a fresh
one.  Parsing reads the parser and never changes it (argparse as of
Python 3.11), and every option default is immutable, so no value carries
over from one call to the next and threads may share the parser.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .classifier import DEFAULT_PROBES, ConstraintRecord, WeakProbesError, solve_c
from .seqengine import DEFAULT_MAX_INDEX, FamilyId, SymbolicTable, derive_d, doubled_values, walk_value
from .veritool import verify_family

MAX_CAP = 10**6   # the largest verify --max and table --max: both allocate O(N) lists up front


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
        default=DEFAULT_PROBES,
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
        choices=[fam.value for fam in FamilyId] + ["all"],
        help="family to check, or all five",
    )
    p_verify.add_argument(
        "--max",
        type=_positive_int,
        required=True,
        metavar="N",
        help="grid bound N <= 10^6: every 1 <= m, n <= N is checked, by rows, the first M (delta + 1) deciding "
        "the rest, in memory O(N) (five families as a process: 0.08, 0.09, 0.3, 2.8 s at N = 10^3..10^6, 184 MiB at 10^6)",
    )

    p_eval = sub.add_parser(
        "eval",
        parents=[common],
        help="evaluate the symbolic T(n) at a rational c",
    )
    p_eval.add_argument("--c", type=_rational_arg, required=True, help="value of c, as p/q or an integer")
    p_eval.add_argument("--n", type=_nonnegative_int, required=True, help="sequence index below 10^4300; one "
                        "walk over its bits, with no table, takes at most about 0.3 s for any --c and --n "
                        "(exit 2 when its ints would pass 2^16 bits or T(n) has more than 4300 digits)")

    p_table = sub.add_parser(
        "table",
        parents=[common],
        help="print n, T(n) rows for one closed-form family",
    )
    p_table.add_argument("--family", required=True, choices=[fam.value for fam in FamilyId])
    p_table.add_argument("--max", type=_nonnegative_int, required=True, metavar="N",
                         help="last index, at most 10^6 (as a process: 3.9 s, 245 MiB; 4.4-6.1 s, 382 MiB in json)")

    p_constraints = sub.add_parser(
        "constraints",
        parents=[common],
        help="print probe constraint numerators in factor-extracted form",
    )
    p_constraints.add_argument(
        "--pairs",
        type=_pairs_arg,
        default=DEFAULT_PROBES,
        metavar="m,n;m,n",
        help="probe instances (default 3,3;3,5)",
    )

    return parser


# a command returns its exit code and its JSON document
def _cmd_derive_d(args) -> tuple[int, dict]:
    return 0, {"d": str(derive_d())}


def _cmd_classify(args) -> tuple[int, dict]:
    for m, n in args.probes:
        if m * n > args.range:
            raise UsageError(
                f"probe ({m}, {n}) needs index {m * n}, beyond --range {args.range}"
            )
    report = solve_c(args.probes, SymbolicTable(args.range))
    code = 0 if report.all_checks_pass else 1
    if code:
        print("error: the probes do not certify the classification; see the failed checks",
              file=sys.stderr)
    return code, report.to_dict()


def _cmd_verify(args) -> tuple[int, dict]:
    families = list(FamilyId) if args.family == "all" else [FamilyId(args.family)]
    reports = []
    code = 0
    for fam in families:
        report = verify_family(fam, args.max)
        reports.append(report.to_dict())
        if not report.ok:
            code = 1
            if args.format == "text":
                break  # fail fast; json mode always aggregates all families
    return code, reports[0] if len(reports) == 1 else {"reports": reports}


def _cmd_eval(args) -> tuple[int, dict]:
    try:
        return 0, {"c": str(args.c), "n": args.n, "value": str(walk_value(args.n, args.c))}
    except ValueError as exc:   # the walk's size bound, or more digits than Python prints
        raise UsageError(f"T(n) is out of reach: {exc}")


def _cmd_table(args) -> tuple[int, dict]:
    family = FamilyId(args.family)
    rows = [[n, str(Fraction(u, 2))] for n, u in enumerate(doubled_values(family, args.max))]
    return 0, {"family": family.value, "max": args.max, "rows": rows}


def _cmd_constraints(args) -> tuple[int, dict]:
    for m, n in args.pairs:
        if m * n > DEFAULT_MAX_INDEX:
            raise UsageError(f"pair ({m}, {n}) needs index {m * n}, beyond {DEFAULT_MAX_INDEX}")
    table = SymbolicTable()
    records = [ConstraintRecord.probe(m, n, table) for m, n in args.pairs]
    return 0, {"constraints": [rec.to_dict() for rec in records]}


def _constraint_lines(rec: dict) -> list[str]:
    head = f"constraint ({rec['m']},{rec['n']}): {rec['numerator']}"
    if rec["numerator"] == "0":
        return [head, "  identically zero"]
    factors = ", ".join(rec["factors"]) or "(none)"
    return [head, f"  factors: {factors}", f"  cofactor: {rec['cofactor']}"]


def _classify_lines(doc: dict) -> list[str]:
    lines = [f"d = {doc['d']}"]
    for rec in doc["branches"]:
        suffix = f" [{', '.join(rec['families'])}]" if rec["families"] else ""
        lines.append(f"branch {rec['branch']}: {rec['conclusion']}{suffix}")
    for rec in doc["constraints"]:
        lines.extend(_constraint_lines(rec))
    lines.append("surviving c: " + ", ".join(doc["surviving_c"]))
    lines.append("family map: " + ", ".join(f"{r} -> {fam}" for r, fam in doc["family_map"].items()))
    lines.append(f"residual cofactor check: {'pass' if doc['cofactor_check'] else 'FAIL'}")
    lines.append(f"cofactor gcd check: {'pass' if doc['cofactor_gcd_check'] else 'FAIL'}")
    lines.append("notes:")
    lines.extend(f"  - {note}" for note in doc["notes"])
    return lines


def _verify_lines(doc: dict) -> list[str]:
    lines = []
    for report in doc.get("reports", [doc]):   # a single report is not wrapped
        lines.append(
            f"{report['subject']}: range {report['range']}, checked {report['checked']}, "
            f"failures: {len(report['failures'])}"
        )
        lines.extend(
            f"  ({f['m']}, {f['n']}): lhs {f['lhs']}, rhs {f['rhs']}" for f in report["failures"]
        )
    return lines


# each command's handler and the text view of its document, one item per output line
_COMMANDS = {
    "derive-d": (_cmd_derive_d, lambda doc: [doc["d"]]),
    "classify": (_cmd_classify, _classify_lines),
    "verify": (_cmd_verify, _verify_lines),
    "eval": (_cmd_eval, lambda doc: [doc["value"]]),
    "table": (_cmd_table, lambda doc: (f"{n}\t{v}" for n, v in doc["rows"])),
    "constraints": (_cmd_constraints, lambda doc: [
        line for rec in doc["constraints"] for line in _constraint_lines(rec)
    ]),
}

_shared_parser = functools.cache(build_parser)

_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` for a document of dicts, lists, strs, ints, bools and None.

    `json` runs its pure-Python encoder whenever `indent` is set; this
    writer quotes every string with json's C `encode_basestring_ascii`
    and lays the containers out by joins.  A float, or a dict key that
    is not a str, raises TypeError: no command's document holds either.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, list):
        brackets, items = "[]", [_json_text(item, inner) for item in value]
    elif isinstance(value, dict):
        brackets, items = "{}", [f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                                 for key, item in value.items()]
    elif value is None or isinstance(value, bool):   # before int: a bool is an int
        return _JSON_CONSTANTS[value]
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        raise TypeError(f"a {type(value).__name__} has no place in a JSON document")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def run(argv=None) -> int:
    """Parse argv, execute one command, and return the exit code."""
    try:
        args = _shared_parser().parse_args(argv)
        if getattr(args, "max", 0) > MAX_CAP:   # verify and table, refused before any allocation
            raise UsageError(f"--max {args.max} is beyond the cap {MAX_CAP}")
        handler, text = _COMMANDS[args.command]
        code, doc = handler(args)
    except SystemExit as exc:   # argparse has printed its usage error, or the help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeakProbesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out or args.format == "json":
        document = _json_text(doc)
    if args.out:
        try:
            Path(args.out).write_text(document + "\n")
        except (OSError, ValueError) as exc:   # ValueError: a NUL byte in the path
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(document)
    else:
        for line in text(doc):
            print(line)
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout: send what is left to devnull, so the
        # interpreter's own flush at exit stays silent, and report once
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
