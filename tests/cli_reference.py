"""The argparse front end of `prodrule.cli` as it was, kept as the reference for the tests.

`build_parser` and its converters are the parser that the option table
`cli._COMMANDS` and `cli.parse_args` replaced; the differential test in
`tests/test_cli_fuzz.py` checks that both read argv alike.  The `--max`
cap was checked after parsing then, so it is not part of this parser.
`constraints --range`, added to the table later, is added here as the
`classify --range` it copies.
"""

import argparse
from fractions import Fraction

from prodrule.classifier import DEFAULT_PROBES
from prodrule.seqengine import DEFAULT_MAX_INDEX, FamilyId


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
        help="grid bound N <= 10^6: every 1 <= m, n <= N is checked, the square m, n <= M (delta + 1) deciding "
        "the rest, and all N rows only if it fails (five families pass as a process in 0.12 s and 16 MiB at any N)",
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
    p_constraints.add_argument(
        "--range",
        type=_positive_int,
        default=DEFAULT_MAX_INDEX,
        metavar="K",
        help=f"largest index the symbolic engine may compute (default {DEFAULT_MAX_INDEX})",
    )

    return parser
