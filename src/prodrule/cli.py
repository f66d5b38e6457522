"""Command-line interface.

Subcommands: derive-d, classify, verify, eval, table, constraints.
Each command builds one JSON document through the reports' `to_dict`;
`run` prints it under `--format json`, and otherwise the text view that
the command table `_COMMANDS` pairs with the command, which reads the
document alone.  `--out PATH` additionally writes the document to a
file.  Both write, byte for byte, `json.dumps(doc, indent=2)`, through
the one writer `_json_text`, which takes only the exact types a document
holds; `table` writes each T(n) from the integer u(n) = 2T(n).
Diagnostics go to stderr.  Exit codes: 0 success (for verify and
classify this requires every check to pass), 1 failed checks or probes
that constrain nothing, 2 usage errors, an `--out` path that cannot be
written included; `main` also exits 2 when stdout is closed before the
output is written, as in `prodrule table ... | head -1`.

`_COMMANDS` also maps each command's options, besides the shared
`--format` and `--out`, to a converter, a default or `REQUIRED`, and a
help string; `parse_args` reads argv against it by the rules of the
standard library's parser that `tests/cli_reference.py` keeps: `--opt
value` or `--opt=value`, the last value of a repeated option, unambiguous
prefixes, and `-h`/`--help`.  Every refusal prints one `error:` line.
"""

from __future__ import annotations

import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .classifier import DEFAULT_PROBES, ConstraintRecord, WeakProbesError, solve_c
from .seqengine import DEFAULT_MAX_INDEX, FamilyId, SymbolicTable, derive_d, doubled_values, walk_value
from .veritool import verify_family

MAX_CAP = 10**6   # verify and table --max cap: table holds O(N) lists; verify 16 cells, a failing grid N <= 500
REQUIRED = object()   # the default of an option that argv must give


class UsageError(Exception):
    """Bad arguments: exit 2 with one `error:` line."""


class _Help(Exception):
    """-h or --help was read; the message is the help text."""


def _rational_arg(text: str) -> Fraction:
    num, slash, den = text.partition("/")
    if slash and int(den) == 0:
        raise ValueError("denominator must be nonzero")
    return Fraction(int(num), int(den) if slash else 1)


def _pairs_arg(text: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    try:
        for chunk in text.split(";"):
            m, _, n = chunk.partition(",")
            pairs.append((int(m), int(n)))
    except ValueError as exc:
        raise ValueError(
            f"expected pairs like 3,3;3,5 and got {text!r}"
        ) from exc
    for m, n in pairs:
        if m < 2 or n < 2:
            raise ValueError(f"pair ({m}, {n}) needs both indices >= 2")
    return tuple(pairs)


def _int_arg(low: int, cap: int | None = None):
    """A converter to an int >= low; an int past cap is a `--max` refused before any allocation."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be at least {low}")
        if cap is not None and value > cap:
            raise UsageError(f"--max {value} is beyond the cap {cap}")
        return value
    return convert


def _choice(*names: str):
    def convert(text: str) -> str:
        if text not in names:
            raise ValueError(f"invalid choice {text!r}, choose from {', '.join(names)}")
        return text
    return convert


# a command returns its exit code, its JSON document and a failure's stderr line or None
def _cmd_derive_d(args) -> tuple[int, dict, str | None]:
    """Print T(3) as a function of c."""
    return 0, {"d": str(derive_d())}, None


def _cmd_classify(args) -> tuple[int, dict, str | None]:
    """Run the full classification and print the report."""
    for m, n in args.probes:
        if m * n > args.range:
            raise UsageError(
                f"probe ({m}, {n}) needs index {m * n}, beyond --range {args.range}"
            )
    report = solve_c(args.probes, SymbolicTable(args.range))
    if report.all_checks_pass:
        return 0, report.to_dict(), None
    return 1, report.to_dict(), "the probes do not certify the classification; see the failed checks"


def _cmd_verify(args) -> tuple[int, dict, str | None]:
    """Check a family exhaustively on the square grid."""
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
    return code, reports[0] if len(reports) == 1 else {"reports": reports}, None


def _cmd_eval(args) -> tuple[int, dict, str | None]:
    """Evaluate the symbolic T(n) at a rational c."""
    try:
        return 0, {"c": str(args.c), "n": args.n, "value": str(walk_value(args.n, args.c))}, None
    except ValueError as exc:   # the walk's size bound, or more digits than Python prints
        raise UsageError(f"T(n) is out of reach: {exc}")


def _cmd_table(args) -> tuple[int, dict, str | None]:
    """Print n, T(n) rows for one closed-form family."""
    family = FamilyId(args.family)
    rows = [[n, f"{u}/2" if u & 1 else str(u >> 1)] for n, u in enumerate(doubled_values(family, args.max))]
    return 0, {"family": family.value, "max": args.max, "rows": rows}, None


def _cmd_constraints(args) -> tuple[int, dict, str | None]:
    """Print probe constraint numerators in factor-extracted form."""
    for m, n in args.pairs:
        if m * n > args.range:
            raise UsageError(f"pair ({m}, {n}) needs index {m * n}, beyond {args.range}")
    table = SymbolicTable(args.range)
    records = [ConstraintRecord.probe(m, n, table) for m, n in args.pairs]
    return 0, {"constraints": [rec.to_dict() for rec in records]}, None


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


_FAMILY_NAMES = tuple(fam.value for fam in FamilyId)
_RANGE = (_int_arg(1), DEFAULT_MAX_INDEX, f"largest index to compute (default {DEFAULT_MAX_INDEX})")
# each command's handler (its docstring is its help line), the text view of its document,
# one item per output line, and its options: name -> (converter, default or REQUIRED, help)
_COMMANDS = {
    "derive-d": (_cmd_derive_d, lambda doc: [doc["d"]], {}),
    "classify": (_cmd_classify, _classify_lines, {
        "--probes": (_pairs_arg, DEFAULT_PROBES, "product-rule instances m,n;m,n to probe (default 3,3;3,5)"),
        "--range": _RANGE,
    }),
    "verify": (_cmd_verify, _verify_lines, {
        "--family": (_choice(*_FAMILY_NAMES, "all"), REQUIRED, f"one of {', '.join(_FAMILY_NAMES)}, or all"),
        "--max": (_int_arg(1, MAX_CAP), REQUIRED, "grid bound N, at most 10^6: every 1 <= m, n <= N is checked"),
    }),
    "eval": (_cmd_eval, lambda doc: [doc["value"]], {
        "--c": (_rational_arg, REQUIRED, "value of c, as p/q or an integer; write a negative c as --c=-7/5"),
        "--n": (_int_arg(0), REQUIRED, "sequence index, below 10^4300"),
    }),
    "table": (_cmd_table, lambda doc: (f"{n}\t{v}" for n, v in doc["rows"]), {
        "--family": (_choice(*_FAMILY_NAMES), REQUIRED, f"one of {', '.join(_FAMILY_NAMES)}"),
        "--max": (_int_arg(0, MAX_CAP), REQUIRED, "last index N, at most 10^6"),
    }),
    "constraints": (_cmd_constraints,
                    lambda doc: [line for rec in doc["constraints"] for line in _constraint_lines(rec)],
                    {"--pairs": (_pairs_arg, DEFAULT_PROBES, "probe instances m,n;m,n (default 3,3;3,5)"),
                     "--range": _RANGE}),
}
_SHARED = {
    "--format": (_choice("text", "json"), "text", "output format on stdout, text (default) or json"),
    "--out": (str, None, "also write the JSON document to PATH"),
}
_HELP = {"-h": None, "--help": None}
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")   # the one kind of value that may start with -


def _help_text(command: str | None) -> str:
    if command is None:
        head = ("usage: prodrule COMMAND [options]\n\nExact verifier and classifier for sequences "
                "satisfying T(mn) = T(m)T(n) + T(m-1)T(n-1).\n\ncommands:")
        rows = {name: handler.__doc__ for name, (handler, _, _) in _COMMANDS.items()}
    else:
        handler, _, options = _COMMANDS[command]
        head = f"usage: prodrule {command} [options]\n\n{handler.__doc__}\n\noptions:"
        rows = {name: text + " (required)" * (default is REQUIRED)
                for name, (_, default, text) in {**options, **_SHARED}.items()}
    return "\n".join([head, *(f"  {name:<13}{text}" for name, text in rows.items()), "  -h, --help   this help"])


def _read(token: str, names) -> tuple[str | None, str | None] | None:
    """None for a value, else (the option or None for an unknown one, the text after = or None)."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    explicit = value if eq else None
    if head in names:
        return head, explicit
    if token.startswith("--"):
        hits = [name for name in names if name.startswith(head)]
        if len(hits) > 1:
            raise UsageError(f"ambiguous option: {token!r} could match {', '.join(hits)}")
        if hits:
            return hits[0], explicit
    return None if _NEGATIVE_NUMBER.match(token) or " " in token else (None, None)


def _help(name: str, explicit: str | None, command: str | None):
    if explicit is None:
        raise _Help(_help_text(command))
    raise UsageError(f"argument {name}: takes no value")


def parse_args(argv) -> SimpleNamespace:
    """The command and each option's value, named without --, read off argv by `_COMMANDS`.

    Raises `UsageError`, or `_Help` for -h or --help read before a refusal.  Every
    token is read, and an ambiguous prefix refused, before any is acted on.
    """
    at = 0
    while at < len(argv) and argv[at] != "--" and (reading := _read(argv[at], _HELP)):
        if reading[0]:
            _help(*reading, None)
        at += 1
    if at == len(argv) or argv[at] not in _COMMANDS:
        raise UsageError(f"expected a command, one of {', '.join(_COMMANDS)}")
    command, rest = argv[at], argv[at + 1:]
    options = {**_SHARED, **_COMMANDS[command][2]}
    values = {name: default for name, (_, default, _) in options.items()}
    cut = rest.index("--") if "--" in rest else len(rest)   # every token from -- on is a stray value
    extras = [*argv[:at], *rest[cut:]]
    tokens = iter(zip(rest, [_read(token, {**_HELP, **options}) for token in rest[:cut]]))
    for token, reading in tokens:
        if not reading or not reading[0]:
            extras.append(token)
            continue
        name, text = reading
        if name in _HELP:
            _help(name, text, command)
        if text is None:
            text, reading = next(tokens, ("", True))
            if reading:
                raise UsageError(f"argument {name}: expected one value")
        try:
            values[name] = options[name][0](text)
        except ValueError as exc:
            raise UsageError(f"argument {name}: {exc}") from None
    missing = [name for name, value in values.items() if value is REQUIRED]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(map(repr, extras))}")
    return SimpleNamespace(command=command, **{name[2:]: value for name, value in values.items()})


_JSON_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_text(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` for a document of dicts, lists, strs, ints, bools and None.

    `json` runs its pure-Python encoder whenever `indent` is set; this
    writer quotes every string with json's C `encode_basestring_ascii`
    and lays the containers out by joins.  It dispatches on the exact
    type and quotes a str item in place.  Any other value, a subclass
    of one of these types included, or a dict key that is not a str,
    raises TypeError: no command's document holds one.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return repr(value)
    if kind is bool or value is None:
        return _JSON_CONSTANTS[value]
    inner = indent + "  "
    if kind is list:
        brackets, items = "[]", [
            encode_basestring_ascii(item) if type(item) is str else _json_text(item, inner) for item in value]
    elif kind is dict:
        brackets, items = "{}", [
            f"{encode_basestring_ascii(key)}: "
            f"{encode_basestring_ascii(item) if type(item) is str else _json_text(item, inner)}"
            for key, item in value.items()]
    else:
        raise TypeError(f"a {kind.__name__} has no place in a JSON document")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def run(argv=None) -> int:
    """Parse argv, execute one command, and return the exit code."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        handler, text, _ = _COMMANDS[args.command]
        code, doc, note = handler(args)
    except _Help as exc:
        print(exc)
        return 0
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
            with open(args.out, "w") as out:
                out.write(document + "\n")
        except (OSError, ValueError) as exc:   # ValueError: a NUL byte in the path
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(document)
    else:
        for line in text(doc):
            print(line)
    if note:
        print(f"error: {note}", file=sys.stderr)
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
