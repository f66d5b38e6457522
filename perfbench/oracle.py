"""Expected answers from the paper, used to judge every benchmark operation.

Nothing here is computed by the program under test.  The constants restate
the paper's results: d = T(3) = (3c^3 + c)/(c^2 + 2c - 1), only c in
{0, 1, 3} survives the (3, 3) and (3, 5) probes, those three values select
the period-3, ceil-half and triangular families, and every closed-form
family satisfies the product rule on every grid.

Each check returns None when the result is right, or a one-line reason.
"""

from __future__ import annotations

from fractions import Fraction

D_FORMULA = "(3c^3 + c)/(c^2 + 2c - 1)"
SURVIVING_C = ["0", "1", "3"]
FAMILY_BY_C = {"0": "period3", "1": "ceilhalf", "3": "triangular"}
GENUINE_C = frozenset(Fraction(c) for c in FAMILY_BY_C)
FAMILIES = ("zero", "half", "ceilhalf", "period3", "triangular")
# c(c - 1)(c - 3) is the whole gcd of these two constraints, so any other
# rational c fails at least one of them
CERTIFYING_PROBES = frozenset({(3, 3), (3, 5)})


def check_classify(probes, code: int, doc) -> str | None:
    """`prodrule classify --format json --probes ...` against the paper."""
    if code != 0:
        return f"exit code {code}, expected 0"
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    if doc.get("surviving_c") != SURVIVING_C:
        return f"surviving c {doc.get('surviving_c')!r}, expected {SURVIVING_C}"
    if doc.get("cofactor_check") is not True or doc.get("cofactor_gcd_check") is not True:
        return "a completeness certificate is not true"
    if doc.get("d") != D_FORMULA:
        return f"d = {doc.get('d')!r}, expected {D_FORMULA}"
    if doc.get("family_map") != FAMILY_BY_C:
        return f"family map {doc.get('family_map')!r}"
    got = [(rec.get("m"), rec.get("n")) for rec in doc.get("constraints", [])]
    if got != [tuple(p) for p in probes]:
        return f"constraints cover {got}, expected the probes {list(probes)}"
    return None


def check_grid(family: str, max_mn: int, code: int, doc) -> str | None:
    """`prodrule verify --family F --max N --format json`: no failures, N^2 checks."""
    if code != 0:
        return f"exit code {code}, expected 0"
    if not isinstance(doc, dict):
        return "output is not a JSON object"
    if doc.get("subject") != f"family:{family}" or doc.get("range") != max_mn:
        return f"report is for {doc.get('subject')!r} up to {doc.get('range')!r}"
    if doc.get("checked") != max_mn * max_mn:
        return f"checked {doc.get('checked')!r}, expected {max_mn * max_mn}"
    if doc.get("failures") != []:
        return f"{len(doc.get('failures') or [])} grid failures reported, expected none"
    return None


def check_scan(c0: Fraction, max_prod: int, hits) -> str | None:
    """`scan_candidate` on a non-solution must report at least one violated probe."""
    if c0 in GENUINE_C:
        return f"input error: {c0} is a genuine solution"
    if not hits:
        return f"c = {c0} was accepted, but only 0, 1 and 3 are solutions"
    for m, n, value in hits:
        if not (3 <= m <= n and m * n <= max_prod) or value == 0:
            return f"hit ({m}, {n}, {value}) is outside the scan or not a violation"
    if CERTIFYING_PROBES.isdisjoint((m, n) for m, n, _ in hits):
        return f"c = {c0} passed both (3, 3) and (3, 5)"
    return None


def check_crosscheck(c0: Fraction, max_n: int, report) -> str | None:
    """`crosscheck_specialization` at a genuine c must match its family exactly."""
    family = FAMILY_BY_C.get(str(c0))
    if family is None:
        return f"input error: {c0} is not a genuine solution"
    if report.subject != f"c={c0}->{family}":
        return f"report is for {report.subject!r}, expected family {family}"
    if report.checked != max_n + 1 or report.range != max_n:
        return f"checked {report.checked} values, expected {max_n + 1}"
    if report.failures:
        return f"{len(report.failures)} values differ from the {family} closed form"
    return None
