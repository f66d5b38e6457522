"""Brute-force oracle for the product rule.

Closed-form families are checked exhaustively on a full square (m, n)
grid, and symbolic specializations are checked index by index against a
family's closed form.  The grid runs on each family's integer closed form
u(n) = 2 T(n) (`seqengine.doubled_form`), the single source of truth for
the family, so it needs plain integers only and O(N) memory.  The
specialization checks evaluate the symbolic table at a rational c0
through `SymbolicTable.value_at` and `residual_numerator_at`, which stay
in integers and build one `Fraction` per value; no `Poly` or `RatFunc`
is made.  Every rational c0 is in the domain, since D = c^2 + 2c - 1 has
no rational root.  Everything is exact: a report either carries an empty
failure list or pinpoints the offending pairs with their exact
`Fraction` sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# residual_numerator is unused here but stays importable: perfbench/tracer.py patches it
from .seqengine import (  # noqa: F401
    DEFAULT_MAX_INDEX,
    FamilyId,
    SymbolicTable,
    doubled_form,
    family_value,
    residual_numerator,
    residual_numerator_at,
)

__all__ = [
    "CheckFailure",
    "VerifyReport",
    "crosscheck_specialization",
    "scan_candidate",
    "verify_family",
]


@dataclass(frozen=True)
class CheckFailure:
    """One failed exact check; for specialization checks m == n == index."""

    m: int
    n: int
    lhs: Fraction
    rhs: Fraction


@dataclass
class VerifyReport:
    """Outcome of one exhaustive verification run."""

    subject: str
    range: int
    checked: int
    failures: list[CheckFailure]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "range": self.range,
            "checked": self.checked,
            "failures": [
                {"m": f.m, "n": f.n, "lhs": str(f.lhs), "rhs": str(f.rhs)}
                for f in self.failures
            ],
        }


def verify_family(family: FamilyId, max_mn: int) -> VerifyReport:
    """Check T(mn) = T(m)T(n) + T(m-1)T(n-1) for every 1 <= m, n <= max_mn.

    Runs on the family's integer closed form u = 2T, where the rule reads
    2 u(mn) = u(m)u(n) + u(m-1)u(n-1): O(N) memory, O(N^2) exact integer
    checks.  u(0..N) is kept in one list, u(mn) is computed row by row,
    and exact `Fraction` sides are built only for the cells that fail.
    """
    if max_mn < 1:
        raise ValueError("max_mn must be positive")
    u = doubled_form(family)
    us = [u(k) for k in range(max_mn + 1)]
    next_us = us[1:]
    failures: list[CheckFailure] = []
    for m in range(1, max_mn + 1):
        um, um1 = us[m], us[m - 1]
        lhs = [2 * u(mn) for mn in range(m, m * max_mn + 1, m)]
        rhs = [um * un + um1 * un1 for un, un1 in zip(next_us, us)]
        if lhs != rhs:
            failures.extend(
                CheckFailure(m, n, Fraction(left, 4), Fraction(right, 4))
                for n, left, right in zip(range(1, max_mn + 1), lhs, rhs)
                if left != right
            )
    return VerifyReport(
        subject=f"family:{family.value}",
        range=max_mn,
        checked=max_mn * max_mn,
        failures=failures,
    )


def crosscheck_specialization(
    c0,
    family: FamilyId,
    max_n: int,
    table: SymbolicTable | None = None,
) -> VerifyReport:
    """Compare the symbolic T(n) evaluated at c0 with a family's closed form.

    For n = 0..max_n, T(n)(c0) comes from `SymbolicTable.value_at` and
    2 T(n)(c0) is compared with the family's integer closed form u(n) in
    plain ints.  Only a failing index builds its exact sides: lhs T(n)(c0),
    rhs `family_value`.
    """
    c0 = Fraction(c0)
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if table is None:
        table = SymbolicTable(max(DEFAULT_MAX_INDEX, max_n))
    u = doubled_form(family)
    failures: list[CheckFailure] = []
    for n in range(max_n + 1):
        got = table.value_at(n, c0)
        # got == u(n)/2, cross-multiplied in ints
        if 2 * got.numerator != u(n) * got.denominator:
            failures.append(CheckFailure(n, n, got, family_value(family, n)))
    return VerifyReport(
        subject=f"c={c0}->{family.value}",
        range=max_n,
        checked=max_n + 1,
        failures=failures,
    )


def scan_candidate(
    c0,
    max_prod: int,
    table: SymbolicTable | None = None,
) -> list[tuple[int, int, Fraction]]:
    """Evaluate every probe numerator with 3 <= m <= n, mn <= max_prod at c0.

    Each value is the canonical (m, n) residual numerator at c0, from
    `residual_numerator_at` in integers.  Returns the nonzero entries as
    (m, n, value) triples; a c0 that genuinely generates a solution
    returns an empty list.
    """
    c0 = Fraction(c0)
    if table is None:
        table = SymbolicTable()
    hits: list[tuple[int, int, Fraction]] = []
    m = 3
    while m * m <= max_prod:
        for n in range(m, max_prod // m + 1):
            value = residual_numerator_at(m, n, c0, table)
            if value != 0:
                hits.append((m, n, value))
        m += 1
    return hits
