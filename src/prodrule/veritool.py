"""Brute-force oracle for the product rule.

Closed-form families are checked exhaustively on a full square (m, n)
grid, and symbolic specializations are checked index by index against a
family's closed form.  The grid runs on each family's integer closed form
u(n) = 2 T(n) (`seqengine.doubled_form`), the single source of truth for
the family, so it needs plain integers only and O(N) memory.  The rule
is symmetric in m and n, so the N(N+1)/2 cells with m <= n decide all N^2
cells of the grid; a report's `checked` counts the grid cells decided.  The
specialization checks evaluate the symbolic table at a rational c0 on the
integer evaluator of `seqengine`: c0 and D(c0) are turned into ints once
per call, each value comes back as two ints top/bottom, and the checks
cross-multiply them, so no `Poly` or `RatFunc` is made and a `Fraction`
is built only for a reported hit or failure.  Every rational c0 is in the
domain, since D = c^2 + 2c - 1 has no rational root; a c0 that is not an
int or a `Fraction`, a float included, raises TypeError whatever the
bound.  Everything is exact: a report either carries an empty failure
list or pinpoints the offending pairs with their exact `Fraction` sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# residual_numerator is unused here but stays importable: perfbench/tracer.py patches it
from .seqengine import (  # noqa: F401
    DEFAULT_MAX_INDEX,
    FamilyId,
    SymbolicTable,
    _fill,
    _ints_at,
    _point,
    _residual_pair,
    doubled_form,
    family_value,
    residual_numerator,
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
    2 u(mn) = u(m)u(n) + u(m-1)u(n-1).  Both sides are symmetric in m and
    n, so cell (n, m) is the same integer equation as cell (m, n): row m
    decides only n = m..N, N(N+1)/2 equations from N + 1 + N(N+1)/2
    evaluations of u, in O(N) memory.  A failing cell (m, n) is reported
    with its mirror (n, m), both with the same exact `Fraction` sides,
    and the failures are listed in row-major order of the full grid.
    `checked` counts the N^2 grid cells decided, not the equations
    evaluated.
    """
    if max_mn < 1:
        raise ValueError("max_mn must be positive")
    u = doubled_form(family)
    us = [u(k) for k in range(max_mn + 1)]
    failures: list[CheckFailure] = []
    for m in range(1, max_mn + 1):
        um, um1 = us[m], us[m - 1]
        lhs = [2 * u(mn) for mn in range(m * m, m * max_mn + 1, m)]
        rhs = [um * un + um1 * un1 for un, un1 in zip(us[m:], us[m - 1:])]
        if lhs != rhs:
            for n, left, right in zip(range(m, max_mn + 1), lhs, rhs):
                if left != right:
                    sides = Fraction(left, 4), Fraction(right, 4)
                    failures.append(CheckFailure(m, n, *sides))
                    if n != m:
                        failures.append(CheckFailure(n, m, *sides))
    failures.sort(key=lambda f: (f.m, f.n))
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

    The reach is checked once, before any entry is filled.  For n = 0..max_n,
    T(n)(c0) = top/bottom is compared with the family's integer closed form
    u(n) as 2 top == u(n) bottom, exact for either sign of bottom.  Only a
    failing index builds its exact sides: lhs T(n)(c0), rhs `family_value`.
    """
    point = _point(c0)
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if table is None:
        table = SymbolicTable(max(DEFAULT_MAX_INDEX, max_n))
    if max_n > table.max_index:   # refused before any fill, as at the first index past the reach
        table._entry(table.max_index + 1)
    u = doubled_form(family)
    failures: list[CheckFailure] = []
    for n in range(max_n + 1):
        top, bottom = _ints_at(_fill(n), *point)
        if 2 * top != u(n) * bottom:
            failures.append(CheckFailure(n, n, Fraction(top, bottom), family_value(family, n)))
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

    Each value is the canonical (m, n) residual numerator at c0, as ints
    top/bottom from the integer evaluator.  Returns the nonzero entries as
    (m, n, value) triples, building a `Fraction` only for those; a c0 that
    genuinely generates a solution returns an empty list.
    """
    point = _point(c0)
    if table is None:
        table = SymbolicTable()
    hits: list[tuple[int, int, Fraction]] = []
    m = 3
    while m * m <= max_prod:
        for n in range(m, max_prod // m + 1):
            top, bottom = _ints_at((_residual_pair(m, n, table)[0], 0), *point)
            if top:
                hits.append((m, n, Fraction(top, bottom)))
        m += 1
    return hits
