"""Brute-force oracle for the product rule.

Closed-form families are checked exhaustively on a full square (m, n)
grid, and symbolic specializations are checked index by index against a
family's closed form.  Both read the family as data, its pieces of
u = 2T in `seqengine.FAMILY_PIECES`, so they need plain integers only.
The grid decides each row with one packed integer equation whose slots
are wide enough that equality holds exactly when every cell of the row
does (see `verify_family`), in O(M N) memory for a family of period M;
only a failing row is rechecked cell by cell.  A report's `checked`
counts the grid cells decided.  The specialization checks evaluate the
symbolic table at a rational c0 on the integer evaluator of `seqengine`:
c0 and D(c0) are turned into ints once per call, each value comes back
as two ints top/bottom, and the checks cross-multiply them, so no `Poly`
or `RatFunc` is made and a `Fraction` is built only for a reported hit
or failure.  Every rational c0 is in the domain, since D = c^2 + 2c - 1
has no rational root; a c0 that is not an int or a `Fraction`, a float
included, raises TypeError whatever the bound.  Everything is exact: a
report either carries an empty failure list or pinpoints the offending
pairs with their exact `Fraction` sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# residual_numerator is unused here but stays importable: perfbench/tracer.py patches it
from .seqengine import (  # noqa: F401
    FamilyId,
    SymbolicTable,
    _fill,
    _ints_at,
    _point,
    _piece_value,
    _residual_pair,
    doubled_values,
    family_pieces,
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


def _pack(values: list[int], width: int) -> int:
    """Kronecker packing: the sum of values[i] 2^(8 width i), each |value| < 2^(8 width - 1)."""
    half = 1 << (8 * width - 1)
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * len(values), "little")
    raw = b"".join((v + half).to_bytes(width, "little") for v in values)
    return int.from_bytes(raw, "little") - half * ones


def verify_family(family: FamilyId, max_mn: int) -> VerifyReport:
    """Check T(mn) = T(m)T(n) + T(m-1)T(n-1) for every 1 <= m, n <= max_mn.

    Runs on the family's pieces: u = 2T is c + b x + a x^2 on each residue
    class x = r (mod M), and the rule reads 2 u(mn) = u(m)u(n) + u(m-1)u(n-1).
    Row m is decided by one integer equation 2 L_m == R_m, with
    L_m = sum_n u(mn) X^(n-1) and R_m = u(m) U + u(m-1) U' over slots
    X = 2^B, where U and U' pack u(1..N) and u(0..N-1) (Kronecker
    substitution).  The class of mn is that of m times that of n, so
    2 L_m = A_0 + m A_1 + m^2 A_2, where A_j packs the j-th coefficient
    of n's piece times 2 n^j and depends on m only through its class:
    3 min(M, N + 1) packed integers, built once per grid, O(M N) memory.
    B is a whole number of bytes with every slot of both sides below
    2^(B-1) in absolute value, so the two integers are equal exactly when
    every cell of the row holds: the lowest slot where they differ would
    have to be a multiple of 2^B.

    Both sides are symmetric in m and n, so a failing row reruns the
    cell-by-cell check on n = m..N only.  A failing cell (m, n) is
    reported with its mirror (n, m), both with the same exact `Fraction`
    sides, and the failures are listed in row-major order of the full
    grid.  `checked` counts the N^2 grid cells decided.
    """
    if max_mn < 1:
        raise ValueError("max_mn must be positive")
    pieces = family_pieces(family)
    period = len(pieces)
    us = doubled_values(family, max_mn)
    square = max_mn * max_mn
    bound = 2 * max(
        max(abs(c) + (abs(b) + abs(a) * square) * square for c, b, a in pieces),
        max(map(abs, us)) ** 2,
    )
    width = bound.bit_length() // 8 + 1
    ns = range(1, max_mn + 1)
    rows = []
    for r in range(min(period, max_mn + 1)):
        row = [pieces[r * n % period] for n in ns]
        rows.append(tuple(
            _pack([2 * p[j] * n**j for n, p in zip(ns, row)], width) if any(p[j] for p in row) else 0
            for j in range(3)
        ))
    here, below = _pack(us[1:], width), _pack(us[:-1], width)
    failures: list[CheckFailure] = []
    for m in ns:
        a0, a1, a2 = rows[m % period]
        um, um1 = us[m], us[m - 1]
        if a0 + m * (a1 + m * a2) == um * here + um1 * below:
            continue
        for n in range(m, max_mn + 1):
            left, right = 2 * _piece_value(pieces, m * n), um * us[n] + um1 * us[n - 1]
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

    The reach is checked once, before any entry is filled; with no table
    given it is that of a default `SymbolicTable()`.  For n = 0..max_n,
    T(n)(c0) = top/bottom is compared with the family's integer closed form
    u(n), listed once by `doubled_values`, as 2 top == u(n) bottom, exact
    for either sign of bottom.  Only a failing index builds its exact
    sides: lhs T(n)(c0), rhs `family_value`.
    """
    point = _point(c0)
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if table is None:
        table = SymbolicTable()
    if max_n > table.max_index:   # refused before any fill, as at the first index past the reach
        table._entry(table.max_index + 1)
    us = doubled_values(family, max_n)
    failures: list[CheckFailure] = []
    for n, u in enumerate(us):
        top, bottom = _ints_at(_fill(n), *point)
        if 2 * top != u * bottom:
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
