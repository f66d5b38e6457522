"""Brute-force oracle for the product rule.

Closed-form families are checked exhaustively on a full square (m, n)
grid, and symbolic specializations index by index against a family's
closed form.  Both read a family as data, its integer pieces of u = 2T
in `seqengine.FAMILY_PIECES`, and the specialization checks evaluate the
symbolic table by the dot products of `seqengine`, one `_basis` per
call.  A c0 that is not an int or a `Fraction`, a float included, raises
TypeError whatever the bound.  Everything is exact: a report either
carries an empty failure list or pinpoints the offending pairs with
their exact `Fraction` sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul

# residual_numerator is unused here but stays importable: perfbench/tracer.py patches it
from .seqengine import (  # noqa: F401
    FamilyId,
    SymbolicTable,
    _basis,
    _fill,
    _piece_value,
    _point,
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


def verify_family(family: FamilyId, max_mn: int) -> VerifyReport:
    """Check T(mn) = T(m)T(n) + T(m-1)T(n-1) for every 1 <= m, n <= max_mn.

    The family's u = 2T is c + b x + a x^2 for x = r (mod M), and the rule
    reads 2 u(mn) = u(m)u(n) + u(m-1)u(n-1).  All rows m = r (mod M) are
    decided at once: u(m) = alpha . (1, m, m^2) with alpha = pieces[r],
    u(m-1) = beta . (1, m, m^2) with beta = (c' - b' + a', b' - 2a', a')
    from (c', b', a') = pieces[r - 1], and mn = r n (mod M), so the defect
    of cell (m, n) is sum_j m^j E_j(n) with
    E_j(n) = 2 coef_j(pieces[r n]) n^j - alpha_j u(n) - beta_j u(n-1).
    Each E_j is two lists of ints compared with `==`, for j up to the
    largest degree of any piece (above it every term is 0): time O(M N),
    memory O(N).  Only a class whose lists differ reruns the cell-by-cell
    check, on n = m..N for each of its rows since the rule is symmetric;
    it decides each cell itself, so it is exact however few rows the class
    has.  A failing cell (m, n) is reported with its mirror (n, m), both
    with the same exact `Fraction` sides, in row-major order of the full
    grid; `checked` counts the N^2 grid cells decided.
    """
    if max_mn < 1:
        raise ValueError("max_mn must be positive")
    pieces = family_pieces(family)
    period = len(pieces)
    us = doubled_values(family, max_mn)
    here, below = us[1:], us[:-1]
    ns = range(1, max_mn + 1)
    degree = max((j for piece in pieces for j, coef in enumerate(piece) if coef), default=0)
    powers = [[n**j for n in ns] for j in range(degree + 1)]
    failures: list[CheckFailure] = []
    for first in range(1, min(period, max_mn) + 1):   # the first row of each class
        r = first % period
        alpha, row = pieces[r], [pieces[r * n % period] for n in ns]
        c, b, a = pieces[r - 1]
        beta = (c - b + a, b - 2 * a, a)
        if all(
            [2 * p[j] * x for p, x in zip(row, powers[j])]
            == [alpha[j] * x + beta[j] * y for x, y in zip(here, below)]
            for j in range(degree + 1)
        ):
            continue
        for m in range(first, max_mn + 1, period):
            um, um1 = us[m], us[m - 1]
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
    given it is that of a default `SymbolicTable()`.  T(0..max_n) share one
    `_basis`, so T(n)(c0) = s a / b for s the dot product with its power
    vector and its (a, b) by e; the lists 2 s a and u(n) b, u from
    `doubled_values`, are compared with one `==`, exact for either sign of
    b.  Only indices where they differ build their exact sides, from the
    same ints: lhs T(n)(c0), rhs `family_value`.
    """
    point = _point(c0)
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if table is None:
        table = SymbolicTable()
    if max_n > table.max_index:   # refused before any fill, as at the first index past the reach
        table._entry(table.max_index + 1)
    us = doubled_values(family, max_n)
    pairs = [_fill(n) for n in range(max_n + 1)]
    w, scales = _basis(*zip(*pairs), point)
    left = [2 * sum(map(mul, p, w)) * scales[e][0] for p, e in pairs]
    right = [u * scales[e][1] for u, (_, e) in zip(us, pairs)]
    failures = [] if left == right else [
        CheckFailure(n, n, Fraction(x, 2 * scales[e][1]), family_value(family, n))
        for n, (x, y, (_, e)) in enumerate(zip(left, right, pairs)) if x != y
    ]
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

    Each value is the canonical (m, n) residual numerator P at c0, s a / b
    for s its dot product with the power vector of one `_basis` over all
    probes.  Returns the nonzero values as (m, n, value) triples, building a
    `Fraction` only for those; a genuine c0 returns an empty list.  A scan
    that reaches past the table is refused, naming the first such probe's
    mn in scan order, before any probe is listed or any entry filled.
    """
    point = _point(c0)
    if table is None:
        table = SymbolicTable()
    if max_prod > table.max_index:   # one pass over m finds the first probe past the reach
        for m in range(3, isqrt(max_prod) + 1):
            if m * (max_prod // m) > table.max_index:
                table._entry(m * max(m, table.max_index // m + 1))
    probes = [(m, n) for m in range(3, isqrt(max(max_prod, 0)) + 1) for n in range(m, max_prod // m + 1)]
    polys = [_residual_pair(m, n, table)[0] for m, n in probes]
    w, ((a, b),) = _basis(polys, (0,), point)
    values = [sum(map(mul, p, w)) for p in polys]
    return [(m, n, Fraction(s * a, b)) for (m, n), s in zip(probes, values) if s]
