"""Exact checks of the product rule on closed-form families and specializations.

A grid check takes integer pieces of u = 2T, a family's from its
`seqengine.FAMILY_PIECES` entry, and runs by rows of ints on the square
(m, n) grid that decides every cell, then on the whole N x N grid only if
that fails; a specialization is checked index by index against a family.
The specialization checks evaluate the symbolic table by the dot products
of `seqengine`, one `_basis` per call, and raise TypeError for a c0 that is
not an int or a `Fraction`, a float included, whatever the bound.  A
`VerifyReport` either carries an empty failure list or pinpoints the
offending pairs as `CheckFailure` records with their exact `Fraction`
sides; both are immutable named tuples.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import isqrt
from operator import index, mul

# residual_numerator is unused here but stays importable: perfbench/tracer.py patches it
from .seqengine import (  # noqa: F401
    FamilyId,
    SymbolicTable,
    _basis,
    _fill,
    _piece_values,
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
    "verify_pieces",
]

MAX_FULL_GRID = 500   # the largest side of a grid checked row by row: see verify_pieces


class CheckFailure(namedtuple("CheckFailure", "m n lhs rhs")):
    """One failed exact check; for specialization checks m == n == index.

    Fields: m int, n int, lhs Fraction, rhs Fraction.
    """
    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "subject range checked failures")):
    """Outcome of one exhaustive verification run.

    Fields: subject str, range int, checked int, failures list[CheckFailure].
    """
    __slots__ = ()

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
    """Check a family's pieces, `verify_pieces` on its `FAMILY_PIECES` entry; each passes at any N."""
    return verify_pieces(family_pieces(family), max_mn, f"family:{family.value}")


def verify_pieces(pieces, max_mn: int, subject: str) -> VerifyReport:
    """Check T(mn) = T(m)T(n) + T(m-1)T(n-1) for every 1 <= m, n <= max_mn.

    pieces[r] = (c, b, a), all ints (else TypeError or ValueError before any
    work), gives u(x) = 2T(x) = c + b x + a x^2 for x = r (mod M = len(pieces)).
    Row m of 2 u(mn) = u(m)u(n) + u(m-1)u(n-1) is two lists of ints compared
    with one `==`.  On a pair of classes of (m, n) mod M the defect is a
    polynomial of degree at most delta, the largest piece degree, in each of m
    and n, so (Alon, Lemma 2.1) the square 1..d by 1..d, d = min(N, M (delta + 1)),
    decides the grid: a pass costs O(M^2 (delta + 1)^2) whatever N.  Only if a
    cell of it fails is every row 1..N checked, the failures in row-major order
    with exact `Fraction` sides; `checked` is N^2.  That holds O(N) rows and up
    to N^2 failures, so a side d or N past `MAX_FULL_GRID` = 500 raises
    ValueError before its rows are built; at 500, every cell failing took 1.1 s
    and a 68 MiB tracemalloc peak (2-core VM, Python 3.11).
    """
    max_mn = index(max_mn)   # a float N is refused before any work
    if max_mn < 1:
        raise ValueError("max_mn must be positive")
    if not pieces:
        raise ValueError("pieces must hold one (c, b, a) per residue class")
    pieces = tuple((index(c), index(b), index(a)) for c, b, a in pieces)   # ints only
    twice = tuple((2 * c, 2 * b, 2 * a) for c, b, a in pieces)
    degree = max((j for piece in pieces for j, coef in enumerate(piece) if coef), default=0)
    deciding = min(max_mn, len(pieces) * (degree + 1))
    for top in (deciding, max_mn):
        if top > MAX_FULL_GRID:
            raise ValueError(f"grid side {top} is past MAX_FULL_GRID = {MAX_FULL_GRID}")
        us = _piece_values(pieces, top)
        failures: list[CheckFailure] = []
        for m in range(1, top + 1):
            um, um1 = us[m], us[m - 1]
            left = _piece_values(twice, top, m)[1:]
            right = [um * x + um1 * y for x, y in zip(us[1:], us)]   # u(n), u(n - 1)
            if left != right:
                failures += [CheckFailure(m, n, Fraction(x, 4), Fraction(y, 4))
                             for n, (x, y) in enumerate(zip(left, right), 1) if x != y]
            del left, right   # freed before the next row is built
        if not failures or top == max_mn:
            break
    return VerifyReport(subject=subject, range=max_mn, checked=max_mn * max_mn, failures=failures)


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
    table._reach(max_n)   # refused before any fill
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
                table._reach(m * max(m, table.max_index // m + 1))
    probes = [(m, n) for m in range(3, isqrt(max(max_prod, 0)) + 1) for n in range(m, max_prod // m + 1)]
    polys = [_residual_pair(m, n, table)[0] for m, n in probes]
    w, ((a, b),) = _basis(polys, (0,), point)
    values = [sum(map(mul, p, w)) for p in polys]
    return [(m, n, Fraction(s * a, b)) for (m, n), s in zip(probes, values) if s]
