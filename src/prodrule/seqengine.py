"""Evaluation engines for sequences obeying T(mn) = T(m)T(n) + T(m-1)T(n-1).

Once T(0) = 0 and T(1) = 1 are fixed, every later term is determined by
c = T(2) and d = T(3) through two halving identities:

    T(2k)     = c T(k) + T(k-1)          for k >= 2
    T(2k - 1) = T(k) + (d - c) T(k-1)    for k >= 3

`BivariateTable` runs these identities with d kept as a free
indeterminate, so its entries are honest polynomials and no division
ever happens.  `derive_d` equates two product-rule routes to T(18) over
that table; the difference is linear in d and solving it pins d to
(3c^3 + c)/D with D = c^2 + 2c - 1.  `SymbolicTable` bakes that value
in, making every entry a rational function of c alone.

Both tables share one memoized halving recursion and differ only in
their seeds and combine steps.  Since d - c = (2c^3 - 2c^2 + 2c)/D,
every entry of `SymbolicTable`, and every residual built from them, is
P/D^e with P an integer polynomial.  The table stores exactly that pair:
P as a tuple of Python ints (constant term first) and the exponent e.
Entries combine by scaling with powers of the monic D and then dividing
D out of P while it divides exactly.  D is irreducible over Q, so
gcd(P, D^e) is always a power of D and no general gcd is ever needed;
a stripped pair is already the canonical `RatFunc` P/D^e, which is
built only when a caller asks for a symbolic value.  Evaluation at a
rational point c0 = p/q (`SymbolicTable.value_at`,
`residual_numerator_at`) stays in integers too: P and D are evaluated as
homogenised integer sums and a single `Fraction` is built at the end, so
no `Poly` or `RatFunc` is made.  D has no rational root, so every
rational c0 is in the domain.

`residual_numerator` turns one (m, n) instance of the product rule into
a polynomial constraint on c: the instance holds exactly at the roots.
The five closed-form solution families live in `FamilyId`; each is
defined by its integer closed form u(n) = 2 T(n) (`doubled_form`), and
`family_value` is u(n)/2.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from fractions import Fraction

from .exactalg import Poly, Poly2, RatFunc, _homogeneous_eval, poly_gcd

__all__ = [
    "DEFAULT_MAX_INDEX",
    "BivariateTable",
    "FamilyId",
    "SymbolicTable",
    "d_of_c",
    "derive_d",
    "doubled_form",
    "family_value",
    "residual",
    "residual_numerator",
    "residual_numerator_at",
]

DEFAULT_MAX_INDEX = 1024

# integer polynomials are tuples of ints, constant term first, no trailing zeros
_C = (0, 1)
_D = (-1, 2, 1)              # c^2 + 2c - 1, monic and irreducible over Q
_D_NUMER = (0, 1, 0, 3)      # 3c^3 + c, so d = _D_NUMER / D
_D_MINUS_C = (0, 2, -2, 2)   # 2c^3 - 2c^2 + 2c, so d - c = _D_MINUS_C / D

C_POLY = Poly(_C)
D_NUMER = Poly(_D_NUMER)
D_DENOM = Poly(_D)

_ONE_POLY = Poly((1,))


def d_of_c() -> RatFunc:
    """T(3) as a function of c, forced on every solution with T(0)=0, T(1)=1."""
    return RatFunc(D_NUMER, D_DENOM)


class FamilyId(enum.Enum):
    """The five families of solutions, in classification order."""

    ZERO = "zero"                # T(n) = 0
    HALF = "half"                # T(n) = 1/2
    CEIL_HALF = "ceilhalf"       # T(n) = ceil(n / 2)
    PERIOD3 = "period3"          # T(n) = 1 if n = 1 (mod 3) else 0
    TRIANGULAR = "triangular"    # T(n) = n(n + 1)/2


# u(n) = 2 T(n) for each family: every family value is a half-integer, so
# this integer closed form is the one definition the families have
_DOUBLED = {
    FamilyId.ZERO: lambda n: 0,
    FamilyId.HALF: lambda n: 1,
    # T(0) = 0 and T(2k) = T(2k - 1) = k, which is ceil(n / 2)
    FamilyId.CEIL_HALF: lambda n: (n + 1) // 2 * 2,
    FamilyId.PERIOD3: lambda n: 2 if n % 3 == 1 else 0,
    FamilyId.TRIANGULAR: lambda n: n * (n + 1),
}


def doubled_form(family: FamilyId) -> Callable[[int], int]:
    """The integer closed form u(n) = 2 T(n) of a family, for n >= 0."""
    try:
        return _DOUBLED[family]
    except (KeyError, TypeError):
        raise TypeError(f"unknown family {family!r}") from None


def family_value(family: FamilyId, n: int) -> Fraction:
    """Closed-form value of one of the five solution families at index n.

    This is u(n)/2 for the family's integer closed form u = 2T of
    `doubled_form`, the single source of truth for the family.
    """
    if n < 0:
        raise ValueError("sequence indices start at 0")
    return Fraction(doubled_form(family)(n), 2)


def _mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _neg(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in a)


_D_POWERS = {0: (1,)}


def _d_power(e: int) -> tuple[int, ...]:
    """D^e, memoized for all tables; a racing fill stores the same value."""
    power = _D_POWERS.get(e)
    if power is None:
        power = _D_POWERS[e] = _mul(_d_power(e - 1), _D)
    return power


def _strip_d(p: list[int], e: int) -> tuple[tuple[int, ...], int]:
    """Reduce P/D^e by dividing D out of P while it divides exactly."""
    while p and not p[-1]:
        p.pop()
    while e and len(p) > 2:
        # synthetic division by the monic quadratic D = c^2 + 2c - 1
        rem = list(p)
        for i in range(len(rem) - 1, 1, -1):
            q = rem[i]
            rem[i - 1] -= 2 * q
            rem[i - 2] += q
        if rem[0] or rem[1]:
            break
        p, e = rem[2:], e - 1
    return (tuple(p), e) if p else ((), 0)


def _sum(*terms: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    """The sum of several P/D^e pairs, over their largest exponent."""
    top = max(e for _, e in terms)
    acc: list[int] = []
    for p, e in terms:
        if e < top:
            p = _mul(p, _d_power(top - e))
        if len(p) > len(acc):
            acc.extend([0] * (len(p) - len(acc)))
        for i, x in enumerate(p):
            acc[i] += x
    return _strip_d(acc, top)


def _ratfunc(pair: tuple[tuple[int, ...], int]) -> RatFunc:
    """The canonical `RatFunc` P/D^e of a stripped pair."""
    p, e = pair
    return RatFunc._from_canonical(Poly(p), Poly(_d_power(e)))


def _pair_at(pair: tuple[tuple[int, ...], int], c0) -> Fraction:
    """P(c0)/D(c0)^e of a pair at a rational c0, built as one `Fraction`."""
    p, e = pair
    c0 = Fraction(c0)
    num, den = c0.numerator, c0.denominator
    # P(c0) = top / den^k with k = deg P, and D(c0) = d / den^2
    top = _homogeneous_eval(p, num, den)
    d_e = _homogeneous_eval(_D, num, den) ** e
    shift = 2 * e - len(p) + 1
    if shift >= 0:
        return Fraction(top * den**shift, d_e)
    return Fraction(top, den**-shift * d_e)


class _HalvingTable:
    """Memo of T(n) under the halving identities, in any representation.

    Subclasses give `_seeds`, the entries T(0)..T(3), and the combine
    steps `_even(a, b)` for T(2k) and `_odd(a, b)` for T(2k - 1), with
    a = T(k) and b = T(k - 1).  Indices above `max_index` are refused:
    the bound states how far a caller lets the recursion reach (`classify
    --range` sets it), so an index past it is an error, not a silent
    fill.  Filling mutates the cache, so give each thread its own table
    or share one only after the indices it needs have been computed.
    """

    _seeds: tuple = ()

    def __init__(self, max_index: int = DEFAULT_MAX_INDEX):
        if max_index < 3:
            raise ValueError("max_index must be at least 3")
        self.max_index = max_index
        self._cache = dict(enumerate(self._seeds))

    def _entry(self, n: int):
        """The stored entry for T(n), after checking n is in range."""
        if n < 0:
            raise ValueError("sequence indices start at 0")
        if n > self.max_index:
            raise ValueError(
                f"index {n} exceeds the supported range {self.max_index}; "
                "construct the table with a larger max_index"
            )
        return self._fill(n)

    def _fill(self, n: int):
        cached = self._cache.get(n)
        if cached is None:
            k = (n + 1) // 2
            step = self._odd if n % 2 else self._even
            cached = self._cache[n] = step(self._fill(k), self._fill(k - 1))
        return cached


class SymbolicTable(_HalvingTable):
    """Memoized values of T(n) as rational functions of c = T(2).

    Entries 0..3 are 0, 1, c and d(c); larger indices fill on demand via
    the halving identities.  Each entry is stored as a pair (P, e) of
    integer coefficients and a power of D, meaning P/D^e with D not
    dividing P (see the module docstring); `value` turns it into the
    canonical `RatFunc` without running a gcd.
    """

    _seeds = (((), 0), ((1,), 0), (_C, 0), (_D_NUMER, 1))

    @staticmethod
    def _even(a, b):
        # c T(k) + T(k-1); multiplying by c shifts the coefficients up
        return _sum((_mul(_C, a[0]), a[1]), b)

    @staticmethod
    def _odd(a, b):
        # T(k) + (d - c) T(k-1), with d - c = _D_MINUS_C / D
        return _sum(a, (_mul(_D_MINUS_C, b[0]), b[1] + 1))

    def value(self, n: int) -> RatFunc:
        """T(n), computing and caching whatever the recursion touches."""
        return _ratfunc(self._entry(n))

    def value_at(self, n: int, c0) -> Fraction:
        """T(n) at the rational point c = c0; equal to `value(n)(c0)`."""
        return _pair_at(self._entry(n), c0)


_C2 = Poly2((C_POLY,))
_D_MINUS_C2 = Poly2((-C_POLY, _ONE_POLY))


class BivariateTable(_HalvingTable):
    """Memoized values of T(n) as polynomials in c and the free unknown d.

    Same recursion as `SymbolicTable`, but T(3) stays the indeterminate
    d, so entries are `Poly2` values and no denominators appear.
    """

    _seeds = (Poly2(), Poly2((_ONE_POLY,)), _C2, Poly2((Poly(), _ONE_POLY)))

    @staticmethod
    def _even(a, b):
        return _C2 * a + b

    @staticmethod
    def _odd(a, b):
        return a + _D_MINUS_C2 * b

    def value(self, n: int) -> Poly2:
        """T(n) with d free, computing and caching along the way."""
        return self._entry(n)


def derive_d() -> RatFunc:
    """Recover d = T(3) as a function of c by equating two routes to T(18).

    Both routes keep d free.  The first expands the product-rule
    instance (3, 6); the second halves 18 after expanding the instance
    (3, 3) for T(9).  Their difference must vanish on any solution, and
    it is linear in d because the d^2 terms agree, with d coefficient
    c^2 + 2c - 1.  That coefficient shares no factor with the constant
    side 3c^3 + c, so the division is legitimate and unique.  The
    structural checks raise AssertionError on failure, which would mean
    a bug rather than bad input.
    """
    table = BivariateTable()
    t2, t3 = table.value(2), table.value(3)
    t5, t6, t8 = table.value(5), table.value(6), table.value(8)
    t9 = t3 * t3 + t2 * t2             # product-rule route, quadratic in d
    e1 = t3 * t6 + t2 * t5             # T(18) via the (3, 6) instance
    e2 = _C2 * t9 + t8                 # T(18) via halving
    diff = e1 - e2
    if diff.degree != 1:
        raise AssertionError("difference of the T(18) routes is not linear in d")
    lin, const = diff.coeff(1), diff.coeff(0)
    if lin != D_DENOM and lin != -D_DENOM:
        raise AssertionError("d coefficient is not c^2 + 2c - 1 up to sign")
    if poly_gcd(const, lin).degree != 0:
        raise AssertionError("the linear relation for d unexpectedly degenerates")
    return RatFunc(-const, lin)


def _residual_pair(m: int, n: int, table: SymbolicTable | None):
    if m < 2 or n < 2:
        raise ValueError("product-rule probes need m >= 2 and n >= 2")
    if table is None:
        table = SymbolicTable()
    t = table._entry
    (pm, em), (pn, en) = t(m), t(n)
    (pm1, em1), (pn1, en1) = t(m - 1), t(n - 1)
    return _sum(
        t(m * n),
        (_neg(_mul(pm, pn)), em + en),
        (_neg(_mul(pm1, pn1)), em1 + en1),
    )


def residual(m: int, n: int, table: SymbolicTable | None = None) -> RatFunc:
    """T(mn) - T(m)T(n) - T(m-1)T(n-1) as a rational function of c."""
    return _ratfunc(_residual_pair(m, n, table))


def residual_numerator(m: int, n: int, table: SymbolicTable | None = None) -> Poly:
    """Canonical numerator of the (m, n) product-rule residual.

    The sequence generated from a given value of c satisfies the (m, n)
    instance exactly when that value is a root of this polynomial.
    """
    return Poly(_residual_pair(m, n, table)[0])


def residual_numerator_at(m: int, n: int, c0, table: SymbolicTable | None = None) -> Fraction:
    """The canonical (m, n) residual numerator at the rational point c = c0.

    Equal to `residual_numerator(m, n, table)(c0)`, without building a `Poly`.
    """
    return _pair_at((_residual_pair(m, n, table)[0], 0), c0)
