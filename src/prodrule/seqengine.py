"""Evaluation engines for sequences obeying T(mn) = T(m)T(n) + T(m-1)T(n-1).

Once T(0) = 0 and T(1) = 1 are fixed, every later term is determined by
c = T(2) and d = T(3) through two halving identities:

    T(2k)     = c T(k) + T(k-1)          for k >= 2
    T(2k - 1) = T(k) + (d - c) T(k-1)    for k >= 3

`derive_d` runs these identities up to T(8) with d kept free, as
polynomials in d whose coefficients are integer `Poly`s in c, and
equates two product-rule routes to T(18).  The difference is linear in
d, lin d + const = 0 with lin = D = c^2 + 2c - 1 and const = -(3c^3 + c),
so d = (3c^3 + c)/D.  The pole identity

    (16c + 38)(3c^3 + c) - (48c^2 + 18c + 28) D = 28

is checked by integer `Poly` multiplication: it shows that 3c^3 + c and
D have no common root, so the quotient is already in lowest terms and no
gcd runs.  d is a constant of the problem, derived once per process.

`SymbolicTable` bakes that value in, making every entry a rational
function of c alone.  With g = d - c = G/D, G = 2c^3 - 2c^2 + 2c, every
entry and every residual is P/D^e, P an integer polynomial, and the
table stores exactly that pair: P as a tuple of ints (constant term
first) and e.  Pairs combine by the coefficient-tuple helpers `Poly`
runs on, scaling with powers of the monic D; `_halve` runs the
identities on them as on the polynomials in d of `derive_d`.  D does not
divide an entry's P, by construction: from T(0..3) = 0, 1, c, c + g the
identities make every T(n) a polynomial in c and g with non-negative
integer coefficients, of degree e in g.  D is irreducible, so D | P only
if P(c*) = 0 at its root c* = sqrt(2) - 1 > 0, but P(c*) is the positive
leading g-coefficient at c* times G(c*)^e != 0.  So an entry is already
the canonical `RatFunc` P/D^e, built only when a caller asks for a
symbolic value, and no gcd ever runs.  A residual is a difference whose
leading terms can cancel, so `_strip_d` divides D out of its P while it
divides, first for (13, 15), where e falls from 5 to 4.  `_residual_sum`
assembles it by Kronecker substitution: each of its three products
A B D^(E - e) is one big-int product at c = 2^B, B one bit more than
the bit length of the sum of ||A||_1 ||B||_1 4^(E - e), ||D||_1 = 4
bounding each power of D, so every coefficient of the difference lies
inside +-2^(B - 1) and is read back once, in balanced digits.  The fills
keep the schoolbook `_sum` and `_mul`: they multiply by the fixed small
c, G or D^k, where packing measured 3.5x slower: a cold fill to 10^40
took 153 ms packed against 44 ms (Python 3.11, 2-core VM).  Like d, each
entry is a constant of the problem: each T(n) is derived once per
process and shared by all tables, which differ only in their reach and
their residual memos.

Evaluation at a rational point c0 = p/q stays in integers, by one
evaluator: the C-level dot product s = q^k P(c0) = sum(map(mul, P, w))
with a power vector w[i] = p^i q^(k-i) of degree k >= deg P.  `_point`
gives p, q and d = q^2 D(c0) so, once per call; `_basis` gives one w for
a batch of polynomials, k = max deg P, and by e the ints (a, b) with
P(c0)/D(c0)^e = s a / b.  `walk_value` serves one T(n) at c0, `_basis` a
batch, and `table.value(n)(c0)` is the `Fraction` path.  D has no
rational root, so d != 0, though D(0) = -1; a float index or c0 raises
TypeError.  T(n) has deg P <= 3 log2 n, e <= log2 n (checked for
n <= 4096) and coefficients of about 2.5 log2 n bits, which bounds
len(w): T(1024) has degree 26, e = 8 and 18 bits, T(2^64 + 3) degree
188, e = 62 and 162 bits.

`residual_numerator` turns one (m, n) instance of the product rule into
a polynomial constraint on c: the instance holds exactly at the roots.
The five closed-form solution families live in `FamilyId`; each is
defined once, as data in `FAMILY_PIECES`: a period M and, for each
residue class r mod M, one integer piece (c, b, a) of its closed form
u(x) = 2 T(x) = c + b x + a x^2 for x = r (mod M).  `doubled_values`
lists u(0..N) one class at a time, by the helper that also lists the
grid's rows, u at the multiples of m, and `family_value` is u(n)/2.
"""

from __future__ import annotations

import enum
import functools
import operator
from collections.abc import Callable
from fractions import Fraction

# poly_gcd is unused here but stays importable: perfbench/tracer.py patches it
from .exactalg import Poly, RatFunc, _add, _coeff, _mul, _neg, poly_gcd  # noqa: F401

__all__ = [
    "DEFAULT_MAX_INDEX",
    "FamilyId",
    "SymbolicTable",
    "derive_d",
    "family_value",
    "residual_numerator",
]

DEFAULT_MAX_INDEX = 1024
WALK_MAX_BITS = 1 << 16   # the largest scale den s^k, in bits, that walk_value accepts

# integer polynomials are tuples of ints, constant term first, no trailing zeros
_C = (0, 1)
_D = (-1, 2, 1)              # c^2 + 2c - 1, monic and irreducible over Q
_D_NUMER = (0, 1, 0, 3)      # 3c^3 + c, so d = _D_NUMER / D
_D_MINUS_C = (0, 2, -2, 2)   # 2c^3 - 2c^2 + 2c, so d - c = _D_MINUS_C / D

C_POLY = Poly(_C)
D_NUMER = Poly(_D_NUMER)
D_DENOM = Poly(_D)

# (s, t) with s (3c^3 + c) - t D = 28: 3c^3 + c and D share no root
_POLE_WITNESS = ((38, 16), (28, 18, 48))


class FamilyId(enum.Enum):
    """The five families of solutions, in classification order."""

    ZERO = "zero"                # T(n) = 0
    HALF = "half"                # T(n) = 1/2
    CEIL_HALF = "ceilhalf"       # T(n) = ceil(n / 2)
    PERIOD3 = "period3"          # T(n) = 1 if n = 1 (mod 3) else 0
    TRIANGULAR = "triangular"    # T(n) = n(n + 1)/2


# each family as data: u(x) = 2 T(x) = c + b x + a x^2 for x = r (mod M),
# with pieces[r] = (c, b, a) and the period M = len(pieces)
FAMILY_PIECES = {
    FamilyId.ZERO: ((0, 0, 0),),
    FamilyId.HALF: ((1, 0, 0),),
    # T(2k) = T(2k - 1) = k, which is ceil(n / 2)
    FamilyId.CEIL_HALF: ((0, 1, 0), (1, 1, 0)),
    FamilyId.PERIOD3: ((0, 0, 0), (2, 0, 0), (0, 0, 0)),
    FamilyId.TRIANGULAR: ((0, 1, 1),),
}


def family_pieces(family: FamilyId) -> tuple[tuple[int, int, int], ...]:
    """The pieces (c, b, a) of a family's u = 2T, one per residue class."""
    try:
        return FAMILY_PIECES[family]
    except (KeyError, TypeError):
        raise TypeError(f"unknown family {family!r}") from None


def _piece_value(pieces: tuple[tuple[int, int, int], ...], n: int) -> int:
    c, b, a = pieces[n % len(pieces)]
    return c + (b + a * n) * n


def _piece_values(pieces: tuple[tuple[int, int, int], ...], top: int, step: int = 1) -> list[int]:
    """u(0), u(step), ..., u(top step) of pieces, in one comprehension that looks up each index's piece."""
    period = len(pieces)
    return [c + (b + a * x) * x for x in range(0, top * step + 1, step) for c, b, a in (pieces[x % period],)]


def doubled_values(family: FamilyId, top: int) -> list[int]:
    """u(0), ..., u(top) of a family's pieces, one comprehension."""
    return _piece_values(family_pieces(family), top)


def family_value(family: FamilyId, n: int) -> Fraction:
    """T(n) of a family, u(n)/2 for its integer closed form u = 2T."""
    if n < 0:
        raise ValueError("sequence indices start at 0")
    return Fraction(_piece_value(family_pieces(family), n), 2)


@functools.cache
def _d_power(e: int) -> tuple[int, ...]:
    """D^e, memoized for all tables; `Poly.__pow__` squares in a loop, not by recursion."""
    return (D_DENOM ** e).coeffs


def _strip_d(p: tuple[int, ...], e: int) -> tuple[tuple[int, ...], int]:
    """Reduce P/D^e by dividing D out of P while it divides exactly."""
    while e and len(p) > 2:
        # synthetic division by the monic quadratic D = c^2 + 2c - 1
        rem = list(p)
        for i in range(len(rem) - 1, 1, -1):
            q = rem[i]
            rem[i - 1] -= 2 * q
            rem[i - 2] += q
        if rem[0] or rem[1]:
            break
        p, e = tuple(rem[2:]), e - 1
    return (p, e) if p else ((), 0)


def _sum(*terms: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
    """The sum of several P/D^e pairs, over their largest exponent, unreduced."""
    top = max(e for _, e in terms)
    acc: tuple[int, ...] = ()
    for p, e in terms:
        acc = _add(acc, p if e == top else _mul(p, _d_power(top - e)))
    return acc, top


def _ratfunc(pair: tuple[tuple[int, ...], int]) -> RatFunc:
    """The canonical `RatFunc` P/D^e of a pair with D not dividing P."""
    p, e = pair
    return RatFunc._from_canonical(Poly._from_ints(p), Poly._from_ints(_d_power(e)))


def _powers(num: int, den: int, k: int) -> list[int]:
    """w[i] = num^i den^(k-i), i = 0..k: sum(map(mul, P, w)) = den^k P(num/den) for deg P <= k."""
    return [num**i * den**(k - i) for i in range(k + 1)]


def _point(c0) -> tuple[int, int, int]:
    """(num, den, den^2 D(c0)) for an int or `Fraction` c0 = num/den, in ints."""
    c0 = _coeff(c0)   # the TypeError `Poly.__call__` raises for a float
    num, den = c0.numerator, c0.denominator
    return num, den, sum(map(operator.mul, _D, _powers(num, den, 2)))


def _basis(polys, exponents, point: tuple[int, int, int]) -> tuple[list[int], list[tuple[int, int]]]:
    """The power vector w of degree k = max deg P over polys, and ints (a, b) for e = 0..max exponents.

    At the `_point` (num, den, d) of c0, P(c0)/D(c0)^e = s a / b for the dot
    product s = sum(map(mul, P, w)) = den^k P(c0) and d = den^2 D(c0).
    """
    num, den, d = point
    k = max(map(len, polys), default=0) - 1
    scales = [(den**(2 * e - k), d**e) if 2 * e >= k else (1, den**(k - 2 * e) * d**e)
              for e in range(max(exponents, default=0) + 1)]
    return _powers(num, den, k), scales


def walk_value(n: int, c0) -> Fraction:
    """T(n) at c = c0 by one walk over the bits of n, with no table or memo.

    With V(k) = (T(k+1), T(k), T(k-1)) and g = d - c, the halving identities
    read V(2k) = [[1, g, 0], [0, c, 1], [0, 1, g]] V(k) and
    V(2k+1) = [[c, 1, 0], [1, g, 0], [0, c, 1]] V(k) for k >= 1: each bit of
    n after its leading 1 is one step from V(1) = (c, 1, 0).  The steps run
    in ints, on s = den d times their entries at the `_point` (num, den, d)
    of c0, and a walk whose scale den s^k would pass `WALK_MAX_BITS` bits
    raises ValueError before it starts.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError("sequence indices start at 0")
    num, den, d = _point(c0)
    s, steps = den * d, max(n.bit_length() - 1, 0)
    if steps * s.bit_length() + den.bit_length() > WALK_MAX_BITS:
        raise ValueError(f"the walk needs integers of more than {WALK_MAX_BITS} bits")
    cs, gs = num * d, sum(map(operator.mul, _D_MINUS_C, _powers(num, den, 3)))
    a, b, e = num, den, 0   # den V(1)
    for bit in bin(n)[3:]:
        if bit == "1":
            a, b, e = cs * a + s * b, s * a + gs * b, cs * b + s * e
        else:
            a, b, e = s * a + gs * b, cs * b + s * e, s * b + gs * e
    return Fraction(b, den * s**steps) if n else Fraction(0)


def _halve(memo: dict, n: int, steps: tuple[Callable, Callable]):
    """memo[n] by steps = (even, odd), mapping (T(k), T(k-1)) to T(2k) and T(2k - 1), from seeds T(0..3).

    No recursion, so any index fills at any recursion limit: collect the
    unfilled indices level by level, at most 3 per level, then fill upward.
    """
    levels = [{n}]
    while levels[-1]:
        levels.append({i for m in levels[-1] for i in ((m + 1) // 2, (m - 1) // 2) if i not in memo})
    for level in reversed(levels):
        for m in level:
            k = (m + 1) // 2
            memo[m] = steps[m % 2](memo[k], memo[k - 1])
    return memo[n]


# on (P, e) pairs: c T(k) + T(k-1), c shifting P up, and T(k) + (d - c) T(k-1), d - c = _D_MINUS_C / D
_PAIR_STEPS = (
    lambda a, b: _sum((_mul(_C, a[0]), a[1]), b),
    lambda a, b: _sum(a, (_mul(_D_MINUS_C, b[0]), b[1] + 1)),
)

# the one entry memo, shared by all tables like the powers of D and seeded
# with T(0..3); entries are immutable and a racing fill stores an equal value
_ENTRIES = {0: ((), 0), 1: ((1,), 0), 2: (_C, 0), 3: (_D_NUMER, 1)}


def _fill(n: int) -> tuple[tuple[int, ...], int]:
    """The pair (P, e) of T(n), n an int, by the halving identities, memoized per process."""
    return _ENTRIES.get(n) or _halve(_ENTRIES, n, _PAIR_STEPS)   # a pair is never falsy


class SymbolicTable:
    """Values of T(n) as rational functions of c = T(2), up to a reach.

    Entries 0..3 are 0, 1, c and d(c); larger indices fill on demand via
    the halving identities.  Each entry is stored as a pair (P, e) of
    integer coefficients and a power of D, meaning P/D^e with D not
    dividing P by construction (see the module docstring; only residuals
    shed factors of D, first (13, 15)); `value` turns it into the
    canonical `RatFunc` without running a gcd.  The entries live in one
    memo shared by every table in the process: it holds one pair per
    distinct index any table has reached, each with O(log n)
    coefficients (about 0.7 MiB for all of T(0..1024)).

    Indices above `max_index` are refused by `_reach`, a check that fills
    nothing, before the memo is touched: the bound states how far a
    caller lets the recursion reach (`classify --range` sets it), so an
    index past it is an error, not a silent fill.  A float index or reach
    raises TypeError before any memo is read, so no refusal depends on
    what the process has filled.  Shared entries are immutable and a
    racing fill stores an equal value, so tables may fill from several
    threads.
    Each table also memoizes its residual pairs in `_residuals`, one
    immutable pair per distinct (m, n) asked for; that memo is the
    table's own, so give each thread its own table or share one only
    after the residuals it needs have been computed.
    """

    def __init__(self, max_index: int = DEFAULT_MAX_INDEX):
        max_index = operator.index(max_index)
        if max_index < 3:
            raise ValueError("max_index must be at least 3")
        self.max_index = max_index
        self._residuals: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}

    def _reach(self, n: int) -> int:
        """n, after checking it is an int within the reach; fills nothing."""
        n = operator.index(n)
        if n < 0:
            raise ValueError("sequence indices start at 0")
        if n > self.max_index:
            raise ValueError(
                f"index {n} exceeds the supported range {self.max_index}; "
                "construct the table with a larger max_index"
            )
        return n

    def value(self, n: int) -> RatFunc:
        """T(n), computing and caching whatever the recursion touches."""
        return _ratfunc(_fill(self._reach(n)))


# with d free, a value is a tuple of integer `Poly`s in c, the coefficients
# of d^0, d^1, ..., with no trailing zero; the coefficient-tuple helpers
# combine such tuples as they combine tuples of ints
_ONE = Poly((1,))
_FREE_C = (C_POLY,)
_FREE_D_MINUS_C = (-C_POLY, _ONE)
_FREE_SEEDS = {0: (), 1: (_ONE,), 2: _FREE_C, 3: (Poly(), _ONE)}   # T(0..3) = 0, 1, c, d
_FREE_STEPS = (
    lambda a, b: _add(_mul(_FREE_C, a), b),
    lambda a, b: _add(a, _mul(_FREE_D_MINUS_C, b)),
)


def _t18_difference() -> tuple[Poly, ...]:
    """The (3, 6) route to T(18) minus the halving route, as a polynomial in d."""
    t = dict(_FREE_SEEDS)
    for n in (5, 6, 8):
        _halve(t, n, _FREE_STEPS)
    t9 = _add(_mul(t[3], t[3]), _mul(t[2], t[2]))   # (3, 3) instance
    e1 = _add(_mul(t[3], t[6]), _mul(t[2], t[5]))   # (3, 6) instance
    e2 = _add(_mul(_FREE_C, t9), t[8])               # T(18) = c T(9) + T(8)
    return _add(e1, _neg(e2))


@functools.cache
def derive_d() -> RatFunc:
    """Recover d = T(3) as a function of c by equating two routes to T(18).

    Both routes keep d free.  The first expands the product-rule
    instance (3, 6); the second halves 18 after expanding the instance
    (3, 3) for T(9).  Their difference must vanish on any solution, and
    it is linear in d because the d^2 terms agree: lin d + const = 0 with
    lin = c^2 + 2c - 1, monic.  The pole identity with `_POLE_WITNESS`
    shows that -const and lin have no common root, so -const/lin is the
    canonical `RatFunc` and no gcd runs.  The checks raise AssertionError
    on failure, which would mean a bug rather than bad input.  The result
    is immutable and computed once per process.
    """
    diff = _t18_difference()
    if len(diff) != 2:
        raise AssertionError("difference of the T(18) routes is not linear in d")
    const, lin = diff
    if lin != D_DENOM:
        raise AssertionError("d coefficient is not c^2 + 2c - 1")
    s, t = _POLE_WITNESS
    if Poly(s) * const + Poly(t) * lin != -28:
        raise AssertionError("the pole identity fails: the linear relation for d degenerates")
    return RatFunc._from_canonical(-const, lin)


def _norm(p: tuple[int, ...]) -> int:
    """||P||_1, the sum of the absolute values of P's coefficients."""
    return sum(map(abs, p))


def _slot_bits(bound: int) -> int:
    """The slot width B of a packing whose coefficients are at most bound in absolute value: bound < 2^(B - 1)."""
    return bound.bit_length() + 1


def _pack(p: tuple[int, ...], bits: int) -> int:
    """P(2^bits): one int holding each coefficient of P in its own slot of `bits` bits."""
    return sum(map(operator.lshift, p, range(0, bits * len(p), bits)))


def _unpack(x: int, bits: int) -> tuple[int, ...]:
    """The P with x = P(2^bits), read in balanced digits: each coefficient must lie inside +-2^(bits - 1)."""
    half, mask, coeffs = 1 << (bits - 1), (1 << bits) - 1, []
    while x:
        digit = x & mask
        x >>= bits
        if digit >= half:   # a negative coefficient, which borrowed one from the slot above
            digit -= mask + 1
            x += 1
        coeffs.append(digit)
    return tuple(coeffs)


def _residual_sum(m: int, n: int) -> tuple[tuple[int, ...], int]:
    """T(mn) - T(m)T(n) - T(m-1)T(n-1) as an unreduced pair (P, E), one big-int expression at c = 2^B.

    B is the slot width of the sum of ||A||_1 ||B||_1 4^(E - e) over the
    three products A B D^(E - e), which bounds every coefficient of P.
    """
    (p0, e0), (pm, em), (pn, en), (pm1, em1), (pn1, en1) = map(_fill, (m * n, m, n, m - 1, n - 1))
    top = max(e0, em + en, em1 + en1)
    bound = ((_norm(p0) << 2 * (top - e0))
             + (_norm(pm) * _norm(pn) << 2 * (top - em - en))
             + (_norm(pm1) * _norm(pn1) << 2 * (top - em1 - en1)))
    bits = _slot_bits(bound)
    d = (1 << 2 * bits) + (2 << bits) - 1   # D(2^bits)
    x = (_pack(p0, bits) * d ** (top - e0)
         - _pack(pm, bits) * _pack(pn, bits) * d ** (top - em - en)
         - _pack(pm1, bits) * _pack(pn1, bits) * d ** (top - em1 - en1))
    return _unpack(x, bits), top


def _residual_pair(m: int, n: int, table: SymbolicTable | None):
    # ints before the memo, so a float is refused whatever was filled
    m, n = operator.index(m), operator.index(n)
    if m < 2 or n < 2:
        raise ValueError("product-rule probes need m >= 2 and n >= 2")
    if table is None:
        table = SymbolicTable()
    pair = table._residuals.get((m, n))
    if pair is None:
        table._reach(m * n)   # mn bounds every index the instance needs: checked before any fill
        pair = table._residuals[m, n] = _strip_d(*_residual_sum(m, n))   # a difference: D may divide its P
    return pair


def residual_numerator(m: int, n: int, table: SymbolicTable | None = None) -> Poly:
    """Canonical numerator of the (m, n) product-rule residual.

    The sequence generated from a given value of c satisfies the (m, n)
    instance exactly when that value is a root of this polynomial.
    """
    return Poly._from_ints(_residual_pair(m, n, table)[0])
