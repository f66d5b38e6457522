"""Exact arithmetic over the rationals: polynomials and rational functions.

Scalars are Python ints and arbitrary-precision `fractions.Fraction`
values, always in lowest terms with a positive denominator.  An int
equals and hashes like the `Fraction` of the same value, so `==` is
plain field equality across the two, and every division of coefficients
builds a `Fraction`, never a float.

`Poly` is a dense univariate polynomial: `coeffs[i]` holds the
coefficient of the i-th power of the indeterminate (rendered as `c`),
stored as given, so ints stay ints.  Trailing zero coefficients are
stripped on construction, the zero polynomial stores no coefficients,
and its degree is -1 by convention; `Poly._from_ints` wraps, unchecked,
a tuple of ints that an integer kernel built in that form.  `+`, `-` and
`*` run on the coefficient-tuple helpers `_add`, `_neg` and `_mul`,
which `seqengine` shares for its integer tables.

`RatFunc` is a quotient of two `Poly` values kept in a unique canonical
form: monic denominator, gcd(num, den) constant, zero stored as 0/1.
Uniqueness makes `==` a decision procedure for equality of rational
functions.

Root extraction and gcds take `Poly` values but run on primitive integer
coefficient lists: `rational_roots` and `extract_rational_factors` share
one pass that clears denominators and content once and divides each
candidate root p/q out as q c - p by exact integer synthetic division
(Gauss's lemma), and `poly_gcd` runs a primitive pseudo-remainder
sequence.  Their results are those of the `Fraction` algorithms over Q:
the same roots and multiplicities, the same cofactor, the same monic gcd.

Every value here is immutable and every operation is pure, so values can
be shared freely across threads.

`str()` renders descending powers with an explicit `^` and no `*`, for
example `3c^3 + c`, reading each coefficient's numerator and denominator
as ints.  A quotient renders as `(num)/(den)`, omitting the denominator
when it is 1.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

Scalar = int | Fraction

__all__ = [
    "DomainError",
    "Poly",
    "RatFunc",
    "equal_up_to_scalar",
    "exact_div",
    "extract_rational_factors",
    "poly_gcd",
    "rational_roots",
]

_ZERO = Fraction(0)


class DomainError(ArithmeticError):
    """Evaluation at a point where a denominator vanishes."""


def _coeff(value: Scalar) -> Scalar:
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"rational coefficient expected, not {type(value).__name__}")


# coefficient tuples, constant term first: the helpers use only +, - and *,
# so the coefficients may be ints, Fractions or Polys
def _add(a: tuple, b: tuple) -> tuple:
    """The sum of two coefficient tuples, trailing zeros stripped."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _neg(a: tuple) -> tuple:
    return tuple(-x for x in a)


def _mul(a: tuple, b: tuple) -> tuple:
    """The product of two stripped coefficient tuples (over a domain, so stripped too)."""
    if not a or not b:
        return ()
    # a slot no product reaches keeps the coefficients' own zero
    out = [a[-1] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_operand(value):
    """Coerce an operand to Poly, or None if it is of a foreign type."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    return None


class Poly:
    """Dense univariate polynomial with int or `Fraction` coefficients.

    Forms that differ only in int against `Fraction` coefficients are
    `==` and hash alike; `monic` and `divmod` divide by building `Fraction`s.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_coeff(x) for x in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Scalar, ...] = tuple(cs)

    @classmethod
    def _from_ints(cls, coeffs: tuple[int, ...]) -> "Poly":
        """Wrap a tuple of ints with no trailing zero, as the integer kernels build them; nothing is checked."""
        self = object.__new__(cls)
        self.coeffs = coeffs
        return self

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Scalar:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else _ZERO

    def monic(self) -> "Poly":
        """Scale to leading coefficient 1 (zero stays zero)."""
        lc = self.leading
        if lc == 0 or lc == 1:
            return self
        inv = Fraction(1, lc)
        return Poly(x * inv for x in self.coeffs)

    def __call__(self, x: Scalar) -> Fraction:
        x = _coeff(x)
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other):
        o = _poly_operand(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        # constants hash like their Fraction value, matching == coercion
        if self.degree <= 0:
            return hash(self.leading)
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(_neg(self.coeffs))

    def __add__(self, other):
        o = _poly_operand(other)
        return NotImplemented if o is None else Poly(_add(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = _poly_operand(other)
        return NotImplemented if o is None else Poly(_add(self.coeffs, _neg(o.coeffs)))

    def __rsub__(self, other):
        o = _poly_operand(other)
        return NotImplemented if o is None else Poly(_add(o.coeffs, _neg(self.coeffs)))

    def __mul__(self, other):
        o = _poly_operand(other)
        return NotImplemented if o is None else Poly(_mul(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other):
        o = _poly_operand(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < o.degree:
            return Poly(), self
        rem = list(self.coeffs)
        shift = self.degree - o.degree
        quo = [_ZERO] * (shift + 1)
        inv = Fraction(1, o.leading)
        for i in range(shift, -1, -1):
            q = rem[i + o.degree] * inv
            if q:
                quo[i] = q
                for j, y in enumerate(o.coeffs):
                    rem[i + j] -= q * y
        return Poly(quo), Poly(rem[: o.degree])

    def __floordiv__(self, other):
        result = divmod(self, other)
        return result[0] if result is not NotImplemented else NotImplemented

    def __mod__(self, other):
        result = divmod(self, other)
        return result[1] if result is not NotImplemented else NotImplemented

    def to_str(self) -> str:
        """Descending powers of c, reading each coefficient as two ints."""
        parts: list[str] = []
        for exp in range(len(self.coeffs) - 1, -1, -1):
            coeff = self.coeffs[exp]
            num, den = coeff.numerator, coeff.denominator
            if not num:
                continue
            mag = -num if num < 0 else num
            body = str(mag) if den == 1 else f"{mag}/{den}"
            if exp:
                power = "c" if exp == 1 else f"c^{exp}"
                body = power if mag == 1 and den == 1 else body + power
            if parts:
                parts.append(f"- {body}" if num < 0 else f"+ {body}")
            else:
                parts.append(f"-{body}" if num < 0 else body)
        return " ".join(parts) or "0"

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Poly({self.to_str()!r})"


def exact_div(f: Poly, g: Poly) -> Poly:
    """Divide f by g, insisting on a zero remainder."""
    q, r = divmod(f, g)
    if not r.is_zero:
        raise ValueError(f"{g} does not divide {f} exactly")
    return q


def _content_free(ints: list[int]) -> list[int]:
    """Divide an integer coefficient list by its content, keeping the sign."""
    content = math.gcd(*ints)
    return [x // content for x in ints] if content > 1 else ints


def _primitive(coeffs) -> list[int]:
    """The primitive integer multiple of rational coefficients (zero stays [])."""
    scale = math.lcm(*(x.denominator for x in coeffs))
    return _content_free([x.numerator * (scale // x.denominator) for x in coeffs])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor via a primitive remainder sequence.

    Runs in integers: both inputs are made primitive, each division step
    scales the running remainder by lc(b)/g and subtracts q/g times the
    shifted divisor, with q its leading coefficient and g = gcd(lc(b), q),
    and every remainder is made primitive again, so no `Fraction` is built
    until the monic result.  The monic gcd is unique, so the result is
    the one the `Fraction` Euclidean algorithm gives.
    """
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = _primitive(f.coeffs), _primitive(g.coeffs)
    while b:
        lead = b[-1]
        db = len(b) - 1
        rem = list(a)
        while len(rem) > db:
            q = rem[-1]
            if q:
                common = math.gcd(lead, q)
                s, t = lead // common, q // common
                shift = len(rem) - 1 - db
                rem = [x * s for x in rem]
                for j, y in enumerate(b):
                    rem[shift + j] -= t * y
            rem.pop()
        while rem and not rem[-1]:
            rem.pop()
        a, b = b, _content_free(rem)
    return Poly(Fraction(x, a[-1]) for x in a)


def equal_up_to_scalar(f: Poly, g: Poly) -> bool:
    """True when f = k*g for some nonzero rational k (zero matches only zero)."""
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    return f.monic() == g.monic()


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small: list[int] = []
    large: list[int] = []
    for p in range(1, math.isqrt(n) + 1):
        if n % p == 0:
            small.append(p)
            if p != n // p:
                large.append(n // p)
    return small + large[::-1]


def _divide_linear(ints: list[int], p: int, q: int) -> list[int] | None:
    """The quotient of ints by q c - p over Z, or None when it is not exact.

    Synthetic division from the top: each quotient coefficient must be an
    integer and the remainder zero.  For gcd(p, q) = 1 and primitive ints,
    Gauss's lemma makes that the same as p/q being a root.
    """
    quo = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        top, rest = divmod(ints[i] + carry, q)
        if rest:
            return None
        quo[i - 1] = top
        carry = p * top
    return quo if ints[0] + carry == 0 else None


def _split_roots(f: Poly) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Rational roots of f as triples (p, q, mult) for p/q in lowest terms, ascending, and the integer cofactor.

    Denominators and content are cleared once.  Every candidate p/q in
    lowest terms, p dividing the constant term and q the leading
    coefficient, is divided out by `_divide_linear` as often as it
    divides exactly; the cofactor is the last primitive quotient.  When
    (q c - p) divides the current quotient g over Z, Gauss's lemma makes
    p divide g's constant term and q its leading coefficient, q - p
    divide g(1) and q + p divide g(-1); a candidate is tried only while
    all four hold.  The quotient's ends shrink as roots come out, so
    they prune the later candidates; for q = p or q = -p the last two
    tests read g(1) = 0 or g(-1) = 0, C-level sums taken again after
    each division that succeeds.  The roots come out in candidate order
    and are sorted by the exact int key p (|lc|/q), which orders them as
    p/q does, lc being the leading coefficient of the primitive f.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    coeffs = f.coeffs
    zeros = 0
    while not coeffs[zeros]:
        zeros += 1
    work = _primitive(coeffs[zeros:])
    found = [(0, 1, zeros)] if zeros else []
    if len(work) > 1:
        lead = abs(work[-1])   # the quotients' leading coefficients shrink: the sort key reads this one
        denominators = _divisors(work[-1])
        candidates = [
            (sign * p, q)
            for p in _divisors(work[0])
            for q in denominators
            if math.gcd(p, q) == 1
            for sign in (1, -1)
        ]
        at_one, at_minus_one = sum(work), sum(work[::2]) - sum(work[1::2])
        for p, q in candidates:
            mult = 0
            while (len(work) > 1 and not work[0] % p and not work[-1] % q
                   and _divides(q - p, at_one) and _divides(q + p, at_minus_one)):
                quo = _divide_linear(work, p, q)
                if quo is None:
                    break
                work = quo
                at_one, at_minus_one = sum(work), sum(work[::2]) - sum(work[1::2])
                mult += 1
            if mult:
                found.append((p, q, mult))
        found.sort(key=lambda root: root[0] * (lead // root[1]))
    return found, work


def _divides(d: int, n: int) -> bool:
    """d | n over Z, where 0 divides only 0."""
    return n % d == 0 if d else not n


def rational_roots(f: Poly) -> tuple[tuple[Fraction, int], ...]:
    """All rational roots of f with multiplicities, sorted ascending.

    Runs in integers: f is made primitive once and each candidate p/q in
    lowest terms is divided out as q c - p by exact integer synthetic
    division while it divides (see `_split_roots`).  Only the roots found
    become `Fraction`s.  Roots and multiplicities are those of the
    `Fraction` deflation over Q.
    """
    return extract_rational_factors(f)[0]


def extract_rational_factors(f: Poly) -> tuple[tuple[tuple[Fraction, int], ...], Poly]:
    """Split f into its rational-root linear factors and the leftover cofactor.

    Returns (roots, cofactor) with f = prod (c - r)^mult * cofactor; the
    cofactor keeps f's leading coefficient and has no rational roots.  It
    is the integer quotient the root pass of `rational_roots` leaves,
    scaled to f's leading coefficient, so no second deflation runs.  When
    that scale is integral, as for every integer f, the cofactor's
    coefficients are ints.
    """
    found, work = _split_roots(f)
    roots = tuple((Fraction(p, q), mult) for p, q, mult in found)
    scale = Fraction(f.leading, work[-1])
    if scale.denominator == 1:
        return roots, Poly._from_ints(tuple(x * scale.numerator for x in work))
    return roots, Poly(x * scale for x in work)


def _ratfunc_operand(value):
    if isinstance(value, RatFunc):
        return value
    p = _poly_operand(value)
    return None if p is None else RatFunc(p)


class RatFunc:
    """Quotient of two polynomials in canonical form (see module docstring)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _poly_operand(num)
        den = _poly_operand(den)
        if num is None or den is None:
            raise TypeError("polynomial or rational expected")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = Poly(), Poly((1,))
        else:
            common = poly_gcd(num, den)
            if common.degree > 0:
                num = exact_div(num, common)
                den = exact_div(den, common)
            lc = den.leading
            if lc != 1:
                inv = Fraction(1, lc)
                num = num * inv
                den = den * inv
        self.num: Poly = num
        self.den: Poly = den

    @classmethod
    def _from_canonical(cls, num: Poly, den: Poly) -> "RatFunc":
        """Wrap a pair the caller guarantees is already canonical; no gcd runs."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other):
        o = _ratfunc_operand(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # canonical form makes den == 1 exactly when den is constant
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num.coeffs, self.den.coeffs))

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __add__(self, other):
        o = _ratfunc_operand(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = _ratfunc_operand(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = _ratfunc_operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = _ratfunc_operand(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __call__(self, x: Scalar) -> Fraction:
        """Evaluate at a rational point; the denominator must not vanish there."""
        x = _coeff(x)
        dv = self.den(x)
        if dv == 0:
            raise DomainError(f"denominator vanishes at c = {x}")
        return self.num(x) / dv

    def __str__(self) -> str:
        if self.den.degree == 0:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({str(self)!r})"
