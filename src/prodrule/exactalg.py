"""Exact arithmetic over the rationals: polynomials and rational functions.

Scalars are arbitrary-precision `fractions.Fraction` values, re-exported
as `Rational`; they are always in lowest terms with a positive
denominator, so `==` is plain field equality.

`Poly` is a dense univariate polynomial: `coeffs[i]` holds the
coefficient of the i-th power of the indeterminate (rendered as `c`).
Trailing zero coefficients are stripped on construction, the zero
polynomial stores no coefficients, and its degree is -1 by convention.
`Poly2` layers a second indeterminate (rendered as `d`) with `Poly`
coefficients on top; it supports ring operations only, never division.

`RatFunc` is a quotient of two `Poly` values kept in a unique canonical
form: monic denominator, gcd(num, den) constant, zero stored as 0/1.
Uniqueness makes `==` a decision procedure for equality of rational
functions.

Every value here is immutable and every operation is pure, so values can
be shared freely across threads.

`str()` renders descending powers with an explicit `^` and no `*`, for
example `3c^3 + c`.  A quotient renders as `(num)/(den)`, omitting the
denominator when it is 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Rational = Fraction

Scalar = Union[int, Fraction]

__all__ = [
    "DomainError",
    "Poly",
    "Poly2",
    "RatFunc",
    "Rational",
    "equal_up_to_scalar",
    "exact_div",
    "extract_rational_factors",
    "poly_gcd",
    "rational_roots",
]

_ZERO = Fraction(0)


class DomainError(ArithmeticError):
    """Evaluation at a point where a denominator vanishes."""


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"rational coefficient expected, not {type(value).__name__}")


def _poly_operand(value):
    """Coerce an operand to Poly, or None if it is of a foreign type."""
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((Fraction(value),))
    return None


class Poly:
    """Dense univariate polynomial over the rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_coeff(x) for x in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else _ZERO

    def monic(self) -> "Poly":
        """Scale to leading coefficient 1 (zero stays zero)."""
        lc = self.leading
        if lc == 0 or lc == 1:
            return self
        inv = 1 / lc
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
        return Poly(-x for x in self.coeffs)

    def __add__(self, other):
        o = _poly_operand(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = _poly_operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _poly_operand(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _poly_operand(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Poly()
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Poly(out)

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
        inv = 1 / o.leading
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

    def to_str(self, var: str = "c") -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for exp in range(self.degree, -1, -1):
            coeff = self.coeffs[exp]
            if coeff == 0:
                continue
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                power = var if exp == 1 else f"{var}^{exp}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

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


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor via the Euclidean remainder sequence.

    Each remainder is rescaled to monic, which keeps coefficient growth
    tame at the small degrees this project reaches.
    """
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero:
        _, r = divmod(a, b)
        a, b = b, r.monic()
    return a.monic()


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


def _homogeneous_eval(coeffs, p: int, q: int) -> int:
    """q^k f(p/q) for integer coefficients of f, k = len(coeffs) - 1.

    Horner's rule on the homogenised sum of a_i p^i q^(k - i): plain int
    arithmetic, with no `Fraction` built and no gcd taken along the way.
    """
    acc = 0
    scale = 1
    for a in reversed(coeffs):
        acc = acc * p + a * scale
        scale *= q
    return acc


def rational_roots(f: Poly) -> tuple[tuple[Fraction, int], ...]:
    """All rational roots of f with multiplicities, sorted ascending.

    Denominators are cleared to a primitive integer polynomial, and every
    candidate p/q in lowest terms, with p dividing the constant term and q
    dividing the leading coefficient, is tested on it in integers.  Each
    root found is then divided out of f, so multiplicities see the
    deflated polynomial.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial vanishes everywhere")
    found: dict[Fraction, int] = {}
    coeffs = list(f.coeffs)
    zeros = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zeros += 1
    if zeros:
        found[_ZERO] = zeros
    work = Poly(coeffs)
    if work.degree >= 1:
        scale = math.lcm(*(x.denominator for x in work.coeffs))
        ints = [(x * scale).numerator for x in work.coeffs]
        content = math.gcd(*ints)
        const, lead = ints[0] // content, ints[-1] // content
        roots = sorted(
            Fraction(sign * p, q)
            for p in _divisors(const)
            for q in _divisors(lead)
            if math.gcd(p, q) == 1
            for sign in (1, -1)
            if _homogeneous_eval(ints, sign * p, q) == 0
        )
        for root in roots:
            mult = 0
            while work.degree >= 1 and work(root) == 0:
                work = exact_div(work, Poly((-root, 1)))
                mult += 1
            found[root] = mult
    return tuple(sorted(found.items()))


def extract_rational_factors(f: Poly) -> tuple[tuple[tuple[Fraction, int], ...], Poly]:
    """Split f into its rational-root linear factors and the leftover cofactor.

    Returns (roots, cofactor) with f = prod (c - r)^mult * cofactor; the
    cofactor keeps f's leading coefficient and has no rational roots.
    """
    roots = rational_roots(f)
    cofactor = f
    for root, mult in roots:
        lin = Poly((-root, 1))
        for _ in range(mult):
            cofactor = exact_div(cofactor, lin)
    return roots, cofactor


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
                inv = 1 / lc
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


def _poly2_operand(value):
    if isinstance(value, Poly2):
        return value
    p = _poly_operand(value)
    return None if p is None else Poly2((p,))


class Poly2:
    """Polynomial in a second indeterminate d whose coefficients are Poly values."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = []
        for item in coeffs:
            p = _poly_operand(item)
            if p is None:
                raise TypeError("Poly coefficients expected")
            cs.append(p)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs: tuple[Poly, ...] = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree in d; -1 for the zero value."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> Poly:
        """Coefficient of d^j (zero beyond the stored degree)."""
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else Poly()

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other):
        o = _poly2_operand(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(tuple(p.coeffs for p in self.coeffs))

    def __neg__(self) -> "Poly2":
        return Poly2(-p for p in self.coeffs)

    def __add__(self, other):
        o = _poly2_operand(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, p in enumerate(b):
            out[i] = out[i] + p
        return Poly2(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = _poly2_operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _poly2_operand(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _poly2_operand(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Poly2()
        out = [Poly() for _ in range(len(a) + len(b) - 1)]
        for i, p in enumerate(a):
            if not p.is_zero:
                for j, q in enumerate(b):
                    out[i + j] = out[i + j] + p * q
        return Poly2(out)

    __rmul__ = __mul__

    def substitute(self, value: RatFunc) -> RatFunc:
        """Evaluate at d = value, giving a rational function of c."""
        acc = RatFunc(0)
        for p in reversed(self.coeffs):
            acc = acc * value + RatFunc(p)
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(self.degree, -1, -1):
            p = self.coeffs[j]
            if p.is_zero:
                continue
            if j == 0:
                parts.append(f"({p})")
            elif j == 1:
                parts.append(f"({p})d")
            else:
                parts.append(f"({p})d^{j}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly2({str(self)!r})"
