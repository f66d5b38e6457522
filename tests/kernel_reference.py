"""The former `Fraction` kernel routines, kept as references for the tests.

Each is the obviously-correct slow path the integer kernel replaced:
Euclid over Q with monic remainders, root finding by `Fraction` Horner
evaluation and deflation, the cofactor certificate that divides the
shared linear factors out of each numerator, the classification that
deflates the monic gcd of the probe numerators, rendering that compares
`Fraction` coefficients, and the derivation of d over `Poly2`, a
polynomial in d with `Poly` coefficients, and the `BivariateTable` that
runs the halving identities with d free.  The point evaluator as it was,
`_ints_at`, runs one homogenised Horner sum, `_homogeneous_eval`, per
pair, and the specialisation checks as they were build one `Fraction`
per value from it: the crosscheck at each index, the scan at each probe.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import reduce

from prodrule.classifier import PERIOD3_NOTE
from prodrule.exactalg import Poly, RatFunc, _divisors, exact_div
from prodrule.seqengine import (
    DEFAULT_MAX_INDEX,
    SymbolicTable,
    _fill,
    _point,
    _residual_pair,
    doubled_form,
    family_value,
)
from prodrule.veritool import CheckFailure, VerifyReport


def poly_gcd(f, g):
    """Monic gcd via the Euclidean remainder sequence over Q."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero:
        _, r = divmod(a, b)
        a, b = b, r.monic()
    return a.monic()


def rational_roots(f):
    """Every candidate p/q tested by `Fraction` Horner, deflating each root found."""
    found = {}
    coeffs = list(f.coeffs)
    zeros = 0
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zeros += 1
    if zeros:
        found[Fraction(0)] = zeros
    work = Poly(coeffs)
    if work.degree >= 1:
        scale = math.lcm(*(x.denominator for x in work.coeffs))
        ints = [(x * scale).numerator for x in work.coeffs]
        content = math.gcd(*ints)
        const, lead = ints[0] // content, ints[-1] // content
        candidates = sorted(
            {sign * Fraction(p, q) for p in _divisors(const) for q in _divisors(lead) for sign in (1, -1)}
        )
        for cand in candidates:
            mult = 0
            while work.degree >= 1 and work(cand) == 0:
                work = exact_div(work, Poly((-cand, 1)))
                mult += 1
            if mult:
                found[cand] = mult
    return tuple(sorted(found.items()))


def extract_rational_factors(f):
    """The roots, and f divided by (c - r)^mult for each of them over Q."""
    roots = rational_roots(f)
    cofactor = f
    for root, mult in roots:
        lin = Poly((-root, 1))
        for _ in range(mult):
            cofactor = exact_div(cofactor, lin)
    return roots, cofactor


def shared_root_free_gcd(constraints):
    """Gcd of the live numerators with their shared linear factors divided out.

    The shared factor takes each rational root all numerators share at
    the smallest multiplicity among them.  None when no record is live.
    """
    live = [rec for rec in constraints if not rec.numerator.is_zero]
    if not live:
        return None
    shared = Counter(dict(live[0].roots))
    for rec in live[1:]:
        shared &= Counter(dict(rec.roots))   # keeps the smaller multiplicity
    linear = Poly((1,))
    for root, mult in shared.items():
        linear = linear * Poly((-root, 1)) ** mult
    return reduce(poly_gcd, [exact_div(rec.numerator, linear) for rec in live])


def cofactor_gcd_check(constraints):
    """The certificate as it was: the shared-root-free gcd must be constant."""
    common = shared_root_free_gcd(constraints)
    return common is not None and common.degree == 0


def classify_by_numerator_gcd(constraints):
    """The classification as `solve_c` first derived it.

    Takes the monic gcd of the live numerators and deflates it by its
    rational roots.  Returns (surviving_c, complete, unresolved_cofactor,
    notes), with the unresolved cofactor None when complete, or None when
    no record is live.
    """
    live = [rec.numerator for rec in constraints if not rec.numerator.is_zero]
    if not live:
        return None
    roots, leftover = extract_rational_factors(reduce(poly_gcd, live).monic())
    complete = leftover.degree == 0
    notes = (PERIOD3_NOTE,) if complete else (
        PERIOD3_NOTE,
        f"unresolved common factor {leftover}; the surviving set may be incomplete",
    )
    return tuple(root for root, _ in roots), complete, None if complete else leftover, notes


def to_str(f, var="c"):
    """`Poly` rendering by `abs`, `==` and `>` on each `Fraction` coefficient."""
    if not f.coeffs:
        return "0"
    parts = []
    for exp in range(f.degree, -1, -1):
        coeff = f.coeffs[exp]
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


def ratfunc_str(r):
    """`RatFunc` rendering over `to_str`, omitting a denominator of 1."""
    if r.den.degree == 0:
        return to_str(r.num)
    return f"({to_str(r.num)})/({to_str(r.den)})"


def _poly_operand(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((Fraction(value),))
    return None


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
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        """Degree in d; -1 for the zero value."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def coeff(self, j):
        """Coefficient of d^j (zero beyond the stored degree)."""
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else Poly()

    def __eq__(self, other):
        o = _poly2_operand(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(tuple(p.coeffs for p in self.coeffs))

    def __neg__(self):
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

    def substitute(self, value):
        """Evaluate at d = value, giving a rational function of c."""
        acc = RatFunc(0)
        for p in reversed(self.coeffs):
            acc = acc * value + RatFunc(p)
        return acc


C2 = Poly2((Poly((0, 1)),))
D_MINUS_C2 = Poly2((Poly((0, -1)), Poly((1,))))


class BivariateTable:
    """Memoized T(n) as `Poly2` values: the halving identities with T(3) = d free."""

    def __init__(self):
        self.memo = {0: Poly2(), 1: Poly2((1,)), 2: C2, 3: Poly2((0, 1))}

    def value(self, n):
        if n not in self.memo:
            k = (n + 1) // 2
            if n % 2:
                self.memo[n] = self.value(k) + D_MINUS_C2 * self.value(k - 1)
            else:
                self.memo[n] = C2 * self.value(k) + self.value(k - 1)
        return self.memo[n]


def t18_relation():
    """(lin, const) with lin d + const the (3, 6) route to T(18) minus the halving route."""
    table = BivariateTable()
    t2, t3 = table.value(2), table.value(3)
    t5, t6, t8 = table.value(5), table.value(6), table.value(8)
    t9 = t3 * t3 + t2 * t2
    diff = (t3 * t6 + t2 * t5) - (C2 * t9 + t8)
    assert diff.degree == 1
    return diff.coeff(1), diff.coeff(0)


def derive_d():
    """d = -const/lin over `RatFunc`, with its gcd canonicalisation."""
    lin, const = t18_relation()
    assert poly_gcd(const, lin).degree == 0
    return RatFunc(-const, lin)


def constant_pieces(u, top):
    """The sequence u(0..top) as a family's data: one constant piece per index, period top + 1."""
    return tuple((u(k), 0, 0) for k in range(top + 1))


def _homogeneous_eval(coeffs, p, q):
    """q^k f(p/q) for integer coefficients of f, k = len(coeffs) - 1, by Horner's rule in ints."""
    acc = 0
    scale = 1
    for a in reversed(coeffs):
        acc = acc * p + a * scale
        scale *= q
    return acc


def _ints_at(pair, num, den, d):
    """Ints (top, bottom) with P(c0)/D(c0)^e = top/bottom, at the `_point` (num, den, d) of c0."""
    p, e = pair
    # P(c0) = top / den^k with k = deg P, and D(c0) = d / den^2
    top = _homogeneous_eval(p, num, den)
    shift = 2 * e - len(p) + 1
    if shift >= 0:
        return top * den**shift, d**e
    return top, den**-shift * d**e


def crosscheck_specialization(c0, family, max_n, table=None):
    """The crosscheck as it was: `_ints_at` at each index, refusing an index past the reach when met."""
    point = _point(c0)
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    if table is None:
        table = SymbolicTable(max(DEFAULT_MAX_INDEX, max_n))
    u = doubled_form(family)
    failures = []
    for n in range(max_n + 1):
        got = Fraction(*_ints_at(_fill(table._reach(n)), *point))
        if 2 * got.numerator != u(n) * got.denominator:
            failures.append(CheckFailure(n, n, got, family_value(family, n)))
    return VerifyReport(subject=f"c={c0}->{family.value}", range=max_n, checked=max_n + 1, failures=failures)


def scan_candidate(c0, max_prod, table=None):
    """The scan as it was: the residual numerator by `_ints_at` at each probe, keeping the nonzero values."""
    point = _point(c0)
    if table is None:
        table = SymbolicTable()
    hits = []
    m = 3
    while m * m <= max_prod:
        for n in range(m, max_prod // m + 1):
            value = Fraction(*_ints_at((_residual_pair(m, n, table)[0], 0), *point))
            if value != 0:
                hits.append((m, n, value))
        m += 1
    return hits
