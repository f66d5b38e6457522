"""The former `Fraction` kernel routines, kept as references for the tests.

Each is the obviously-correct slow path the integer kernel replaced:
Euclid over Q with monic remainders, root finding by `Fraction` Horner
evaluation and deflation, and the cofactor certificate that divides the
shared linear factors out of each numerator.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import reduce

from prodrule.exactalg import Poly, _divisors, exact_div


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
