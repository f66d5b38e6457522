"""Kernel tests: polynomials, rational functions, gcd, rational roots.

Expected values were computed by hand (long division, expansion) and are
frozen here; the property tests then cover the general laws.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prodrule.exactalg import (
    DomainError,
    Poly,
    Poly2,
    RatFunc,
    _divisors,
    _homogeneous_eval,
    equal_up_to_scalar,
    exact_div,
    extract_rational_factors,
    poly_gcd,
    rational_roots,
)

C = Poly((0, 1))
DENOM = Poly((-1, 2, 1))        # c^2 + 2c - 1
NUMER = Poly((0, 1, 0, 3))      # 3c^3 + c
CUBIC = Poly((-1, 1, 0, 2))     # 2c^3 + c - 1
SEXTIC = Poly((1, -3, 4, -4, 7, -1, 8))  # 8c^6 - c^5 + 7c^4 - 4c^3 + 4c^2 - 3c + 1


def test_normalize_strips_trailing_zeros():
    assert Poly((5, 0, 0)).coeffs == (Fraction(5),)
    assert Poly((0, 0)).coeffs == ()
    assert Poly((-1, 2, 1)).coeffs == (Fraction(-1), Fraction(2), Fraction(1))


def test_zero_polynomial_has_degree_minus_one():
    assert Poly().degree == -1
    assert Poly().is_zero
    assert not Poly((0, 0, 0))


def test_coefficients_must_be_exact():
    with pytest.raises(TypeError):
        Poly((0.5,))


def test_mul_by_zero_annihilates():
    f = Poly((1, 2, 3))
    assert (f * Poly()).is_zero
    assert (Poly() * f).is_zero


def test_mul_expands_root_product():
    # c * (c - 3) * (c - 1) = c^3 - 4c^2 + 3c
    assert C * Poly((-3, 1)) * Poly((-1, 1)) == Poly((0, 3, -4, 1))


def test_mul_squares_the_denominator():
    # (c^2 + 2c - 1)^2 = c^4 + 4c^3 + 2c^2 - 4c + 1
    assert DENOM * DENOM == Poly((1, -4, 2, 4, 1))
    assert DENOM**2 == DENOM * DENOM


def test_divrem_by_unit_divisor():
    f = Poly((1, 2, 3))
    q, r = divmod(f, Poly((2,)))
    assert q == Poly((Fraction(1, 2), 1, Fraction(3, 2)))
    assert r.is_zero


def test_divrem_known_quotient_and_remainder():
    # hand long division: 3c^3 + c = (3c - 6)(c^2 + 2c - 1) + (16c - 6)
    q, r = divmod(NUMER, DENOM)
    assert q == Poly((-6, 3))
    assert r == Poly((-6, 16))


def test_divrem_exact_factor():
    q, r = divmod(Poly((0, 3, -4, 1)), Poly((-3, 1)))
    assert q == Poly((0, -1, 1))
    assert r.is_zero


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod(C, Poly())


def test_gcd_with_zero_is_monic_other():
    f = Poly((2, 4))
    assert poly_gcd(f, Poly()) == Poly((Fraction(1, 2), 1))
    assert poly_gcd(Poly(), f) == f.monic()
    with pytest.raises(ValueError):
        poly_gcd(Poly(), Poly())


def test_gcd_of_the_two_constraint_numerators():
    n33 = C * Poly((-3, 1)) * Poly((-1, 1)) * Poly((1, 1)) * CUBIC
    n35 = C * Poly((-3, 1)) * Poly((-1, 1)) * SEXTIC
    assert poly_gcd(n33, n35) == Poly((0, 3, -4, 1))


def test_gcd_of_coprime_pair_is_one():
    assert poly_gcd(NUMER, DENOM) == Poly((1,))


def test_eval_known_points():
    assert DENOM(0) == -1
    assert NUMER(3) == 84
    assert CUBIC(Fraction(1, 2)) == Fraction(-1, 4)


def test_rational_roots_of_constraint_numerator():
    f = C * Poly((-3, 1)) * Poly((-1, 1)) * Poly((1, 1)) * CUBIC
    assert rational_roots(f) == (
        (Fraction(-1), 1),
        (Fraction(0), 1),
        (Fraction(1), 1),
        (Fraction(3), 1),
    )


def test_rational_roots_none_for_irreducible_quadratic():
    assert rational_roots(DENOM) == ()


def test_rational_roots_constant_and_zero():
    assert rational_roots(Poly((5,))) == ()
    with pytest.raises(ValueError):
        rational_roots(Poly())


def test_rational_roots_with_multiplicity():
    f = Poly((-1, 1)) * Poly((-1, 1)) * Poly((2, 1))
    assert rational_roots(f) == ((Fraction(-2), 1), (Fraction(1), 2))


def test_rational_roots_fractional():
    # (2c - 1)(3c + 2) has roots 1/2 and -2/3
    f = Poly((-1, 2)) * Poly((2, 3))
    assert rational_roots(f) == ((Fraction(-2, 3), 1), (Fraction(1, 2), 1))


def test_extract_rational_factors_keeps_leading_scale():
    f = Poly((0, 2)) * Poly((-1, 1)) * CUBIC
    roots, cofactor = extract_rational_factors(f)
    assert roots == ((Fraction(0), 1), (Fraction(1), 1))
    assert cofactor == CUBIC * 2


def test_ratfunc_zero_is_zero_over_one():
    r = RatFunc(Poly(), DENOM)
    assert r.num.is_zero and r.den == Poly((1,))
    assert r.is_zero


def test_ratfunc_canonical_keeps_reduced_pair():
    r = RatFunc(NUMER, DENOM)
    assert r.num == NUMER and r.den == DENOM


def test_ratfunc_cancels_common_factor_and_scales_monic():
    # (2c^2 + 2c) / (2c) = c + 1
    r = RatFunc(Poly((0, 2, 2)), Poly((0, 2)))
    assert r.num == Poly((1, 1)) and r.den == Poly((1,))


def test_ratfunc_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc(C, Poly())


def test_ratfunc_arithmetic_identities():
    d = RatFunc(NUMER, DENOM)
    c = RatFunc(C)
    assert d - d == RatFunc(0)
    assert d + RatFunc(0) == d
    assert d * RatFunc(1) == d
    assert d * d == RatFunc(NUMER * NUMER, DENOM * DENOM)
    assert (d - c) + c == d


def test_ratfunc_eval_and_domain_error():
    d = RatFunc(NUMER, DENOM)
    assert d(3) == 6
    assert d(1) == 2
    with pytest.raises(DomainError):
        RatFunc(Poly((1,)), C)(0)


def test_equal_up_to_scalar():
    assert equal_up_to_scalar(CUBIC, CUBIC * Fraction(-7, 3))
    assert not equal_up_to_scalar(CUBIC, CUBIC + Poly((1,)))
    assert equal_up_to_scalar(Poly(), Poly())
    assert not equal_up_to_scalar(Poly(), CUBIC)


def test_rendering():
    assert str(NUMER) == "3c^3 + c"
    assert str(DENOM) == "c^2 + 2c - 1"
    assert str(CUBIC) == "2c^3 + c - 1"
    assert str(Poly()) == "0"
    assert str(Poly((-1, 1))) == "c - 1"
    assert str(Poly((1, 1))) == "c + 1"
    assert str(Poly((0, -1))) == "-c"
    assert str(RatFunc(NUMER, DENOM)) == "(3c^3 + c)/(c^2 + 2c - 1)"
    assert str(RatFunc(Poly((1, 0, 1)))) == "c^2 + 1"


def test_poly2_basics():
    # (d - c)^2 = d^2 - 2c d + c^2
    dmc = Poly2((Poly((0, -1)), Poly((1,))))
    sq = dmc * dmc
    assert sq.coeff(2) == Poly((1,))
    assert sq.coeff(1) == Poly((0, -2))
    assert sq.coeff(0) == Poly((0, 0, 1))
    assert sq.degree == 2


def test_poly2_substitute():
    # substituting d = c into d^2 - c d gives 0
    f = Poly2((Poly(), -C, Poly((1,))))
    assert f.substitute(RatFunc(C)).is_zero


# ---------------------------------------------------------------------------
# property tests

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
polys = st.lists(rationals, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda f: not f.is_zero)
nonzero_rationals = rationals.filter(lambda x: x != 0)


@given(x=rationals, y=rationals, z=rationals)
def test_rational_field_axioms(x, y, z):
    assert x + (y + z) == (x + y) + z
    assert x * (y * z) == (x * y) * z
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    if x != 0:
        assert x * (1 / x) == 1


@given(f=polys, g=nonzero_polys)
def test_divrem_reconstructs(f, g):
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


@given(f=polys, g=polys)
def test_gcd_divides_both(f, g):
    if f.is_zero and g.is_zero:
        return
    d = poly_gcd(f, g)
    assert (f % d).is_zero
    assert (g % d).is_zero
    assert d.leading == 1


@settings(max_examples=100, deadline=None)
@given(f=polys, g=polys, h=nonzero_polys)
def test_gcd_respects_common_factor(f, g, h):
    if f.is_zero and g.is_zero:
        return
    assert poly_gcd(f * h, g * h) == h.monic() * poly_gcd(f, g)


@given(f=nonzero_polys)
def test_rational_roots_verified_and_complete(f):
    roots, cofactor = extract_rational_factors(f)
    for root, mult in roots:
        assert f(root) == 0
        assert mult >= 1
    if cofactor.degree >= 1:
        assert rational_roots(cofactor) == ()


@given(num=polys, den=nonzero_polys, k=nonzero_rationals)
def test_ratfunc_canonical_form_is_unique(num, den, k):
    a = RatFunc(num, den)
    b = RatFunc(num * k, den * k)
    assert a == b
    assert a.den.leading == 1
    if not a.num.is_zero:
        assert poly_gcd(a.num, a.den).degree == 0


@settings(deadline=None)
@given(fn=polys, fd=nonzero_polys, gn=polys, gd=nonzero_polys, x=rationals)
def test_ratfunc_evaluation_is_a_homomorphism(fn, fd, gn, gd, x):
    if fd(x) == 0 or gd(x) == 0:
        return
    a, b = RatFunc(fn, fd), RatFunc(gn, gd)
    assert (a + b)(x) == a(x) + b(x)
    assert (a - b)(x) == a(x) - b(x)
    assert (a * b)(x) == a(x) * b(x)


@given(coeffs=st.lists(st.integers(-10**6, 10**6), max_size=8),
       p=st.integers(-50, 50), q=st.integers(1, 12))
def test_homogeneous_eval_is_the_scaled_value(coeffs, p, q):
    k = len(coeffs) - 1
    want = Poly(coeffs)(Fraction(p, q)) * Fraction(q) ** k
    assert _homogeneous_eval(coeffs, p, q) == want


def _former_rational_roots(f):
    """`rational_roots` as it was, testing every candidate by Fraction Horner."""
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


planted_roots = st.lists(
    st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=5), st.integers(1, 3)),
    max_size=3,
)
small_polys = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4).map(Poly)


@settings(max_examples=80, deadline=None)
@given(roots=planted_roots, cofactor=small_polys.filter(lambda f: not f.is_zero), k=nonzero_rationals)
def test_integer_candidate_test_matches_fraction_horner(roots, cofactor, k):
    f = cofactor * k
    for root, mult in roots:
        f = f * Poly((-root, 1)) ** mult
    got = rational_roots(f)
    assert got == _former_rational_roots(f)
    found = dict(got)
    for root, _ in roots:
        assert found[root] >= sum(mult for r, mult in roots if r == root)
