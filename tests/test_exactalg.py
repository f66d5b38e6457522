"""Kernel tests: polynomials, rational functions, gcd, rational roots.

Expected values were computed by hand (long division, expansion) and are
frozen here; the property tests then cover the general laws.
"""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from prodrule.exactalg import (
    DomainError,
    Poly,
    RatFunc,
    _add,
    _mul,
    _neg,
    equal_up_to_scalar,
    extract_rational_factors,
    poly_gcd,
    rational_roots,
)
from prodrule.seqengine import _powers, residual_numerator

C = Poly((0, 1))
DENOM = Poly((-1, 2, 1))        # c^2 + 2c - 1
NUMER = Poly((0, 1, 0, 3))      # 3c^3 + c
CUBIC = Poly((-1, 1, 0, 2))     # 2c^3 + c - 1
SEXTIC = Poly((1, -3, 4, -4, 7, -1, 8))  # 8c^6 - c^5 + 7c^4 - 4c^3 + 4c^2 - 3c + 1


def test_normalize_strips_trailing_zeros():
    assert Poly((5, 0, 0)).coeffs == (Fraction(5),)
    assert Poly((0, 0)).coeffs == ()
    assert Poly((-1, 2, 1)).coeffs == (Fraction(-1), Fraction(2), Fraction(1))
    # coefficients are stored as given: ints stay ints
    assert [type(x) for x in Poly((1, 2, Fraction(1, 2))).coeffs] == [int, int, Fraction]


def test_zero_polynomial_has_degree_minus_one():
    assert Poly().degree == -1
    assert Poly().is_zero
    assert not Poly((0, 0, 0))


def test_coefficients_must_be_exact():
    with pytest.raises(TypeError):
        Poly((0.5,))
    with pytest.raises(TypeError):
        Poly((1, 2))(0.5)
    with pytest.raises(TypeError):
        RatFunc(NUMER, DENOM)(0.5)


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
    assert all(type(x) is int for x in cofactor.coeffs)
    # a scale that is not integral keeps Fraction coefficients
    roots, cofactor = extract_rational_factors(Poly((-1, 1)) * CUBIC * Fraction(1, 2))
    assert cofactor == CUBIC * Fraction(1, 2)
    assert cofactor.coeffs == (Fraction(-1, 2), Fraction(1, 2), 0, 1)


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
    dmc = ref.Poly2((Poly((0, -1)), Poly((1,))))
    sq = dmc * dmc
    assert sq.coeff(2) == Poly((1,))
    assert sq.coeff(1) == Poly((0, -2))
    assert sq.coeff(0) == Poly((0, 0, 1))
    assert sq.degree == 2


def test_poly2_substitute():
    # substituting d = c into d^2 - c d gives 0
    f = ref.Poly2((Poly(), -C, Poly((1,))))
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
@example(f=Poly((-1, 2)))   # the root 1/2 needs a denominator from the leading coefficient
def test_rational_roots_verified_and_complete(f):
    # completeness by the `Fraction` reference, not by the routine under test
    roots, cofactor = extract_rational_factors(f)
    product = cofactor
    for root, mult in roots:
        assert f(root) == 0
        assert mult >= 1
        product = product * Poly((-root, 1)) ** mult
    assert product == f
    if cofactor.degree >= 1:
        assert ref.rational_roots(cofactor) == ()


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
    # the one integer evaluator, a dot product with the power vector, and the Horner reference
    k = len(coeffs) - 1
    want = Poly(coeffs)(Fraction(p, q)) * Fraction(q) ** k
    assert sum(map(operator.mul, coeffs, _powers(p, q, k))) == want
    assert ref._homogeneous_eval(coeffs, p, q) == want


# roots at 1 and -1 make the divisor pretest read f(1) = 0 or f(-1) = 0
planted_roots = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]),
                  st.fractions(min_value=-5, max_value=5, max_denominator=5)),
        st.integers(1, 3),
    ),
    max_size=3,
)
small_polys = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), max_size=4).map(Poly)


@settings(max_examples=80, deadline=None)
@given(roots=planted_roots, cofactor=small_polys.filter(lambda f: not f.is_zero), k=nonzero_rationals)
@example(roots=[(Fraction(1), 3), (Fraction(-1), 2)], cofactor=Poly((1,)), k=Fraction(1))
@example(roots=[(Fraction(1), 1), (Fraction(1, 2), 2)], cofactor=Poly((-1, 0, 1)), k=Fraction(-3, 2))
@example(roots=[(Fraction(-1), 2), (Fraction(3), 1)], cofactor=Poly((1, 1)), k=Fraction(2))
def test_integer_candidate_test_matches_fraction_horner(roots, cofactor, k):
    f = cofactor * k
    for root, mult in roots:
        f = f * Poly((-root, 1)) ** mult
    got = rational_roots(f)
    assert got == ref.rational_roots(f)
    found = dict(got)
    for root, _ in roots:
        assert found[root] >= sum(mult for r, mult in roots if r == root)


# ---------------------------------------------------------------------------
# the integer kernel against the former `Fraction` routines (kernel_reference)

fractional_roots = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-9, 9), st.integers(2, 6)), st.integers(1, 4)),
    max_size=3,
)


@settings(max_examples=80, deadline=None)
@given(
    roots=fractional_roots,
    zeros=st.integers(0, 3),
    cofactor=small_polys.filter(lambda f: not f.is_zero),
    k=nonzero_rationals,
)
@example(roots=[], zeros=0, cofactor=Poly((5,)), k=Fraction(-1, 3))
@example(roots=[], zeros=2, cofactor=Poly((Fraction(3, 4),)), k=Fraction(1))
@example(roots=[(Fraction(2, 3), 4), (Fraction(-1, 2), 1)], zeros=1, cofactor=Poly((1, 0, 1)), k=Fraction(-7, 2))
@example(roots=[(Fraction(1), 2), (Fraction(-1), 3), (Fraction(1, 2), 1)], zeros=1, cofactor=Poly((1, 0, 1)), k=Fraction(5))
def test_root_extraction_matches_the_fraction_reference(roots, zeros, cofactor, k):
    f = cofactor * k * C**zeros
    for root, mult in roots:
        f = f * Poly((-root, 1)) ** mult
    assert rational_roots(f) == ref.rational_roots(f)
    assert extract_rational_factors(f) == ref.extract_rational_factors(f)


@settings(max_examples=80, deadline=None)
@given(f=polys, g=polys, h=polys, roots=fractional_roots)
@example(f=Poly(), g=Poly((0, 2, 4)), h=Poly((1,)), roots=[])
@example(f=Poly((Fraction(-3, 2),)), g=Poly((0, 2, 4)), h=Poly((1,)), roots=[])
@example(f=Poly((1, 1)), g=Poly((-1, 1)), h=Poly((-2, 3)), roots=[(Fraction(1, 2), 4)])
def test_gcd_matches_the_euclid_reference(f, g, h, roots):
    for root, mult in roots:
        h = h * Poly((-root, 1)) ** mult
    f, g = f * h, g * h
    if f.is_zero and g.is_zero:
        with pytest.raises(ValueError):
            poly_gcd(f, g)
        return
    assert poly_gcd(f, g) == ref.poly_gcd(f, g)


def test_kernel_matches_the_references_on_every_probe_numerator(table):
    # every nonzero residual numerator with 3 <= m <= n, mn <= 1024
    probes = [residual_numerator(3, 3, table), residual_numerator(3, 5, table)]
    count = 0
    for m in range(3, 33):
        for n in range(m, 1024 // m + 1):
            f = residual_numerator(m, n, table)
            if f.is_zero:
                continue
            count += 1
            roots, cofactor = extract_rational_factors(f)
            assert (roots, cofactor) == ref.extract_rational_factors(f), (m, n)
            assert all(type(x) is int for x in cofactor.coeffs), (m, n)
            assert rational_roots(f) == roots, (m, n)
            for g in probes:
                assert poly_gcd(f, g) == ref.poly_gcd(f, g), (m, n)
    assert count == 1630


# ---------------------------------------------------------------------------
# rendering from ints against the `Fraction` rendering

big_ints = st.integers(-(2**400), 2**400)
render_coeffs = st.one_of(
    st.just(Fraction(0)),
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.integers(-1000, 1000).map(Fraction),
    st.integers(-1000, 1000),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    big_ints.map(Fraction),
    big_ints,
    st.builds(Fraction, big_ints, st.integers(1, 2**300)),
)
# zero-heavy lists give gaps of zero coefficients; short ones give constants
render_polys = st.lists(
    st.one_of(st.just(Fraction(0)), render_coeffs), max_size=9
).map(Poly)


@settings(max_examples=300, deadline=None)
@given(f=render_polys)
@example(f=Poly())
@example(f=Poly((-1,)))
@example(f=Poly((0, 0, Fraction(-1, 3), 0, 1)))
@example(f=Poly((2**300, 0, -1)))
def test_rendering_matches_the_fraction_reference(f):
    assert str(f) == ref.to_str(f)
    assert repr(f) == f"Poly({ref.to_str(f)!r})"


@settings(max_examples=60, deadline=None)
@given(num=render_polys, den=render_polys.filter(lambda f: not f.is_zero))
@example(num=Poly((0, 1, 0, 3)), den=Poly((-1, 2, 1)))
@example(num=Poly((Fraction(-7, 2),)), den=Poly((3,)))
def test_ratfunc_rendering_matches_the_fraction_reference(num, den):
    r = RatFunc(num, den)
    assert str(r) == ref.ratfunc_str(r)


# ---------------------------------------------------------------------------
# exactness: int coefficients stay exact through every operation, since each
# coefficient division builds a Fraction and never an int / int float

small_ints = st.integers(-12, 12)
exact_scalars = st.one_of(small_ints, rationals)
int_polys = st.lists(small_ints, max_size=6).map(Poly)
exact_polys = st.one_of(int_polys, st.lists(exact_scalars, max_size=6).map(Poly))


def _exact_poly(f):
    return isinstance(f, Poly) and all(type(x) in (int, Fraction) for x in f.coeffs)


def _exact_ratfunc(r):
    return isinstance(r, RatFunc) and _exact_poly(r.num) and _exact_poly(r.den)


@settings(max_examples=150, deadline=None)
@given(f=exact_polys, g=exact_polys, h=exact_polys.filter(lambda f: not f.is_zero),
       x=exact_scalars)
@example(f=Poly((1, 2)), g=Poly((0, 2)), h=Poly((3,)), x=2)
@example(f=Poly((2, 0, 4)), g=Poly((-1, 3)), h=Poly((0, 2)), x=Fraction(1, 2))
def test_int_and_mixed_coefficients_stay_exact(f, g, h, x):
    polys = [f + g, f - g, g - f, -f, f * g, f + 1, 1 - f, f * 2, f.monic(), h.monic(),
             *divmod(f, h), f // h, f % h]
    if not (f.is_zero and g.is_zero):
        polys.append(poly_gcd(f, g))
    if not f.is_zero:
        roots, cofactor = extract_rational_factors(f)
        polys.append(cofactor)
        assert all(type(root) is Fraction for root, _ in roots)
        assert all(type(root) is Fraction for root, _ in rational_roots(f))
    assert all(_exact_poly(p) for p in polys)
    assert type(f(x)) is Fraction

    a, b = RatFunc(f, h), RatFunc(g, h * h + 1)
    rats = [a, b, RatFunc(f), a + b, a - b, a * b, -a, a + 1, 2 - a, a * 3]
    assert all(_exact_ratfunc(r) for r in rats)
    for r in rats:
        if r.den(x) != 0:
            assert type(r(x)) is Fraction


# ---------------------------------------------------------------------------
# the coefficient-tuple helpers against evaluation: `kernel_reference` builds
# on `Poly`, which runs on these helpers, so a polynomial of degree < k is
# refereed here by its values at k points, computed by a Horner loop of its own

coeff_tuples = st.lists(exact_scalars, max_size=6).map(
    lambda cs: tuple(cs[: max((i + 1 for i, x in enumerate(cs) if x), default=0)])
)


def _horner(coeffs, x):
    acc = Fraction(0)
    for a in reversed(coeffs):
        acc = acc * x + a
    return acc


def _is_poly_with_values(got, size, value):
    """got is stripped, has at most size coefficients and agrees with value at size points."""
    if len(got) > size or (got and got[-1] == 0):
        return False
    points = [Fraction(2 * i - 3, 3) for i in range(size)]
    return all(_horner(got, x) == value(x) for x in points)


@settings(max_examples=150, deadline=None)
@given(a=coeff_tuples, b=coeff_tuples)
@example(a=(), b=())
@example(a=(1, 2), b=(-1, -2))
@example(a=(0, 1), b=(0, -1, 0, 1))
def test_coefficient_helpers_match_evaluation(a, b):
    def fa(x):
        return _horner(a, x)

    def fb(x):
        return _horner(b, x)

    width, product = max(len(a), len(b)), max(len(a) + len(b) - 1, 0)
    f, g = Poly(a), Poly(b)
    assert _is_poly_with_values(_add(a, b), width, lambda x: fa(x) + fb(x))
    assert _is_poly_with_values(_neg(a), len(a), lambda x: -fa(x))
    assert _is_poly_with_values(_mul(a, b), product, lambda x: fa(x) * fb(x))
    assert _is_poly_with_values((f + g).coeffs, width, lambda x: fa(x) + fb(x))
    assert _is_poly_with_values((f - g).coeffs, width, lambda x: fa(x) - fb(x))
    assert _is_poly_with_values((-f).coeffs, len(a), lambda x: -fa(x))
    assert _is_poly_with_values((f * g).coeffs, product, lambda x: fa(x) * fb(x))


@settings(max_examples=100, deadline=None)
@given(num=st.lists(small_ints, max_size=5), den=st.lists(small_ints, max_size=4))
@example(num=[3], den=[])
@example(num=[0, 1, 0, 3], den=[-1, 2])
def test_int_and_fraction_forms_are_one_key(num, den):
    den = [*den, 1]   # monic, so an int denominator may stay int
    pairs = [(Poly(num), Poly(map(Fraction, num))),
             (RatFunc(Poly(num), Poly(den)), RatFunc(Poly(map(Fraction, num)), Poly(map(Fraction, den))))]
    for ints, fracs in pairs:
        assert ints == fracs and fracs == ints
        assert hash(ints) == hash(fracs)
        assert {ints: "v"}[fracs] == "v" and {fracs: "v"}[ints] == "v"
    if len(Poly(num).coeffs) <= 1:
        # constants also equal, hash like and find their scalar value
        k = Poly(num).leading
        assert {k: "v"}[Poly(num)] == "v" and {Poly(num): "v"}[Fraction(k)] == "v"
