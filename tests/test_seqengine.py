"""Symbolic engine tests: tables, the d formula, residuals, specializations.

The closed forms frozen below (T(9), the two constraint numerators, the
divisor structure of residual denominators) were derived by hand from the
halving identities and confirmed by independent evaluation at many points.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prodrule.exactalg import Poly, RatFunc, poly_gcd
from prodrule.seqengine import (
    C_POLY,
    D_DENOM,
    D_NUMER,
    BivariateTable,
    FamilyId,
    SymbolicTable,
    d_of_c,
    derive_d,
    doubled_form,
    family_value,
    residual,
    residual_numerator,
    residual_numerator_at,
)

D = d_of_c()

# frozen: numerator of residual(3, 3), expanded
N33 = Poly((0, -3, 4, 2, 2, -1, -6, 2))
# frozen: numerator of residual(3, 5), expanded
N35 = Poly((0, 3, -13, 25, -31, 41, -35, 35, -33, 8))


def test_base_cases(table):
    assert table.value(0) == RatFunc(0)
    assert table.value(1) == RatFunc(1)
    assert table.value(2) == RatFunc(C_POLY)
    assert table.value(3) == D


def test_even_step_gives_quadratic_t4(table):
    # T(4) = c T(2) + T(1) = c^2 + 1
    assert table.value(4) == RatFunc(Poly((1, 0, 1)))


def test_t9_closed_form(table):
    # T(9) = T(5) + (d - c) T(4), reduced: (2c^5 + 5c^3 + 3c)/(c^2 + 2c - 1)
    assert table.value(9) == RatFunc(Poly((0, 3, 0, 5, 0, 2)), D_DENOM)


def test_derive_d_matches_closed_form():
    assert derive_d() == RatFunc(D_NUMER, D_DENOM)
    assert str(derive_d()) == "(3c^3 + c)/(c^2 + 2c - 1)"


def test_d_values_at_key_points():
    assert D(3) == 6
    assert D(1) == 2
    assert D(0) == 0
    assert D(Fraction(1, 2)) == Fraction(7, 2)


def test_bivariate_table_matches_symbolic_after_substitution(table):
    biv = BivariateTable()
    for n in (5, 6, 8):
        assert biv.value(n).substitute(D) - table.value(n) == RatFunc(0)


def test_bivariate_t5_closed_form():
    # T(5) = T(3) + (d - c) T(2) = cd - c^2 + d
    t5 = BivariateTable().value(5)
    assert t5.coeff(0) == Poly((0, 0, -1))
    assert t5.coeff(1) == Poly((1, 1))
    assert t5.degree == 1


def test_residual_33_numerator_exact(table):
    assert residual_numerator(3, 3, table) == N33


def test_residual_33_factored_form(table):
    linear = C_POLY * Poly((-3, 1)) * Poly((-1, 1)) * Poly((1, 1))
    assert residual_numerator(3, 3, table) == linear * Poly((-1, 1, 0, 2))


def test_residual_35_numerator_exact(table):
    assert residual_numerator(3, 5, table) == N35


def test_residual_35_factored_form(table):
    linear = C_POLY * Poly((-3, 1)) * Poly((-1, 1))
    sextic = Poly((1, -3, 4, -4, 7, -1, 8))
    assert residual_numerator(3, 5, table) == linear * sextic


def test_residual_35_denominator_is_cubed(table):
    assert residual(3, 5, table).den == D_DENOM**3


def test_residuals_with_a_factor_of_two_vanish(table):
    for n in range(2, 12):
        assert residual(2, n, table).is_zero
        assert residual(n, 2, table).is_zero


def test_residual_is_symmetric(table):
    assert residual(3, 5, table) == residual(5, 3, table)
    assert residual(3, 7, table) == residual(7, 3, table)


def test_residual_rejects_small_indices(table):
    with pytest.raises(ValueError):
        residual(1, 5, table)
    with pytest.raises(ValueError):
        residual(3, 0, table)


def test_gcd_of_first_two_numerators(table):
    g = poly_gcd(residual_numerator(3, 3, table), residual_numerator(3, 5, table))
    assert g == Poly((0, 3, -4, 1))


def test_table_refuses_beyond_max_index():
    small = SymbolicTable(max_index=16)
    small.value(16)
    with pytest.raises(ValueError):
        small.value(17)


def test_large_index_stays_small(table):
    v = table.value(1024)
    assert v.num.degree == 26
    assert v.den.degree == 16


def test_family_values_small_table():
    rows = {
        FamilyId.ZERO: [0, 0, 0, 0, 0, 0, 0],
        FamilyId.HALF: [Fraction(1, 2)] * 7,
        FamilyId.CEIL_HALF: [0, 1, 1, 2, 2, 3, 3],
        FamilyId.PERIOD3: [0, 1, 0, 0, 1, 0, 0],
        FamilyId.TRIANGULAR: [0, 1, 3, 6, 10, 15, 21],
    }
    for family, expected in rows.items():
        assert [family_value(family, n) for n in range(7)] == expected


def test_ceilhalf_equals_ceiling_of_half():
    for n in range(0, 40):
        assert family_value(FamilyId.CEIL_HALF, n) == -((-n) // 2)


def test_triangular_difference_is_index():
    # consecutive triangular numbers differ by the larger index
    for n in range(1, 30):
        t = family_value(FamilyId.TRIANGULAR, n)
        assert t - family_value(FamilyId.TRIANGULAR, n - 1) == n


def test_family_value_rejects_negative_index():
    with pytest.raises(ValueError):
        family_value(FamilyId.ZERO, -1)


def test_unknown_family_is_a_type_error():
    for bad in ("triangular", None, 3, ["zero"]):
        with pytest.raises(TypeError, match="unknown family"):
            family_value(bad, 4)
        with pytest.raises(TypeError, match="unknown family"):
            doubled_form(bad)
    # the index is checked first, as before
    with pytest.raises(ValueError):
        family_value("triangular", -1)


def _former_family_value(family, n):
    """The closed forms as `Fraction`s, written out family by family."""
    if family is FamilyId.ZERO:
        return Fraction(0)
    if family is FamilyId.HALF:
        return Fraction(1, 2)
    if family is FamilyId.CEIL_HALF:
        return Fraction((n + 1) // 2)
    if family is FamilyId.PERIOD3:
        return Fraction(1 if n % 3 == 1 else 0)
    return Fraction(n * (n + 1), 2)


@pytest.mark.parametrize("family", list(FamilyId))
def test_doubled_form_is_twice_the_family_value(family):
    u = doubled_form(family)
    for n in range(500):
        assert type(u(n)) is int
        assert u(n) == 2 * _former_family_value(family, n)
        assert family_value(family, n) == _former_family_value(family, n)


def test_specializing_c_reproduces_each_resolved_family(table):
    targets = {
        Fraction(0): FamilyId.PERIOD3,
        Fraction(1): FamilyId.CEIL_HALF,
        Fraction(3): FamilyId.TRIANGULAR,
    }
    for c0, family in targets.items():
        for n in range(0, 64):
            assert table.value(n)(c0) == family_value(family, n)


def test_bivariate_parity_with_symbolic(table):
    biv = BivariateTable()
    for n in range(4, 64):
        assert biv.value(n).substitute(D) - table.value(n) == RatFunc(0)


def test_table_fills_far_beyond_the_default_range():
    big = SymbolicTable(max_index=1 << 16)
    for c0, family in ((0, FamilyId.PERIOD3), (1, FamilyId.CEIL_HALF), (3, FamilyId.TRIANGULAR)):
        assert big.value(65535)(c0) == family_value(family, 65535)


# ---------------------------------------------------------------------------
# differential tests against the plain RatFunc recursion


class _RatFuncReference:
    """The halving recursion over canonical `RatFunc` values, one gcd per step.

    Slow but obviously correct; entries are memoized across hypothesis
    examples so sparse samples up to 1024 stay cheap.
    """

    def __init__(self):
        c = RatFunc(C_POLY)
        d = RatFunc(D_NUMER, D_DENOM)
        self.c, self.d_minus_c = c, d - c
        self.memo = {0: RatFunc(0), 1: RatFunc(1), 2: c, 3: d}

    def __call__(self, n):
        if n not in self.memo:
            k = (n + 1) // 2
            if n % 2 == 0:
                self.memo[n] = self.c * self(k) + self(k - 1)
            else:
                self.memo[n] = self(k) + self.d_minus_c * self(k - 1)
        return self.memo[n]

    def residual(self, m, n):
        return self(m * n) - self(m) * self(n) - self(m - 1) * self(n - 1)


REFERENCE = _RatFuncReference()


def _assert_same_and_power_of_d(got, want):
    assert got.num.coeffs == want.num.coeffs
    assert got.den.coeffs == want.den.coeffs
    assert got.den == D_DENOM ** (got.den.degree // 2)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 1024))
@example(n=1024)
@example(n=1023)
def test_table_matches_ratfunc_reference(table, n):
    _assert_same_and_power_of_d(table.value(n), REFERENCE(n))


@st.composite
def _probe_pairs(draw):
    m = draw(st.integers(2, 16))
    return m, draw(st.integers(m, 256 // m))


@settings(max_examples=40, deadline=None)
@given(pair=_probe_pairs())
@example(pair=(16, 16))
@example(pair=(3, 85))
@example(pair=(13, 15))  # the first nonzero residual whose sum sheds a factor of D
def test_residual_matches_ratfunc_reference(table, pair):
    m, n = pair
    want = REFERENCE.residual(m, n)
    _assert_same_and_power_of_d(residual(m, n, table), want)
    assert residual_numerator(m, n, table) == want.num


# ---------------------------------------------------------------------------
# evaluation at a rational point against value(n)(c0) and Poly evaluation

points = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 256), c0=points)
@example(n=256, c0=Fraction(0))
@example(n=256, c0=Fraction(1))
@example(n=256, c0=Fraction(3))
@example(n=255, c0=Fraction(-50, 11))
def test_value_at_matches_value_then_evaluate(table, n, c0):
    got = table.value_at(n, c0)
    assert type(got) is Fraction
    assert got == table.value(n)(c0)


@settings(max_examples=100, deadline=None)
@given(pair=_probe_pairs(), c0=points)
@example(pair=(2, 2), c0=Fraction(5))  # identically zero residual
@example(pair=(13, 15), c0=Fraction(-7, 5))
def test_residual_numerator_at_matches_poly_evaluation(table, pair, c0):
    m, n = pair
    got = residual_numerator_at(m, n, c0, table)
    assert type(got) is Fraction
    assert got == residual_numerator(m, n, table)(c0)


def test_value_at_accepts_ints_and_checks_the_range():
    small = SymbolicTable(8)
    assert small.value_at(8, 3) == 36
    with pytest.raises(ValueError):
        small.value_at(9, 3)
    with pytest.raises(ValueError):
        small.value_at(-1, 3)
