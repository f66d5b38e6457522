"""Symbolic engine tests: tables, the d formula, residuals, specializations.

The closed forms frozen below (T(9), the two constraint numerators, the
divisor structure of residual denominators) were derived by hand from the
halving identities and confirmed by independent evaluation at many points.
"""

import operator
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
import prodrule.seqengine as seqengine
from prodrule.classifier import ConstraintRecord, solve_c
from prodrule.exactalg import Poly, RatFunc, poly_gcd
from prodrule.seqengine import (
    C_POLY,
    D_DENOM,
    D_NUMER,
    DEFAULT_MAX_INDEX,
    FamilyId,
    SymbolicTable,
    derive_d,
    family_value,
    residual_numerator,
    walk_value,
)
from prodrule.veritool import crosscheck_specialization, scan_candidate

D = RatFunc(D_NUMER, D_DENOM)


def _residual(m, n, table):
    """T(mn) - T(m)T(n) - T(m-1)T(n-1) as the canonical `RatFunc` of the table's residual pair."""
    return seqengine._ratfunc(seqengine._residual_pair(m, n, table))


def _at(pair, c0):
    """P(c0)/D(c0)^e of one pair (P, e), by a `_basis` of its own, as the batch checks evaluate."""
    p, e = pair
    w, scales = seqengine._basis((p,), (e,), seqengine._point(c0))
    a, b = scales[e]
    return Fraction(sum(map(operator.mul, p, w)) * a, b)


# frozen: numerator of the (3, 3) residual, expanded
N33 = Poly((0, -3, 4, 2, 2, -1, -6, 2))
# frozen: numerator of the (3, 5) residual, expanded
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


def _all_int(polys):
    """True when every coefficient of every `Poly` in polys is an int."""
    return all(type(x) is int for p in polys for x in p.coeffs)


def test_free_d_entries_match_the_bivariate_reference():
    # the shared fill with the d-free steps, from the top down so that 64 fills its whole chain first
    biv = ref.BivariateTable()
    entries = dict(seqengine._FREE_SEEDS)
    for n in range(64, 3, -1):
        seqengine._halve(entries, n, seqengine._FREE_STEPS)
    assert sorted(entries) == list(range(65))
    for n, entry in entries.items():
        assert entry == biv.value(n).coeffs, n
        assert _all_int(entry), n


def test_no_entry_sheds_a_factor_of_d():
    # the module docstring's proof: D never divides an entry's P, so only residuals strip
    for n in range(DEFAULT_MAX_INDEX + 1):
        assert seqengine._strip_d(*seqengine._fill(n)) == seqengine._fill(n), n


def test_t18_relation_matches_the_reference():
    lin, const = ref.t18_relation()
    diff = seqengine._t18_difference()
    assert diff == (const, lin)
    assert _all_int(diff)
    assert (lin, const) == (D_DENOM, -D_NUMER)


def test_derive_d_matches_the_reference_derivation():
    want = ref.derive_d()
    got = derive_d()
    assert got == want
    assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs)
    assert str(got) == str(want)


def test_derive_d_is_computed_once():
    assert derive_d() is derive_d()


_REAL_T18_DIFFERENCE = seqengine._t18_difference


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("_t18_difference", lambda: _REAL_T18_DIFFERENCE() + (Poly((1,)),), "not linear in d"),
        ("D_DENOM", Poly((-1, 2, 2)), "d coefficient is not"),
        ("_POLE_WITNESS", ((38, 17), (28, 18, 48)), "pole identity fails"),
    ],
    ids=["quadratic in d", "wrong D", "corrupted witness"],
)
def test_derive_d_raises_when_its_internal_checks_fail(monkeypatch, name, value, message):
    # the uncached body, so the process-wide d stays as derived
    monkeypatch.setattr(seqengine, name, value)
    with pytest.raises(AssertionError, match=message):
        derive_d.__wrapped__()


def test_pole_identity():
    # (16c + 38)(3c^3 + c) - (48c^2 + 18c + 28)(c^2 + 2c - 1) = 28
    s, t = seqengine._POLE_WITNESS
    assert Poly(s) * D_NUMER - Poly(t) * D_DENOM == Poly((28,))
    assert (s, t) == ((38, 16), (28, 18, 48))


def test_d_values_at_key_points():
    assert D(3) == 6
    assert D(1) == 2
    assert D(0) == 0
    assert D(Fraction(1, 2)) == Fraction(7, 2)


def test_bivariate_table_matches_symbolic_after_substitution(table):
    biv = ref.BivariateTable()
    for n in (5, 6, 8):
        assert biv.value(n).substitute(D) - table.value(n) == RatFunc(0)


def test_bivariate_t5_closed_form():
    # T(5) = T(3) + (d - c) T(2) = cd - c^2 + d
    t5 = ref.BivariateTable().value(5)
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
    assert _residual(3, 5, table).den == D_DENOM**3


def test_residuals_with_a_factor_of_two_vanish(table):
    for n in range(2, 12):
        assert _residual(2, n, table).is_zero
        assert _residual(n, 2, table).is_zero


def test_residual_is_symmetric(table):
    assert _residual(3, 5, table) == _residual(5, 3, table)
    assert _residual(3, 7, table) == _residual(7, 3, table)


def test_residual_rejects_small_indices(table):
    with pytest.raises(ValueError):
        _residual(1, 5, table)
    with pytest.raises(ValueError):
        _residual(3, 0, table)


def test_gcd_of_first_two_numerators(table):
    g = poly_gcd(residual_numerator(3, 3, table), residual_numerator(3, 5, table))
    assert g == Poly((0, 3, -4, 1))


def test_table_refuses_beyond_max_index():
    small = SymbolicTable(max_index=16)
    small.value(16)
    with pytest.raises(ValueError):
        small.value(17)
    with pytest.raises(ValueError, match="at least 3"):
        SymbolicTable(2)


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


@pytest.mark.parametrize("period", [1, 2, 3, 5])
def test_piece_values_match_the_point_evaluator(period):
    pieces = tuple((r - 2, 3 - r, r % 2) for r in range(period))
    for top in (0, 1, period, 3 * period + 1, 100):
        for step in (1, 2, 6, 7):
            want = [seqengine._piece_value(pieces, x * step) for x in range(top + 1)]
            assert seqengine._piece_values(pieces, top, step) == want, (top, step)


def test_family_value_rejects_negative_index():
    with pytest.raises(ValueError):
        family_value(FamilyId.ZERO, -1)


def test_unknown_family_is_a_type_error():
    for bad in ("triangular", None, 3, ["zero"]):
        with pytest.raises(TypeError, match="unknown family"):
            family_value(bad, 4)
        with pytest.raises(TypeError, match="unknown family"):
            ref.doubled_form(bad)
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
    u = ref.doubled_form(family)
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
    biv = ref.BivariateTable()
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
    _assert_same_and_power_of_d(_residual(m, n, table), want)
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
    # an entry at c0 by its own `_basis`, against the `Fraction` path
    got = _at(seqengine._fill(n), c0)
    assert type(got) is Fraction
    assert got == table.value(n)(c0)


@settings(max_examples=100, deadline=None)
@given(pair=_probe_pairs(), c0=points)
@example(pair=(2, 2), c0=Fraction(5))  # identically zero residual
@example(pair=(13, 15), c0=Fraction(-7, 5))
def test_residual_numerator_at_matches_poly_evaluation(table, pair, c0):
    # the residual numerator at c0 by its own `_basis`, as the scan evaluates it
    m, n = pair
    got = _at((seqengine._residual_pair(m, n, table)[0], 0), c0)
    assert type(got) is Fraction
    assert got == residual_numerator(m, n, table)(c0)


@settings(max_examples=200, deadline=None)
@given(p=st.lists(st.integers(-20, 20), max_size=7).map(tuple), e=st.integers(0, 4), c0=points,
       slack=st.integers(0, 3))
@example(p=(1,), e=1, c0=Fraction(1, 2), slack=0)        # 1/D: deg P < 2e, so a takes den^shift
@example(p=(3, 0, -1), e=3, c0=Fraction(-7, 5), slack=2)  # D(c0) < 0
@example(p=(), e=2, c0=Fraction(5, 3), slack=0)
@example(p=(1, 0, 5), e=2, c0=Fraction(3, 4), slack=3)   # deg P < 2e < k: den moves to b
def test_the_point_evaluator_matches_poly_evaluation_on_any_pair(p, e, c0, slack):
    # table entries all have deg P >= 2e for n >= 1; any pair P/D^e must evaluate too,
    # through a basis of its own degree and, batched with c^k, one of degree k > deg P
    want = Poly(p)(c0) / D_DENOM(c0) ** e
    assert Fraction(*ref._ints_at((p, e), *seqengine._point(c0))) == want
    got = _at((p, e), c0)
    assert type(got) is Fraction and got == want
    k = max(len(p) - 1, 0) + slack
    w, scales = seqengine._basis([p, (0,) * k + (1,)], [e, 0], seqengine._point(c0))
    assert len(w) == k + 1 and len(scales) == e + 1
    a, b = scales[e]
    assert type(a) is type(b) is int and b != 0
    assert Fraction(sum(map(operator.mul, p, w)) * a, b) == want


@pytest.mark.parametrize("c0", [Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2),
                                Fraction(-7, 5), Fraction(-50, 11)])
def test_the_walk_matches_value_at_up_to_1024(table, c0):
    assert [walk_value(n, c0) for n in range(1025)] == [table.value(n)(c0) for n in range(1025)]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1025, 1 << 64), c0=points)
@example(n=(1 << 64) - 1, c0=Fraction(3))
@example(n=1 << 64, c0=Fraction(-7, 5))   # D(c0) < 0, all steps even
@example(n=3**40, c0=Fraction(0))          # D(0) = -1
def test_the_walk_matches_value_at_at_deep_indices(n, c0):
    got = walk_value(n, c0)
    assert type(got) is Fraction
    assert got == SymbolicTable(n).value(n)(c0)


@pytest.mark.parametrize("n, degree, e, bits", [(1024, 26, 8, 18), ((1 << 64) + 3, 188, 62, 162)])
def test_entry_sizes_are_logarithmic_in_n(n, degree, e, bits):
    # the module docstring's bound: deg P <= 3 log2 n, e <= log2 n, about 2.5 log2 n bits;
    # a private memo, so no other test meets the indices this fill stores
    with mock.patch.object(seqengine, "_ENTRIES", _cold_entries()):
        p, got_e = seqengine._fill(n)
    assert (len(p) - 1, got_e, max(abs(a).bit_length() for a in p)) == (degree, e, bits)
    log2 = n.bit_length() - 1
    assert degree <= 3 * log2 and e <= log2


def test_the_walk_refuses_ints_past_its_bound():
    # c0 = -7/5: den = 5 and s = den^3 D(c0) = -230, so den s^k has at most 3 + 8k bits
    assert seqengine.WALK_MAX_BITS == 1 << 16
    assert walk_value((1 << 8192) - 1, Fraction(-7, 5)).denominator.bit_length() <= 1 << 16
    with pytest.raises(ValueError, match="more than 65536 bits"):
        walk_value(1 << 8192, Fraction(-7, 5))
    with pytest.raises(ValueError):
        walk_value(-1, 3)


def test_value_at_accepts_ints_and_checks_the_range():
    small = SymbolicTable(8)
    assert small.value(8)(3) == 36
    with pytest.raises(ValueError):
        small.value(9)
    with pytest.raises(ValueError):
        small.value(-1)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda t: t.value(4.5), id="t.value(4.5)"),
        pytest.param(lambda t: t.value(16.5), id="t.value(16.5)"),
        pytest.param(lambda t: t.value(6.5)(3), id="t.value(6.5)(3)"),
        pytest.param(lambda t: residual_numerator(3, 5.5, t), id="residual_numerator(3, 5.5, t)"),
        pytest.param(lambda t: _residual(4.5, 3, t), id="_residual(4.5, 3, t)"),
        pytest.param(lambda t: residual_numerator(3, 7.5, t)(2), id="residual_numerator(3, 7.5, t)(2)"),
        pytest.param(lambda t: t.value(5)(0.5), id="t.value(5)(0.5)"),
        # an entry at a float point by the integer evaluator the batch checks use, the path
        # of the retired SymbolicTable.value_at; its id keeps that name
        pytest.param(lambda t: _at(seqengine._fill(5), 0.5), id="t.value_at(5, 0.5)"),
        pytest.param(lambda t: residual_numerator(3, 5, t)(0.5), id="residual_numerator(3, 5, t)(0.5)"),
        pytest.param(lambda t: SymbolicTable(1e3), id="SymbolicTable(1e3)"),
        pytest.param(lambda t: walk_value(6.5, 3), id="walk_value(6.5, 3)"),
        pytest.param(lambda t: walk_value(5, 0.5), id="walk_value(5, 0.5)"),
        # integral floats, each asked for after its int twin is memoized
        pytest.param(lambda t: (t.value(40), t.value(40.0)), id="t.value(40.0)"),
        pytest.param(lambda t: (residual_numerator(3, 5, t), residual_numerator(3, 5.0, t)),
                     id="residual_numerator(3, 5.0, t)"),
        pytest.param(lambda t: (ConstraintRecord.probe(3, 5, t), ConstraintRecord.probe(3, 5.0, t)),
                     id="ConstraintRecord.probe(3, 5.0, t)"),
    ],
)
def test_float_indices_and_points_raise_and_leave_the_memos_int(call):
    # a float index is refused before any memo is read, whatever is filled
    table = SymbolicTable()
    with pytest.raises(TypeError):
        call(table)
    assert all(type(n) is int for n in seqengine._ENTRIES)
    assert all(type(m) is int and type(n) is int for m, n in table._residuals)


# ---------------------------------------------------------------------------
# the per-table residual memo

@settings(max_examples=40, deadline=None)
@given(pair=_probe_pairs(), c0=points)
@example(pair=(13, 15), c0=Fraction(3))
def test_residuals_on_a_warmed_table_equal_a_fresh_table(table, pair, c0):
    m, n = pair
    warm = residual_numerator(m, n, table)
    assert residual_numerator(m, n, table) == warm   # now read from the memo
    fresh = SymbolicTable()
    assert warm == residual_numerator(m, n, fresh)
    assert _residual(m, n, table) == _residual(m, n, SymbolicTable())
    assert residual_numerator(m, n, table)(c0) == residual_numerator(m, n, SymbolicTable())(c0)


def test_residual_memo_holds_one_pair_per_probe():
    table = SymbolicTable()
    for _ in range(2):
        residual_numerator(3, 5, table)
        _residual(3, 5, table)
        residual_numerator(3, 5, table)(Fraction(2))
    residual_numerator(5, 3, table)
    assert sorted(table._residuals) == [(3, 5), (5, 3)]
    small = SymbolicTable(8)
    with pytest.raises(ValueError):
        residual_numerator(3, 3, small)
    assert small._residuals == {}


# ---------------------------------------------------------------------------
# the entry memo shared by every table


def _cold_entries():
    """The entry memo as a fresh process starts it: T(0..3) only."""
    return {n: seqengine._ENTRIES[n] for n in range(4)}


_REACHES = (3, 16, 100, 1024, 1 << 40)


@settings(max_examples=30, deadline=None)
@given(requests=st.lists(st.tuples(st.integers(0, 1024), st.sampled_from(_REACHES)), min_size=1, max_size=30))
@example(requests=[(17, 16), (1024, 1024), (1023, 3), (512, 1 << 40), (4, 3), (5, 16)])
def test_shared_memo_matches_the_reference_in_any_order(requests):
    tables = {reach: SymbolicTable(reach) for reach in _REACHES}
    with mock.patch.object(seqengine, "_ENTRIES", _cold_entries()) as entries:
        for n, reach in requests:
            if n > reach:
                before = dict(entries)
                with pytest.raises(ValueError):
                    tables[reach].value(n)
                assert entries == before
            else:
                _assert_same_and_power_of_d(tables[reach].value(n), REFERENCE(n))
        # every entry the recursion touched on the way, not only those asked for
        for n, pair in entries.items():
            _assert_same_and_power_of_d(seqengine._ratfunc(pair), REFERENCE(n))


def test_a_refused_index_is_never_stored():
    # a private memo, so no fill by an earlier test can put huge there
    huge = (1 << 40) + 1
    with mock.patch.object(seqengine, "_ENTRIES", _cold_entries()):
        with pytest.raises(ValueError):
            SymbolicTable(1 << 40).value(huge)
        assert huge not in seqengine._ENTRIES
    with mock.patch.object(seqengine, "_ENTRIES", _cold_entries()) as entries:
        with pytest.raises(ValueError):
            SymbolicTable(16).value(17)
        assert entries == _cold_entries()


def test_a_refused_crosscheck_fills_nothing():
    with mock.patch.object(seqengine, "_ENTRIES", _cold_entries()) as entries:
        with pytest.raises(ValueError) as refused:
            crosscheck_specialization(3, FamilyId.TRIANGULAR, 40, SymbolicTable(16))
        assert entries == _cold_entries()
        # a float c0 is refused first, whatever the bound
        with pytest.raises(TypeError):
            crosscheck_specialization(3.0, FamilyId.TRIANGULAR, 40, SymbolicTable(16))
        assert entries == _cold_entries()
        # the former crosscheck filled up to the reach before it refused the first index past it;
        # the check names max_n, the index the caller asked for
        with pytest.raises(ValueError) as former:
            ref.crosscheck_specialization(3, FamilyId.TRIANGULAR, 40, SymbolicTable(16))
        assert sorted(entries) == list(range(17))
    assert str(former.value).startswith("index 17 exceeds the supported range 16;")
    assert str(refused.value) == str(former.value).replace("index 17", "index 40")


def test_a_refused_probe_fills_nothing():
    # mn is the largest index an instance needs, so it is refused before T(m), T(n), ... fill
    with mock.patch.object(seqengine, "_ENTRIES", _cold_entries()) as entries:
        small = SymbolicTable(100)
        with pytest.raises(ValueError, match="^index 143 exceeds the supported range 100;"):
            residual_numerator(11, 13, small)
        assert entries == _cold_entries() and small._residuals == {}
        # solve_c checks the reach of every probe before its first record
        with pytest.raises(ValueError, match="^index 63 exceeds the supported range 40;"):
            solve_c([(3, 3), (7, 9)], SymbolicTable(40))
        assert entries == _cold_entries()


def test_a_refused_scan_lists_and_fills_nothing():
    # the first probe past the reach 1024 in scan order is (3, 342): one pass over m finds it,
    # before the ~P ln P probes are listed or any residual is filled
    table = SymbolicTable(1024)
    with mock.patch.object(seqengine, "_ENTRIES", _cold_entries()) as entries:
        scan_candidate(Fraction(2), 61, table)
        before, residuals = dict(entries), dict(table._residuals)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(ValueError, match="^index 1026 exceeds the supported range 1024;"):
                scan_candidate(Fraction(2), 10**9, table)
            elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entries == before
    assert table._residuals == residuals
    assert elapsed < 1 and peak < 1 << 16


@settings(max_examples=60, deadline=None)
@given(reach=st.integers(3, 80), max_prod=st.integers(0, 300), c0=points)
@example(reach=3, max_prod=9, c0=Fraction(2))      # the very first probe (3, 3) is past the reach
@example(reach=16, max_prod=17, c0=Fraction(2))    # P past the reach, but every probe within it
@example(reach=10, max_prod=12, c0=Fraction(-7, 5))
def test_a_scan_refuses_where_the_reference_scan_does(reach, max_prod, c0):
    def outcome(scan):
        try:
            return scan(c0, max_prod, SymbolicTable(reach))
        except ValueError as exc:
            return str(exc)

    assert outcome(scan_candidate) == outcome(ref.scan_candidate)


def test_a_crosscheck_without_a_table_keeps_the_default_reach():
    # the table it makes is a default one: 20,000 is refused before any fill
    before = dict(seqengine._ENTRIES)
    with pytest.raises(ValueError, match=f"supported range {DEFAULT_MAX_INDEX}"):
        crosscheck_specialization(3, FamilyId.TRIANGULAR, 20_000)
    assert seqengine._ENTRIES == before


def test_threads_with_their_own_tables_fill_one_memo_consistently(monkeypatch):
    pool_of_indices = random.Random(9).sample(range(4, 1025), 64)
    # each thread asks for 48 of the 64, in its own order, so the sets overlap
    requests = [random.Random(worker).sample(pool_of_indices, 48) for worker in range(4)]
    start = threading.Barrier(4, timeout=30)

    def fill(indices):
        table = SymbolicTable()
        start.wait()
        return {n: table.value(n) for n in indices}

    monkeypatch.setattr(seqengine, "_ENTRIES", _cold_entries())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(fill, requests))
    finally:
        sys.setswitchinterval(interval)
    for values in results:
        for n, value in values.items():
            _assert_same_and_power_of_d(value, REFERENCE(n))
    raced = seqengine._ENTRIES
    # the raced memo holds exactly what one thread filling alone would store
    monkeypatch.setattr(seqengine, "_ENTRIES", _cold_entries())
    serial = SymbolicTable()
    for indices in requests:
        for n in indices:
            serial.value(n)
    assert raced == seqengine._ENTRIES


_MEMO_SIZE = """
import tracemalloc
from prodrule import seqengine
tracemalloc.start()
table = seqengine.SymbolicTable(1024)
for n in range(1025):
    table.value(n)
print(len(seqengine._ENTRIES), tracemalloc.get_traced_memory()[0])
"""


def test_a_full_memo_to_1024_takes_under_one_mib():
    # a fresh interpreter: the tests in this process have warmed the memo;
    # the traced size counts the memo plus the few powers of D it needed
    src = Path(seqengine.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", _MEMO_SIZE], env=env, capture_output=True, text=True, check=True
    ).stdout
    entries, size = map(int, out.split())
    assert entries == 1025
    assert size < 1 << 20


# ---------------------------------------------------------------------------
# deep indices: the halving chain and the powers of D fill without recursion

_DEEP = """
import sys
from prodrule.seqengine import SymbolicTable
n = 2**150
table = SymbolicTable(n)
sys.setrecursionlimit(60)
assert table.value(n)(3) == n * (n + 1) // 2
print("ok")
"""


def test_a_deep_index_fills_under_a_tiny_recursion_limit():
    # a fresh interpreter, so the memo is cold and the whole chain of 150
    # levels, and D^148, fill from the seeds
    src = Path(seqengine.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", _DEEP], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "ok\n"


def test_sparse_deep_fills_in_random_order_match_the_reference():
    indices = random.Random(11).sample(range(4, 1 << 16), 20)
    table = SymbolicTable(1 << 16)
    with mock.patch.object(seqengine, "_ENTRIES", _cold_entries()) as entries:
        for n in indices:
            _assert_same_and_power_of_d(table.value(n), REFERENCE(n))
        for n, pair in entries.items():
            _assert_same_and_power_of_d(seqengine._ratfunc(pair), REFERENCE(n))
    for e in range(max(e for _, e in entries.values()) + 1):
        power = seqengine._d_power(e)
        assert type(power) is tuple and all(type(a) is int for a in power)
        assert Poly(power) == D_DENOM**e


# ---------------------------------------------------------------------------
# the packed residual against the schoolbook sum it replaced (kernel_reference)

def test_packed_residual_matches_the_schoolbook_sum_on_every_probe():
    live = 0
    for m in range(2, 33):
        for n in range(m, 1024 // m + 1):
            got = seqengine._residual_sum(m, n)
            assert got == ref.residual_sum(m, n), (m, n)
            live += bool(got[0])
    assert live == 1630


@pytest.mark.parametrize("m, n", [(3, 10**20), (10**10, 10**10), ((1 << 32) + 1, (1 << 32) + 3)])
def test_packed_residual_matches_the_schoolbook_sum_at_deep_pairs(m, n):
    assert seqengine._residual_sum(m, n) == ref.residual_sum(m, n)


@st.composite
def _slot_filling_polys(draw):
    """A tuple with no trailing zero whose largest coefficient, in absolute value, may be 2^(B-1) - 1."""
    width = draw(st.integers(1, 80))
    top = (1 << (width - 1)) - 1
    coeff = st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 0]))
    p = draw(st.lists(coeff, max_size=8))
    while p and not p[-1]:
        p.pop()
    return tuple(p)


@settings(max_examples=300, deadline=None)
@given(p=_slot_filling_polys())
@example(p=())
@example(p=(5, -3))                          # a negative leading coefficient
@example(p=((1 << 63) - 1, -((1 << 63) - 1)))
@example(p=(0, 0, -((1 << 40) - 1)))
@example(p=(-1, 1, -1, 1))
def test_pack_and_unpack_round_trip_at_the_tight_slot_width(p):
    bits = seqengine._slot_bits(max(map(abs, p), default=0))
    packed = seqengine._pack(p, bits)
    assert packed == sum(a << (bits * i) for i, a in enumerate(p))   # P(2^bits)
    assert seqengine._unpack(packed, bits) == p
