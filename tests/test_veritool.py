"""Verifier tests: grid checks, specializations, candidate scanning."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prodrule.veritool as veritool
from prodrule.seqengine import FamilyId, doubled_form, family_value, residual_numerator
from prodrule.veritool import (
    CheckFailure,
    VerifyReport,
    crosscheck_specialization,
    scan_candidate,
    verify_family,
)


@pytest.mark.parametrize("family", list(FamilyId))
def test_every_family_passes_a_small_grid(family):
    report = verify_family(family, 40)
    assert report.ok
    assert report.failures == []
    assert report.checked == 40 * 40
    assert report.subject == f"family:{family.value}"
    assert report.range == 40


def test_verify_family_checked_counts():
    assert verify_family(FamilyId.ZERO, 7).checked == 49
    assert verify_family(FamilyId.ZERO, 1).checked == 1


def test_a_corrupted_sequence_fails():
    # ceiling-of-half values paired against the triangular rule must break
    report = VerifyReport(
        subject="manual",
        range=0,
        checked=0,
        failures=[CheckFailure(3, 3, Fraction(5), Fraction(7))],
    )
    assert not report.ok


def _corrupted(family, k, bad_u):
    """The family's closed form u = 2T with u(k) replaced by bad_u."""
    u = doubled_form(family)
    return lambda n: bad_u if n == k else u(n)


def _reference_verify(family, max_mn, u):
    """The former verifier: a table of N^2 + 1 `Fraction`s, then the grid."""
    values = [Fraction(u(k), 2) for k in range(max_mn * max_mn + 1)]
    doubled = []
    for v in values:
        w = 2 * v
        if w.denominator != 1:
            raise AssertionError(f"family value {v} is not a half-integer")
        doubled.append(w.numerator)
    failures = []
    for m in range(1, max_mn + 1):
        um, um1 = doubled[m], doubled[m - 1]
        mn = 0
        for n in range(1, max_mn + 1):
            mn += m
            if 2 * doubled[mn] != um * doubled[n] + um1 * doubled[n - 1]:
                rhs = values[m] * values[n] + values[m - 1] * values[n - 1]
                failures.append(CheckFailure(m, n, values[mn], rhs))
    return VerifyReport(
        subject=f"family:{family.value}",
        range=max_mn,
        checked=max_mn * max_mn,
        failures=failures,
    )


@pytest.mark.parametrize(
    "family, k, bad_u",
    [
        (FamilyId.TRIANGULAR, 17, 17 * 18 + 1),   # a prime index, half-integer T
        (FamilyId.TRIANGULAR, 12, 0),             # a composite index
        (FamilyId.CEIL_HALF, 6, 7),
        (FamilyId.PERIOD3, 0, 2),                 # T(0) itself
        (FamilyId.ZERO, 25, -4),
        (FamilyId.HALF, 1, 3),
    ],
)
def test_a_corrupted_family_fails_exactly_where_the_rule_breaks(
    monkeypatch, family, k, bad_u
):
    grid = 30
    u = _corrupted(family, k, bad_u)
    monkeypatch.setattr(veritool, "doubled_form", lambda fam: u)
    report = verify_family(family, grid)

    def t(n):
        return Fraction(u(n), 2)

    expected = []
    for m in range(1, grid + 1):
        for n in range(1, grid + 1):
            if k not in (m * n, m, m - 1, n, n - 1):
                continue
            lhs, rhs = t(m * n), t(m) * t(n) + t(m - 1) * t(n - 1)
            if lhs != rhs:
                expected.append(CheckFailure(m, n, lhs, rhs))
    assert expected
    assert report.failures == expected
    assert not report.ok
    assert report.checked == grid * grid


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(list(FamilyId)),
    max_mn=st.integers(1, 40),
    data=st.data(),
)
def test_streaming_verify_matches_the_fraction_table(family, max_mn, data):
    k = data.draw(st.integers(0, max_mn * max_mn), label="k")
    bad_u = data.draw(st.integers(-10**6, 10**6), label="bad_u")
    u = _corrupted(family, k, bad_u)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(veritool, "doubled_form", lambda fam: u)
        report = verify_family(family, max_mn)
    want = _reference_verify(family, max_mn, u)
    assert report.to_dict() == want.to_dict()
    assert report.failures == want.failures


# 360,001 `Fraction`s alone take about 30 MiB under tracemalloc; the
# streaming grid at N = 600 peaks near 0.1 MiB
GRID_600_PEAK_BOUND = 512 * 1024


def test_grid_memory_is_linear_in_n():
    tracemalloc.start()
    try:
        report = verify_family(FamilyId.TRIANGULAR, 600)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.checked == 360_000
    assert peak < GRID_600_PEAK_BOUND


def test_crosscheck_specialization_at_resolved_points(table):
    targets = [
        (Fraction(0), FamilyId.PERIOD3),
        (Fraction(1), FamilyId.CEIL_HALF),
        (Fraction(3), FamilyId.TRIANGULAR),
    ]
    for c0, family in targets:
        report = crosscheck_specialization(c0, family, 48, table)
        assert report.ok
        assert report.checked == 49
        assert report.subject == f"c={c0}->{family.value}"


def test_crosscheck_wrong_pairing_fails(table):
    report = crosscheck_specialization(Fraction(3), FamilyId.CEIL_HALF, 16, table)
    assert not report.ok
    assert report.failures
    first = report.failures[0]
    assert first.lhs != first.rhs


def test_crosscheck_rejects_negative_range(table):
    with pytest.raises(ValueError):
        crosscheck_specialization(Fraction(3), FamilyId.TRIANGULAR, -1, table)


def test_verify_family_rejects_empty_grid():
    with pytest.raises(ValueError):
        verify_family(FamilyId.ZERO, 0)


def test_scan_candidate_flags_c_equals_two(table):
    hits = scan_candidate(Fraction(2), 15, table)
    assert (3, 3, Fraction(-102)) in hits
    assert all(value != 0 for _, _, value in hits)


def test_scan_candidate_clears_resolved_values(table):
    for c0 in (Fraction(0), Fraction(1), Fraction(3)):
        assert scan_candidate(c0, 30, table) == []


def test_scan_candidate_orders_pairs(table):
    hits = scan_candidate(Fraction(2), 35, table)
    pairs = [(m, n) for m, n, _ in hits]
    assert pairs == sorted(pairs)
    assert all(3 <= m <= n and m * n <= 35 for m, n in pairs)


def test_verify_report_to_dict():
    doc = verify_family(FamilyId.HALF, 5).to_dict()
    assert doc == {
        "subject": "family:half",
        "range": 5,
        "checked": 25,
        "failures": [],
    }


def test_failure_serialization():
    report = VerifyReport(
        subject="manual",
        range=3,
        checked=9,
        failures=[CheckFailure(2, 3, Fraction(1, 2), Fraction(3, 4))],
    )
    doc = report.to_dict()
    assert doc["failures"] == [
        {"m": 2, "n": 3, "lhs": "1/2", "rhs": "3/4"},
    ]


# ---------------------------------------------------------------------------
# specialization checks against evaluation of the symbolic values


def _reference_scan(c0, max_prod, table):
    """The scan as it was: each canonical residual numerator evaluated as a Poly."""
    hits = []
    for m in range(3, max_prod + 1):
        for n in range(m, max_prod // m + 1):
            value = residual_numerator(m, n, table)(c0)
            if value != 0:
                hits.append((m, n, value))
    return hits


def _reference_crosscheck(c0, family, max_n, table):
    """The crosscheck failures as they were: T(n) as a RatFunc, evaluated at c0."""
    return [
        CheckFailure(n, n, table.value(n)(c0), family_value(family, n))
        for n in range(max_n + 1)
        if table.value(n)(c0) != family_value(family, n)
    ]


@settings(max_examples=40, deadline=None)
@given(c0=st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)), max_prod=st.integers(9, 61))
@example(c0=Fraction(2), max_prod=61)
@example(c0=Fraction(3), max_prod=61)
@example(c0=Fraction(-7, 5), max_prod=61)
def test_scan_matches_poly_evaluation(table, c0, max_prod):
    hits = scan_candidate(c0, max_prod, table)
    assert hits == _reference_scan(c0, max_prod, table)
    assert all(type(value) is Fraction for _, _, value in hits)


@pytest.mark.parametrize(
    "c0, family",
    [
        (Fraction(3), FamilyId.CEIL_HALF),
        (Fraction(2), FamilyId.TRIANGULAR),
        (Fraction(1, 2), FamilyId.HALF),
        (Fraction(0), FamilyId.ZERO),
    ],
)
def test_wrong_pairing_failures_match_ratfunc_evaluation(table, c0, family):
    report = crosscheck_specialization(c0, family, 64, table)
    want = _reference_crosscheck(c0, family, 64, table)
    assert want
    assert report.failures == want
    assert report.checked == 65
    assert all(type(f.lhs) is type(f.rhs) is Fraction for f in report.failures)
