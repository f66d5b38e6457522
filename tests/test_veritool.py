"""Verifier tests: grid checks, specializations, candidate scanning."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
import prodrule.seqengine as seqengine
import prodrule.veritool as veritool
from prodrule.seqengine import FamilyId, SymbolicTable, family_value, residual_numerator
from prodrule.veritool import (
    CheckFailure,
    VerifyReport,
    crosscheck_specialization,
    scan_candidate,
    verify_family,
    verify_pieces,
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
    u = ref.doubled_form(family)
    return lambda n: bad_u if n == k else u(n)


def _reference_verify(max_mn, u):
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
        subject="pieces",
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
def test_a_corrupted_family_fails_exactly_where_the_rule_breaks(family, k, bad_u):
    grid = 30
    u = _corrupted(family, k, bad_u)
    report = verify_pieces(ref.constant_pieces(u, grid * grid), grid, "pieces")

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


@pytest.mark.parametrize(
    "family, r, piece",
    [
        pytest.param(FamilyId.CEIL_HALF, 1, (3, 1, 0), id="ceilhalf-odd"),
        pytest.param(FamilyId.PERIOD3, 1, (4, 0, 0), id="period3-one"),
        pytest.param(FamilyId.TRIANGULAR, 0, (0, 3, 1), id="triangular"),
    ],
)
def test_a_corrupted_piece_fails_past_the_deciding_rows(family, r, piece):
    # one piece changed within the family's own period M keeps M and delta, so rows
    # and columns past M (delta + 1) are checked only because the deciding square failed
    grid = 30
    pieces = list(seqengine.FAMILY_PIECES[family])
    pieces[r] = piece

    def u(n):
        c, b, a = pieces[n % len(pieces)]
        return c + b * n + a * n * n

    want = _reference_verify(grid, u)
    assert max(f.m for f in want.failures) > DECIDING_ROWS[family]
    assert max(f.n for f in want.failures) > DECIDING_ROWS[family]
    assert verify_pieces(tuple(pieces), grid, "pieces").failures == want.failures


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
    report = verify_pieces(ref.constant_pieces(u, max_mn * max_mn), max_mn, "pieces")
    want = _reference_verify(max_mn, u)
    assert report.to_dict() == want.to_dict()
    assert report.failures == want.failures


@st.composite
def _two_corruptions(draw):
    """A family, a grid bound N and two distinct indices k with bad u(k)."""
    family = draw(st.sampled_from(list(FamilyId)))
    max_mn = draw(st.integers(1, 40))
    index = st.one_of(
        st.just(0),
        st.integers(1, max_mn).map(lambda m: m * m),
        st.integers(0, max_mn),
        st.integers(0, max_mn * max_mn),
    )
    first = draw(index)
    second = draw(index.filter(lambda k: k != first))
    bad = st.integers(-10**6, 10**6)
    return family, max_mn, {first: draw(bad), second: draw(bad)}


@settings(max_examples=60, deadline=None)
@given(case=_two_corruptions())
@example(case=(FamilyId.TRIANGULAR, 12, {0: 5, 49: -3}))
@example(case=(FamilyId.CEIL_HALF, 9, {9: 0, 4: 7}))
@example(case=(FamilyId.PERIOD3, 1, {0: 2, 1: 0}))
def test_streaming_verify_matches_the_fraction_table_on_two_corruptions(case):
    family, max_mn, bad = case
    base = ref.doubled_form(family)

    def u(n):
        return bad.get(n, base(n))

    report = verify_pieces(ref.constant_pieces(u, max_mn * max_mn), max_mn, "pieces")
    want = _reference_verify(max_mn, u)
    assert report.to_dict() == want.to_dict()
    assert report.failures == want.failures


_coefficients = st.one_of(st.integers(-3, 3), st.integers(-10**6, 10**6), st.sampled_from([2**70, -2**70]))


@settings(max_examples=60, deadline=None)
@given(
    pieces=st.lists(st.tuples(_coefficients, _coefficients, _coefficients), min_size=1, max_size=5).map(tuple),
    max_mn=st.integers(1, 30),
)
@example(pieces=((2**70, -2**70, 2**70),), max_mn=30)
@example(pieces=((0, 1, 0), (1, 1, 0), (0, 0, 0)), max_mn=12)
@example(pieces=((0, 0, 0), (0, 1, 1)), max_mn=9)
# a class has fewer than delta + 1 rows, and every cell of them holds
@example(pieces=((0, 1, -1),), max_mn=1)
@example(pieces=((1, 0, 0), (1, 2, -2)), max_mn=2)
@example(pieces=((0, 0, 0), (0, 2, -2), (-2, -1, 1), (2, -1, 1)), max_mn=2)
# (1, 1) fails only through the m^2 term
@example(pieces=((0, 0, 1),), max_mn=1)
# M > N, so classes hold 0 or 1 rows; then M < N with classes of 1 and 2 rows
@example(pieces=((0, 1, 1), (0, 1, 0), (1, 1, 0), (0, 0, 0), (2, 0, 0)), max_mn=3)
@example(pieces=((0, 1, 0), (1, 1, 0), (1, 0, 0), (0, 1, 1)), max_mn=3)
@example(pieces=((0, 0, 0), (2, 0, 0), (0, 0, 0)), max_mn=5)
@example(pieces=((0, 1, 1), (1, 1, 0), (0, 1, 0)), max_mn=5)
# the first failing row lies past M delta: delta = 1 with row 2 failing, M = 2 with row 2 failing
@example(pieces=((0, 2, 0),), max_mn=2)
@example(pieces=((0, 2, 0),), max_mn=5)
@example(pieces=((0, 0, 0), (2, 0, 0)), max_mn=2)
@example(pieces=((0, 0, 0), (2, 0, 0)), max_mn=5)
def test_class_decision_matches_the_fraction_table_on_random_pieces(pieces, max_mn):
    def u(n):
        c, b, a = pieces[n % len(pieces)]
        return c + b * n + a * n * n

    report = verify_pieces(pieces, max_mn, "pieces")
    want = _reference_verify(max_mn, u)
    assert report.to_dict() == want.to_dict()
    assert report.failures == want.failures


def _int_verify(max_mn, pieces, subject="pieces"):
    """Every cell of the grid in ints, from the pieces themselves; `Fraction` sides only for a failure."""
    def value(k):
        c, b, a = pieces[k % len(pieces)]
        return c + b * k + a * k * k

    u = [value(k) for k in range(max_mn * max_mn + 1)]
    failures = []
    for m in range(1, max_mn + 1):
        for n in range(1, max_mn + 1):
            left, right = 2 * u[m * n], u[m] * u[n] + u[m - 1] * u[n - 1]
            if left != right:
                failures.append(CheckFailure(m, n, Fraction(left, 4), Fraction(right, 4)))
    return VerifyReport(subject=subject, range=max_mn, checked=max_mn * max_mn, failures=failures)


@pytest.mark.parametrize("family", list(FamilyId))
def test_verify_family_matches_the_integer_brute_force(family):
    # N = 120 leaves every class many rows beyond the deciding ones
    want = _int_verify(120, seqengine.FAMILY_PIECES[family], f"family:{family.value}")
    assert want.ok
    assert verify_family(family, 120).to_dict() == want.to_dict()


@st.composite
def _periodic_pieces(draw):
    """Pieces of period at most 6: a family's, repeated and maybe with one coefficient moved, or random."""
    family = draw(st.sampled_from(list(FamilyId)))
    base = seqengine.FAMILY_PIECES[family]
    pieces = [list(p) for p in base * draw(st.integers(1, 6 // len(base)))]
    if draw(st.booleans()):
        pieces[draw(st.integers(0, len(pieces) - 1))][draw(st.integers(0, 2))] += draw(st.integers(-3, 3))
    small = st.integers(-3, 3)
    random = st.lists(st.tuples(small, small, small), min_size=1, max_size=6)
    return tuple(map(tuple, draw(st.one_of(st.just(pieces), random))))


@settings(max_examples=8, deadline=None)
@given(pieces=_periodic_pieces())
@example(pieces=((0, 1, 1),) * 6)
@example(pieces=((0, 1, 0), (1, 1, 0), (0, 1, 0), (1, 1, 0), (0, 1, 0), (1, 2, 0)))
def test_verify_family_matches_the_integer_brute_force_on_random_pieces(pieces):
    report = verify_pieces(pieces, 120, "pieces")
    want = _int_verify(120, pieces)
    assert (report.subject, report.range, report.checked) == (want.subject, want.range, want.checked)
    assert report.failures == want.failures


# M (delta + 1) for each family: period M, largest piece degree delta
DECIDING_ROWS = {
    FamilyId.ZERO: 1,
    FamilyId.HALF: 1,
    FamilyId.CEIL_HALF: 4,
    FamilyId.PERIOD3: 3,
    FamilyId.TRIANGULAR: 3,
}


@pytest.mark.parametrize("max_mn", [1, 2, 3, 5, 7, 40])
@pytest.mark.parametrize("family", list(FamilyId))
def test_a_passing_grid_checks_only_its_deciding_rows(monkeypatch, family, max_mn):
    # a passing grid builds u(0..d) and rows 1..d over n <= d, d = min(N, M (delta + 1));
    # a failing one builds that square up to its first failing row, then, if d < N,
    # u(0..N) and rows 1..N over n <= N
    sides, rows = [], []
    values = seqengine._piece_values

    def spy(pieces, top, *step):   # u(0..top) is built with no step, row m with step m
        (rows if step else sides).append((*step, top))
        return values(pieces, top, *step)

    monkeypatch.setattr(veritool, "_piece_values", spy)
    deciding = min(max_mn, DECIDING_ROWS[family])
    square = [(m, deciding) for m in range(1, deciding + 1)]
    report = verify_family(family, max_mn)
    assert report.ok and report.checked == max_mn * max_mn
    assert sides == [(deciding,)]
    assert rows == square

    # T + 1 breaks the rule at (1, 1): 2 u(1) against u(1)^2 + u(0)^2
    sides.clear()
    rows.clear()
    shifted = tuple((c + 2, b, a) for c, b, a in seqengine.FAMILY_PIECES[family])
    report = verify_pieces(shifted, max_mn, "shifted")
    assert not report.ok and report.failures[0].m == report.failures[0].n == 1
    whole = [(m, max_mn) for m in range(1, max_mn + 1)] if deciding < max_mn else []
    assert sides == ([(deciding,), (max_mn,)] if whole else [(deciding,)])
    assert rows == (square[:1] + whole if whole else square)


def test_a_failing_square_stops_at_its_first_failing_row(monkeypatch):
    # u = 2 on class M // 2 of M = 499 and 0 elsewhere fails in row 1 of the square
    # 1..499: that row, then the whole grid, N + 1 rows; the whole square would make 2N - 1
    pieces = [(0, 0, 0)] * 499
    pieces[499 // 2] = (2, 0, 0)
    rows = []
    values = seqengine._piece_values
    monkeypatch.setattr(veritool, "_piece_values",
                        lambda pieces, top, *step: (rows.extend(step), values(pieces, top, *step))[1])
    report = verify_pieces(pieces, 500, "pieces")
    assert rows == [1, *range(1, 501)]
    assert report == _int_verify(500, pieces)


# the square decides every cell, so a pass at N = 10^6 holds no list of length N;
# each family peaked near 0.75 KiB
PASS_PEAK_BOUND = 4 * 1024


@pytest.mark.parametrize("family", list(FamilyId))
def test_a_passing_grid_holds_no_list_of_length_n(family):
    tracemalloc.start()
    try:
        report = verify_family(family, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok and report.checked == 10**12
    assert peak < PASS_PEAK_BOUND


@pytest.mark.parametrize("family", list(FamilyId))
def test_verify_family_refuses_a_float_bound(family):
    # refused before any work: a passing square alone would accept 40.0, and only a
    # failing one reaches the lists of length N + 1
    shifted = tuple((c + 2, b, a) for c, b, a in seqengine.FAMILY_PIECES[family])
    for bound in (40.0, 1.0):
        with pytest.raises(TypeError):
            verify_family(family, bound)
        with pytest.raises(TypeError):
            verify_pieces(shifted, bound, "shifted")


@pytest.mark.parametrize(
    "pieces",
    [(), ((0, 1),), ((0.0, 1, 1),), ((Fraction(1, 2), 0, 0),)],
    ids=["empty", "pair", "float", "fraction"],
)
def test_malformed_pieces_are_refused_before_any_work(monkeypatch, pieces):
    # unchecked, the float triangular pieces pass and the constant 1/2 fails at (1, 1)
    calls = []
    values = seqengine._piece_values
    monkeypatch.setattr(veritool, "_piece_values", lambda *args: calls.append(args) or values(*args))
    for max_mn in (1, 40):
        with pytest.raises((TypeError, ValueError)):
            verify_pieces(pieces, max_mn, "pieces")
    assert calls == []


# a refusal holds the square's few failures and two int copies of the pieces, which
# peaked at 3.9-4.6 KiB for one piece and near 120 B a piece for 200 and 501
REFUSAL_PEAK_BOUND = 16 * 1024
REFUSAL_PIECE_BYTES = 160


@pytest.mark.parametrize(
    "pieces, max_mn",
    [
        pytest.param(((2, 1, 1),), veritool.MAX_FULL_GRID + 1, id="square-fails-past-the-bound"),
        pytest.param(((2, 1, 1),), 10**6, id="square-fails-at-the-cap"),
        pytest.param(((0, 0, 0),) * (veritool.MAX_FULL_GRID + 1), 10**6, id="period-past-the-bound"),
        pytest.param(((0, 1, 1),) * 200, 10**6, id="period-and-degree-past-the-bound"),
    ],
)
def test_a_grid_past_the_bound_is_refused_before_its_rows(monkeypatch, pieces, max_mn):
    # T + 1 fails its 3 x 3 square, so N comes next; 501 or 200 classes of degree 2
    # make the square itself 501 or 600 on a side
    tops = []
    values = seqengine._piece_values
    monkeypatch.setattr(veritool, "_piece_values",
                        lambda p, top, *step: tops.append(top) or values(p, top, *step))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_FULL_GRID"):
            verify_pieces(pieces, max_mn, "pieces")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(tops, default=0) <= veritool.MAX_FULL_GRID
    assert peak < REFUSAL_PEAK_BOUND + REFUSAL_PIECE_BYTES * len(pieces)


# a failing grid holds O(N) rows, at most 64 B a column, and its failures: a
# `CheckFailure` and two `Fraction`s took 230-290 B each under tracemalloc
ROW_BYTES = 64
FAILURE_BYTES = 320


def test_a_failing_grid_holds_its_rows_and_its_failures():
    # the zero sequence of period 101 with T = 1 on the class of 1 fails where mn, or m
    # and n, or m - 1 and n - 1 fall in that class: 2,461 of the 250,000 cells at
    # N = 500, a 0.57 MiB peak, 1.4 s under tracemalloc and 0.2 s without it
    pieces = ((0, 0, 0), (2, 0, 0)) + ((0, 0, 0),) * 99
    grid = veritool.MAX_FULL_GRID
    tracemalloc.start()
    try:
        report = verify_pieces(pieces, grid, "pieces")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not report.ok and report.checked == grid * grid
    assert len(report.failures) < grid * grid // 50
    assert peak < ROW_BYTES * grid + FAILURE_BYTES * len(report.failures)


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


@pytest.mark.parametrize("c0", [0.1, 3.0, "3", None])
def test_specialization_checks_refuse_a_non_rational_point(table, c0):
    # whatever the bound, even one that evaluates nothing
    for bound in (1, 15):
        with pytest.raises(TypeError):
            scan_candidate(c0, bound, table)
    for bound in (-1, 0, 16):
        with pytest.raises(TypeError):
            crosscheck_specialization(c0, FamilyId.TRIANGULAR, bound, table)


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


def test_scans_on_a_warmed_table_equal_scans_on_fresh_tables():
    warm = SymbolicTable()
    for c0 in (Fraction(2), Fraction(3), Fraction(-7, 5), Fraction(1, 2), Fraction(0)):
        assert scan_candidate(c0, 61, warm) == scan_candidate(c0, 61, SymbolicTable())
        assert scan_candidate(c0, 61) == scan_candidate(c0, 61, SymbolicTable())
    # the memo keeps one residual pair per probe 3 <= m <= n, mn <= 61
    assert len(warm._residuals) == sum(61 // m - m + 1 for m in range(3, 8))


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


# ---------------------------------------------------------------------------
# the integer checks against the former checks, which built a `Fraction` per value

points = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


@settings(max_examples=60, deadline=None)
@given(c0=points, family=st.sampled_from(list(FamilyId)), max_n=st.integers(0, 256))
@example(c0=Fraction(0), family=FamilyId.PERIOD3, max_n=256)   # D(0) = -1
@example(c0=Fraction(0), family=FamilyId.ZERO, max_n=256)      # D(0) = -1, failing
@example(c0=Fraction(-7, 5), family=FamilyId.TRIANGULAR, max_n=256)   # D(c0) < 0
@example(c0=Fraction(1), family=FamilyId.CEIL_HALF, max_n=256)
@example(c0=Fraction(3), family=FamilyId.TRIANGULAR, max_n=256)
@example(c0=Fraction(3), family=FamilyId.CEIL_HALF, max_n=64)   # wrong pairings
@example(c0=Fraction(1), family=FamilyId.PERIOD3, max_n=64)
@example(c0=Fraction(0), family=FamilyId.HALF, max_n=64)
def test_crosscheck_matches_the_value_at_reference(table, c0, family, max_n):
    report = crosscheck_specialization(c0, family, max_n, table)
    want = ref.crosscheck_specialization(c0, family, max_n, table)
    assert report == want
    assert report.to_dict() == want.to_dict()
    assert all(type(f.lhs) is type(f.rhs) is Fraction for f in report.failures)


@pytest.mark.parametrize(
    "c0, bad",
    [
        (Fraction(0), (0, 7, 256)),   # D(0) = -1
        (Fraction(0), (1,)),
        (Fraction(3), (2, 255)),
        (Fraction(1, 2), (3, 13, 109)),   # den > 1: 2 T(n)(c0) is an int at some indices only
        (Fraction(-1, 2), (5, 146)),
    ],
)
def test_a_crosscheck_of_corrupted_pieces_fails_exactly_at_the_corrupted_indices(monkeypatch, table, c0, bad):
    # u(n) = 2 T(n)(c0) where that is an int, else 0, then off by one at the chosen indices
    exact = [2 * table.value(n)(c0) for n in range(257)]
    u = [x.numerator if x.denominator == 1 else 0 for x in exact]
    for n in bad:
        u[n] += 1
    monkeypatch.setitem(seqengine.FAMILY_PIECES, FamilyId.TRIANGULAR, ref.constant_pieces(u.__getitem__, 256))
    report = crosscheck_specialization(c0, FamilyId.TRIANGULAR, 256, table)
    assert report == ref.crosscheck_specialization(c0, FamilyId.TRIANGULAR, 256, table)
    assert [f.n for f in report.failures] == [n for n, x in enumerate(exact) if x != u[n]]
    assert all(f.m == f.n and 2 * f.lhs == exact[f.n] and 2 * f.rhs == u[f.n] for f in report.failures)


@settings(max_examples=40, deadline=None)
@given(c0=points, max_prod=st.integers(0, 256))
@example(c0=Fraction(-7, 5), max_prod=8)   # no probe 3 <= m <= n with mn <= 8
@example(c0=Fraction(0), max_prod=256)
@example(c0=Fraction(-7, 5), max_prod=256)
@example(c0=Fraction(2), max_prod=256)
@example(c0=Fraction(3), max_prod=256)   # no hit at all
def test_scan_matches_the_residual_numerator_at_reference(table, c0, max_prod):
    hits = scan_candidate(c0, max_prod, table)
    assert hits == ref.scan_candidate(c0, max_prod, table)
    assert all(type(value) is Fraction for _, _, value in hits)


def _count_work(monkeypatch):
    """Count evaluations of D, power vectors built and `Fraction`s built."""
    counts = {"d": 0, "vectors": 0, "fractions": 0}
    base_point, base_powers = seqengine._point, seqengine._powers

    def point(c0):
        counts["d"] += 1
        return base_point(c0)

    def powers(*args):
        counts["vectors"] += 1
        return base_powers(*args)

    def fraction(*args):
        counts["fractions"] += 1
        return Fraction(*args)

    monkeypatch.setattr(veritool, "_point", point)
    monkeypatch.setattr(seqengine, "_powers", powers)
    for module in (seqengine, veritool):
        monkeypatch.setattr(module, "Fraction", fraction)
    return counts


@pytest.mark.parametrize(
    "c0, family, max_n",
    [
        (Fraction(0), FamilyId.PERIOD3, 64),
        (Fraction(3), FamilyId.TRIANGULAR, 64),
        (Fraction(-7, 5), FamilyId.ZERO, 32),
        (Fraction(3), FamilyId.CEIL_HALF, 16),
    ],
)
def test_a_crosscheck_evaluates_d_once_and_builds_fractions_only_for_failures(
    monkeypatch, table, c0, family, max_n
):
    want = ref.crosscheck_specialization(c0, family, max_n, table)
    counts = _count_work(monkeypatch)
    report = crosscheck_specialization(c0, family, max_n, table)
    assert report == want
    # D(c0) by its own power vector and one basis per call, and only a failure's two sides
    assert counts == {"d": 1, "vectors": 2, "fractions": 2 * len(report.failures)}


@pytest.mark.parametrize("c0", [Fraction(3), Fraction(2), Fraction(-7, 5)])
def test_a_scan_evaluates_d_once_and_builds_fractions_only_for_hits(monkeypatch, table, c0):
    want = ref.scan_candidate(c0, 61, table)
    counts = _count_work(monkeypatch)
    hits = scan_candidate(c0, 61, table)
    assert hits == want
    assert counts == {"d": 1, "vectors": 2, "fractions": len(hits)}
