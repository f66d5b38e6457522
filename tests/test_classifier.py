"""Classifier tests: branch analysis, probe solving, report structure."""

import json
from fractions import Fraction
from functools import reduce
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference as ref
from prodrule import classifier
from prodrule.classifier import (
    DEFAULT_PROBES,
    FAMILY_BY_C,
    Branch,
    ConstraintRecord,
    WeakProbesError,
    branch_analysis,
    cofactor_gcd_check,
    solve_c,
)
from prodrule.exactalg import Poly, equal_up_to_scalar, poly_gcd
from prodrule.seqengine import FamilyId, residual_numerator

CUBIC = Poly((-1, 1, 0, 2))  # 2c^3 + c - 1


def test_branch_analysis_covers_the_three_cases():
    records = branch_analysis()
    assert [r.branch for r in records] == [
        Branch.A_NONZERO,
        Branch.A0_B0,
        Branch.A0_B1,
    ]
    by_branch = {r.branch: r for r in records}
    assert by_branch[Branch.A_NONZERO].families == (FamilyId.HALF,)
    assert by_branch[Branch.A0_B0].families == (FamilyId.ZERO,)
    assert by_branch[Branch.A0_B1].families == ()
    for r in records:
        assert r.conclusion
        assert r.justification


def test_solve_c_default_probes(table):
    report = solve_c(DEFAULT_PROBES, table)
    assert report.surviving_c == (Fraction(0), Fraction(1), Fraction(3))
    assert report.family_map == {
        Fraction(0): FamilyId.PERIOD3,
        Fraction(1): FamilyId.CEIL_HALF,
        Fraction(3): FamilyId.TRIANGULAR,
    }
    assert report.residual_cofactor_check is True
    assert report.cofactor_gcd_check is True
    assert report.all_checks_pass
    assert report.unresolved_cofactor is None
    assert len(report.branches) == 3
    assert len(report.constraints) == 2
    assert str(report.d_formula) == "(3c^3 + c)/(c^2 + 2c - 1)"


def test_solve_c_constraint_records(table):
    report = solve_c(DEFAULT_PROBES, table)
    first, second = report.constraints
    assert (first.m, first.n) == (3, 3)
    assert (second.m, second.n) == (3, 5)
    assert first.roots == (
        (Fraction(-1), 1),
        (Fraction(0), 1),
        (Fraction(1), 1),
        (Fraction(3), 1),
    )
    assert first.cofactor == CUBIC
    assert second.roots == ((Fraction(0), 1), (Fraction(1), 1), (Fraction(3), 1))


def test_single_probe_leaves_cofactor_unresolved(table):
    report = solve_c([(3, 3)], table)
    assert report.surviving_c == (
        Fraction(-1),
        Fraction(0),
        Fraction(1),
        Fraction(3),
    )
    assert report.residual_cofactor_check is False
    assert not report.all_checks_pass
    assert report.unresolved_cofactor is not None
    assert equal_up_to_scalar(report.unresolved_cofactor, CUBIC)
    assert any("unresolved" in note for note in report.notes)


def test_family_map_only_covers_known_c(table):
    report = solve_c([(3, 3)], table)
    assert Fraction(-1) not in report.family_map
    assert report.family_map.keys() == {Fraction(0), Fraction(1), Fraction(3)}


def test_all_probes_degenerate_raises(table):
    with pytest.raises(WeakProbesError):
        solve_c([(2, 2)], table)
    with pytest.raises(WeakProbesError):
        solve_c([(2, 2), (2, 9)], table)
    with pytest.raises(WeakProbesError, match="neither component a power of 2"):
        solve_c([(4, 7), (4, 4), (3, 8)], table)


def _is_power_of_two(k):
    return k & (k - 1) == 0


@pytest.mark.parametrize("m", range(2, 33))
def test_residual_vanishes_exactly_at_a_power_of_two(table, m):
    # the rule the WeakProbesError hint states, for every m <= n, mn <= 1024
    for n in range(m, 1024 // m + 1):
        vanishes = residual_numerator(m, n, table).is_zero
        assert vanishes == (_is_power_of_two(m) or _is_power_of_two(n)), (m, n)


def test_probe_indices_must_be_at_least_two(table):
    with pytest.raises(ValueError):
        solve_c([(1, 5)], table)
    with pytest.raises(ValueError):
        solve_c([], table)


def test_probe_indices_must_be_ints(table):
    # int() would truncate (3, 5.9) to the instance (3, 5)
    for probes in ([(3, 5.9)], [(3.0, 5)], [(3, 3), (Fraction(7, 2), 5)]):
        with pytest.raises(TypeError):
            solve_c(probes, table)


def test_enlarged_probe_set_gives_same_classification(table):
    probes = [
        (m, n)
        for m in range(3, 7)
        for n in range(m, 14)
        if m * n <= 40
    ]
    report = solve_c(probes, table)
    assert report.surviving_c == (Fraction(0), Fraction(1), Fraction(3))
    assert report.all_checks_pass


def test_cofactor_gcd_check_holds(table):
    assert cofactor_gcd_check(solve_c(DEFAULT_PROBES, table).constraints) is True


def test_cofactor_gcd_check_uses_only_the_given_records(table):
    # one record certifies nothing: its own cofactor is not constant
    assert cofactor_gcd_check(solve_c([(3, 3)], table).constraints) is False
    # identically zero records are skipped, so (4, 4) adds nothing to (3, 3)
    assert cofactor_gcd_check(solve_c([(3, 3), (4, 4)], table).constraints) is False
    assert cofactor_gcd_check(solve_c([(3, 3), (4, 4), (3, 5)], table).constraints) is True
    assert cofactor_gcd_check([]) is False


def test_cofactor_gcd_check_sees_a_shared_irreducible_factor(table):
    # (5, 9) and (6, 6) share c^2 + 1 beyond the roots 0, 1 and 3
    report = solve_c([(5, 9), (6, 6)], table)
    assert report.unresolved_cofactor == Poly((1, 0, 1))
    assert report.cofactor_gcd_check is False


@pytest.mark.parametrize(
    "probes",
    [
        DEFAULT_PROBES,
        ((3, 3),),
        ((3, 3), (4, 4)),
        ((4, 7), (5, 9), (6, 6)),
        ((3, 3), (3, 5), (4, 7), (5, 9)),
        ((9, 113), (17, 60), (31, 33), (3, 341)),
    ],
)
def test_cofactor_gcd_check_matches_the_former_check(table, probes):
    report = solve_c(probes, table)
    assert report.cofactor_gcd_check == ref.cofactor_gcd_check(report.constraints)


_SMALL_PROBES = [
    (m, n) for m in range(3, 13) for n in range(m, 150 // m + 1)
    if m & (m - 1) and n & (n - 1)   # skip the identically zero residuals
]
_VANISHING_PROBES = [(2, 5), (2, 9), (3, 4), (4, 4), (4, 7), (5, 8), (3, 16)]


@settings(max_examples=60, deadline=None)
@given(probes=st.lists(st.sampled_from(_SMALL_PROBES + _VANISHING_PROBES), min_size=1, max_size=3))
@example(probes=[(5, 9), (6, 6)])   # c^2 + 1 is shared beyond the rational roots
@example(probes=[(3, 3)])
@example(probes=[(4, 7), (3, 3)])   # a zero numerator has no roots to intersect
@example(probes=[(4, 4), (2, 9)])
def test_cofactor_gcd_is_the_shared_root_free_gcd(table, probes):
    # the equivalence the cofactor_gcd_check docstring states, as polynomials,
    # and solve_c against the former numerator-gcd route it rests on
    records = [ConstraintRecord.probe(m, n, table) for m, n in probes]
    assert cofactor_gcd_check(records) == ref.cofactor_gcd_check(records)
    want = ref.classify_by_numerator_gcd(records)
    if want is None:
        with pytest.raises(WeakProbesError):
            solve_c(probes, table)
        return
    live = [rec.cofactor for rec in records if not rec.numerator.is_zero]
    assert reduce(poly_gcd, live).monic() == ref.shared_root_free_gcd(records).monic()
    report = solve_c(probes, table)
    got = (report.surviving_c, report.residual_cofactor_check,
           report.unresolved_cofactor, report.notes)
    assert got == want
    assert report.cofactor_gcd_check == report.residual_cofactor_check


def _gcd_steps(cofactors):
    """The poly_gcd calls of a chain that stops once the reference fold is constant."""
    running = list(accumulate(cofactors, ref.poly_gcd))
    return next((i for i, common in enumerate(running) if common.degree == 0), len(running) - 1)


@pytest.mark.parametrize(
    "probes",
    [DEFAULT_PROBES, ((3, 3), (4, 4), (3, 5)), ((3, 3), (3, 5), (4, 7), (5, 9)),
     ((9, 113), (17, 60), (31, 33), (3, 341)), ((5, 9), (6, 6), (3, 3))],
)
def test_solve_c_runs_one_gcd_chain_and_one_root_pass_per_live_probe(table, probes, monkeypatch):
    # k live probes: k root splits and one chain of gcds over the cofactors that
    # stops as soon as the running gcd is constant, with no second gcd over the
    # numerators and no root pass on their gcd
    calls = {"poly_gcd": 0, "extract_rational_factors": 0}

    def counted(name):
        original = getattr(classifier, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(classifier, name, counted(name))
    report = solve_c(probes, table)
    assert report.all_checks_pass
    live = [rec.cofactor for rec in report.constraints if not rec.numerator.is_zero]
    assert calls == {"poly_gcd": _gcd_steps(live), "extract_rational_factors": len(live)}


def test_the_gcd_chain_stops_only_at_a_nonzero_constant():
    # the early stop agrees with the full fold; a zero running gcd is no
    # constant, since gcd(0, f) = f
    def record(cofactor):
        return ConstraintRecord(3, 3, CUBIC, (), cofactor)
    chains = [[CUBIC, Poly((1, 0, 1)), CUBIC], [Poly(), Poly((5,))], [Poly(), CUBIC],
              [Poly((2,)), CUBIC, Poly()], [CUBIC * Poly((1, 0, 1)), CUBIC, Poly((1, 0, 1))]]
    for cofactors in chains:
        full = reduce(ref.poly_gcd, cofactors).degree == 0
        assert cofactor_gcd_check([record(f) for f in cofactors]) == full, cofactors


def test_negative_control_cubic_does_not_vanish_at_two():
    # c = 2 solves neither constraint, so it must not survive
    assert CUBIC(2) == 17
    n33 = Poly((0, -3, 4, 2, 2, -1, -6, 2))
    assert n33(2) == -102


def test_family_by_c_is_exactly_the_resolved_set():
    assert FAMILY_BY_C == {
        Fraction(0): FamilyId.PERIOD3,
        Fraction(1): FamilyId.CEIL_HALF,
        Fraction(3): FamilyId.TRIANGULAR,
    }


def test_report_to_dict_shape(table):
    doc = solve_c(DEFAULT_PROBES, table).to_dict()
    assert list(doc.keys()) == [
        "branches",
        "d",
        "constraints",
        "surviving_c",
        "family_map",
        "cofactor_check",
        "cofactor_gcd_check",
        "notes",
    ]
    assert doc["d"] == "(3c^3 + c)/(c^2 + 2c - 1)"
    assert doc["surviving_c"] == ["0", "1", "3"]
    assert doc["family_map"] == {
        "0": "period3",
        "1": "ceilhalf",
        "3": "triangular",
    }
    assert doc["cofactor_check"] is True
    assert doc["cofactor_gcd_check"] is True
    assert len(doc["constraints"]) == 2
    assert (doc["constraints"][0]["m"], doc["constraints"][0]["n"]) == (3, 3)
    json.dumps(doc)


def test_report_serialization_is_deterministic(table):
    a = json.dumps(solve_c(DEFAULT_PROBES, table).to_dict(), indent=2)
    b = json.dumps(solve_c(DEFAULT_PROBES, table).to_dict(), indent=2)
    assert a == b
