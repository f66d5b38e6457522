"""Classification of all real sequences satisfying the product rule.

The case split runs on (a, b) = (T(0), T(1)).  The (1, 1) instance of
the rule forces b = b^2 + a^2.  When a != 0 the sequence is forced to
the constant 1/2; when a = b = 0 it collapses to the zero sequence; the
remaining branch a = 0, b = 1 leaves c = T(2) free, and every further
instance of the rule imposes a polynomial constraint on c.

Two probe instances suffice.  The (3, 3) and (3, 5) constraints share
exactly the rational roots 0, 1 and 3, each selecting one closed-form
family.  One exact certificate, reported under both of its names, rules
out anything else surviving: the cofactors of the probes the run used,
each numerator with all its rational roots split off, have a constant
GCD (`cofactor_gcd_check`, which proves this is the same as the probe
GCD deflating to a constant).  Root extraction and GCDs run on integer
coefficients inside `exactalg`, and each probe's numerator and cofactor
are integer polynomials.  The results, a `BranchRecord` per branch and a
`ConstraintRecord` per probe inside a `ClassificationReport`, are
immutable named tuples.
"""

from __future__ import annotations

import enum
import operator
from collections import namedtuple
from fractions import Fraction
from functools import reduce

# rational_roots is unused here but stays importable: perfbench/tracer.py patches it
from .exactalg import Poly, RatFunc, extract_rational_factors, poly_gcd, rational_roots  # noqa: F401
from .seqengine import FamilyId, SymbolicTable, derive_d, family_value, residual_numerator

__all__ = [
    "DEFAULT_PROBES",
    "Branch",
    "BranchRecord",
    "ClassificationReport",
    "ConstraintRecord",
    "WeakProbesError",
    "branch_analysis",
    "cofactor_gcd_check",
    "linear_factor_str",
    "solve_c",
]

DEFAULT_PROBES: tuple[tuple[int, int], ...] = ((3, 3), (3, 5))

# the families of the a = 0, b = 1 branch, by their c = T(2)
FAMILY_BY_C: dict[Fraction, FamilyId] = {
    family_value(f, 2): f for f in FamilyId if (family_value(f, 0), family_value(f, 1)) == (0, 1)
}

PERIOD3_NOTE = (
    "c = 0 selects the period-3 family, whose value is 1 exactly at "
    "indices n = 1 (mod 3)"
)


class WeakProbesError(ValueError):
    """Every probe residual vanished identically, so nothing constrains c.

    One does when m or n is a power of 2, as proved in `solve_c`; that no
    other pair does is only checked, for mn <= 4096.
    """


class Branch(enum.Enum):
    """The three cases of the split on (T(0), T(1))."""

    A_NONZERO = "a_nonzero"
    A0_B0 = "a0_b0"
    A0_B1 = "a0_b1"


class BranchRecord(namedtuple("BranchRecord", "branch conclusion families justification")):
    """Outcome of one branch: which families it forces and why.

    Fields: branch Branch, conclusion str, families tuple[FamilyId, ...], justification tuple[str, ...].
    """
    __slots__ = ()


class ConstraintRecord(namedtuple("ConstraintRecord", "m n numerator roots cofactor")):
    """One probe instance (m, n) reduced to a polynomial constraint on c.

    Fields: m int, n int, numerator Poly, roots tuple[tuple[Fraction, int], ...], cofactor Poly.
    """
    __slots__ = ()

    @classmethod
    def probe(cls, m: int, n: int, table: SymbolicTable) -> "ConstraintRecord":
        """Reduce the (m, n) instance and split off its rational roots."""
        numerator = residual_numerator(m, n, table)
        if numerator.is_zero:
            return cls(m, n, numerator, (), Poly())
        roots, cofactor = extract_rational_factors(numerator)
        return cls(m, n, numerator, roots, cofactor)

    def to_dict(self) -> dict:
        """JSON shape; rationals are rendered as strings."""
        return {
            "m": self.m,
            "n": self.n,
            "numerator": str(self.numerator),
            "roots": [[str(root), mult] for root, mult in self.roots],
            "factors": [linear_factor_str(root, mult) for root, mult in self.roots],
            "cofactor": str(self.cofactor),
        }


class ClassificationReport(namedtuple("ClassificationReport", "branches d_formula constraints surviving_c "
                                      "family_map residual_cofactor_check cofactor_gcd_check notes "
                                      "unresolved_cofactor", defaults=((), None))):
    """Full result of the constraint-solving classification.

    Fields: branches list[BranchRecord], d_formula RatFunc, constraints list[ConstraintRecord],
    surviving_c tuple[Fraction, ...], family_map dict[Fraction, FamilyId], residual_cofactor_check
    bool, cofactor_gcd_check bool, notes tuple[str, ...] = (), unresolved_cofactor Poly | None = None.
    """
    __slots__ = ()

    @property
    def all_checks_pass(self) -> bool:
        return self.residual_cofactor_check and self.cofactor_gcd_check

    def to_dict(self) -> dict:
        """Stable JSON shape; rationals are rendered as strings."""
        return {
            "branches": [
                {
                    "branch": rec.branch.value,
                    "conclusion": rec.conclusion,
                    "families": [fam.value for fam in rec.families],
                    "justification": list(rec.justification),
                }
                for rec in self.branches
            ],
            "d": str(self.d_formula),
            "constraints": [rec.to_dict() for rec in self.constraints],
            "surviving_c": [str(root) for root in self.surviving_c],
            "family_map": {str(root): fam.value for root, fam in self.family_map.items()},
            "cofactor_check": self.residual_cofactor_check,
            "cofactor_gcd_check": self.cofactor_gcd_check,
            "notes": list(self.notes),
        }


def linear_factor_str(root: Fraction, multiplicity: int = 1) -> str:
    """Render the factor (c - root)^multiplicity the way the CLI prints it.

    Reads the factor off str(root), as `Poly((-root, 1))` prints it:
    c, c - r, or c + |r| for a negative r.
    """
    text = str(root)
    if text == "0":
        base = "c"
    elif text[0] == "-":
        base = f"c + {text[1:]}"
    else:
        base = f"c - {text}"
    return f"({base})^{multiplicity}" if multiplicity > 1 else base


def branch_analysis() -> list[BranchRecord]:
    """Case split on (T(0), T(1)) forced by the (1, 1) and m = 1 instances."""
    return [
        BranchRecord(
            branch=Branch.A_NONZERO,
            conclusion="T(0) != 0 forces the constant sequence T(n) = 1/2",
            families=(FamilyId.HALF,),
            justification=(
                "instance (1, 1): T(1) = T(1)^2 + T(0)^2",
                "T(1) = 1 would force T(0) = 0, so T(1) != 1",
                "instance m = 1: T(n)(1 - T(1)) = T(0) T(n-1), and T(1) = "
                "T(1)^2 + T(0)^2 turns the constant ratio into T(1)/T(0), "
                "so T(n) = T(0) r^n with r = T(1)/T(0)",
                "instance m = 2: the geometric form satisfies the rule only "
                "with r = 1, so the sequence is a constant v = T(0)",
                "v = 2v^2 with v != 0 gives v = 1/2",
            ),
        ),
        BranchRecord(
            branch=Branch.A0_B0,
            conclusion="T(0) = T(1) = 0 forces the zero sequence",
            families=(FamilyId.ZERO,),
            justification=(
                "instance m = 1: T(n) = T(1) T(n) + T(0) T(n-1) = 0 for n >= 1",
                "T(0) = 0 holds by hypothesis",
            ),
        ),
        BranchRecord(
            branch=Branch.A0_B1,
            conclusion="T(0) = 0, T(1) = 1 leaves c = T(2) free; resolved by "
            "constraint solving on c",
            families=(),
            justification=(
                "instance (1, 1) with T(0) = 0: T(1) = T(1)^2, so T(1) is 0 or 1",
                "the halving identities determine every T(n) from c = T(2) "
                "and d = T(3)",
                "equating two product-rule routes to T(18) pins d to "
                "(3c^3 + c)/(c^2 + 2c - 1)",
                "each remaining instance (m, n) becomes a polynomial "
                "constraint on c with roots at the genuine solutions",
            ),
        ),
    ]


def solve_c(
    probe_pairs=DEFAULT_PROBES,
    table: SymbolicTable | None = None,
) -> ClassificationReport:
    """Solve the a = 0, b = 1 branch by probing product-rule instances.

    The surviving c are the rational roots every non-vanishing probe
    numerator shares; `cofactor_gcd_check` certifies that no other c
    survives, and when it fails the monic GCD of the probe cofactors is
    the unresolved common factor.  A float index raises TypeError, and a
    probe past the table's reach ValueError, before any entry is filled.

    Raises WeakProbesError when every probe residual is identically zero.
    The (m, n) residual vanishes identically when m or n is a power of 2:
    (T(2k), T(2k-1)) = H (T(k), T(k-1)) for k >= 1 with the symmetric
    H = [[c, 1], [1, d - c]], so the first row of H^j is its first column
    (T(2^j), T(2^j - 1)) and T(2^j k) = T(2^j) T(k) + T(2^j - 1) T(k-1).
    That no other pair vanishes is only checked, for mn <= 4096, so the
    probes need a pair with neither component a power of 2.
    """
    probes = [(operator.index(m), operator.index(n)) for m, n in probe_pairs]
    if not probes:
        raise ValueError("at least one probe pair is required")
    for m, n in probes:
        if m < 2 or n < 2:
            raise ValueError(f"probe ({m}, {n}) is out of range; both indices must be >= 2")
    if table is None:
        table = SymbolicTable()
    for m, n in probes:   # every probe's reach, before the first record fills an entry
        table._reach(m * n)

    constraints = [ConstraintRecord.probe(m, n, table) for m, n in probes]
    live = [rec for rec in constraints if not rec.numerator.is_zero]
    if not live:
        raise WeakProbesError(
            "every probe residual is identically zero; add a pair with neither "
            "component a power of 2, such as 3,3"
        )

    # on (numerator, denominator) int pairs, which hash in C; the first record's roots are sorted
    shared = set.intersection(*({(root.numerator, root.denominator) for root, _ in rec.roots} for rec in live))
    surviving = tuple(root for root, _ in live[0].roots if (root.numerator, root.denominator) in shared)
    family_map = {root: FAMILY_BY_C[root] for root in surviving if root in FAMILY_BY_C}
    complete = cofactor_gcd_check(constraints)
    # monic: reduce returns a lone cofactor as it is, without a poly_gcd call
    leftover = None if complete else reduce(poly_gcd, [rec.cofactor for rec in live]).monic()

    notes = [PERIOD3_NOTE]
    if leftover is not None:
        notes.append(f"unresolved common factor {leftover}; the surviving set may be incomplete")

    return ClassificationReport(
        branches=branch_analysis(),
        d_formula=derive_d(),
        constraints=constraints,
        surviving_c=surviving,
        family_map=family_map,
        residual_cofactor_check=complete,
        cofactor_gcd_check=complete,
        notes=tuple(notes),
        unresolved_cofactor=leftover,
    )


def cofactor_gcd_check(constraints: list[ConstraintRecord]) -> bool:
    """Certify that the given constraints only meet at their shared rational roots.

    Takes the records whose numerator does not vanish identically and
    demands that their cofactors, the numerators with every rational
    root split off, have a constant GCD G.  A nonconstant G would mean a
    common factor beyond the shared linear ones, that is a possible
    common real root the rational-root extraction cannot see.  With no
    non-vanishing record, or with one whose cofactor is not constant,
    nothing is certified and the result is False.

    This is the same certificate as deflating the GCD of the numerators
    by its rational roots to a constant.  Let L be the product of (c - r)
    over the rational roots r all numerators share, each at the smallest
    multiplicity among them.  gcd(numerators)/L has no rational root, as
    for each root some numerator has no factor (c - r) left after
    dividing by L, and its factors of higher degree are exactly the
    common factors of the cofactors, so gcd(numerators) = L G up to a
    constant: L is the deflated part and G the leftover.

    The chain stops as soon as the running GCD is a nonzero constant,
    since gcd(k, f) = 1 for any constant k != 0.
    """
    live = [rec.cofactor for rec in constraints if not rec.numerator.is_zero]
    if not live:
        return False
    common = live[0]
    for cofactor in live[1:]:
        if common.degree == 0:
            break
        common = poly_gcd(common, cofactor)
    return common.degree == 0
