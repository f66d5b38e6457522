"""Independent oracle: sympy recomputes the table and factors the probes.

Skipped when sympy is not installed.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from prodrule.classifier import DEFAULT_PROBES, solve_c
from prodrule.exactalg import Poly, poly_gcd
from prodrule.seqengine import residual_numerator

sympy = pytest.importorskip("sympy")

c = sympy.symbols("c")
D = c**2 + 2 * c - 1
d = (3 * c**3 + c) / D


def _sympy_table(max_n):
    t = [sympy.Integer(0), sympy.Integer(1), c, d]
    for n in range(4, max_n + 1):
        k = (n + 1) // 2
        step = c * t[k] + t[k - 1] if n % 2 == 0 else t[k] + (d - c) * t[k - 1]
        t.append(sympy.cancel(step))
    return t


def _poly(expr):
    """A sympy polynomial in c as a `Poly` with Fraction coefficients."""
    coeffs = reversed(sympy.Poly(expr, c).all_coeffs())
    return Poly(Fraction(int(x.p), int(x.q)) for x in coeffs)


def _expr(poly):
    return sum(sympy.Rational(x.numerator, x.denominator) * c**i for i, x in enumerate(poly.coeffs))


def test_sympy_cancel_agrees_with_the_table(table):
    for n, expected in enumerate(_sympy_table(40)):
        num, den = sympy.fraction(sympy.cancel(expected))
        scale = Fraction(1) / _poly(den).leading
        got = table.value(n)
        assert got.num == _poly(num) * scale, n
        assert got.den == _poly(den) * scale, n


def test_sympy_factors_the_two_probe_numerators(table):
    linear = c * (c - 1) * (c - 3)
    cofactors = []
    for m, n in ((3, 3), (3, 5)):
        expr = _expr(residual_numerator(m, n, table))
        _, factors = sympy.factor_list(expr)
        assert {c, c - 1, c - 3} <= {base for base, _ in factors}
        cofactors.append(sympy.cancel(expr / linear))
    assert sympy.gcd(*cofactors) == 1


@pytest.mark.parametrize(
    "first, second",
    [((3, 3), (3, 5)), ((5, 9), (6, 6)), ((4, 7), (5, 9)), ((3, 3), (9, 113)), ((31, 33), (3, 341))],
)
def test_poly_gcd_agrees_with_sympy(table, first, second):
    f, g = residual_numerator(*first, table), residual_numerator(*second, table)
    want = sympy.Poly(sympy.gcd(_expr(f), _expr(g)), c).monic()
    assert poly_gcd(f, g) == _poly(want.as_expr())


def _golden_probe_sets():
    """Every probe set a golden `classify` entry runs, each once."""
    golden = json.loads((Path(__file__).parent / "golden" / "cli_stdout.json").read_text())
    found = {DEFAULT_PROBES}
    for case in golden:
        words = case.split()
        if words[0] == "classify" and "--probes" in words:
            text = words[words.index("--probes") + 1]
            found.add(tuple(tuple(int(x) for x in pair.split(",")) for pair in text.split(";")))
    return sorted(found)


@pytest.mark.parametrize("probes", _golden_probe_sets() + [((5, 9), (6, 6))])
def test_solve_c_agrees_with_the_sympy_gcd_of_the_numerators(table, probes):
    report = solve_c(probes, table)
    numerators = [_expr(rec.numerator) for rec in report.constraints if not rec.numerator.is_zero]
    common = sympy.Poly(sympy.gcd_list(numerators), c).monic()
    roots = sympy.roots(common, filter="Q")
    linear = sympy.Poly(sympy.prod((c - root) ** mult for root, mult in roots.items()), c)
    leftover, rest = sympy.div(common, linear)
    assert rest.is_zero
    assert report.surviving_c == tuple(Fraction(int(r.p), int(r.q)) for r in sorted(roots))
    assert report.residual_cofactor_check == report.cofactor_gcd_check == (leftover.degree() == 0)
    want = None if leftover.degree() == 0 else _poly(leftover.monic().as_expr())
    assert report.unresolved_cofactor == want
