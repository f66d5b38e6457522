"""Self-test of the verdict oracle, failure counting and rescaling; needs no program.

    python3 perfbench/selftest.py

Feeds correct results and corrupted ones (a fake grid failure, a wrong
surviving set, a false certificate, an accepted non-solution, an exception)
through the same checks and counting the benchmark uses, and exits non-zero
if a corrupted result would count as a pass.  It also checks that a
rescaled time follows the probes around it.
"""

from __future__ import annotations

import copy
import json
import sys
import types
from fractions import Fraction

import oracle
import speed
from run import run_decks
from workloads import DEFAULT_PROBES, Workload

PROBES = DEFAULT_PROBES + ((3, 7),)
GOOD_CLASSIFY = {
    "d": oracle.D_FORMULA,
    "constraints": [{"m": m, "n": n} for m, n in PROBES],
    "surviving_c": ["0", "1", "3"],
    "family_map": {"0": "period3", "1": "ceilhalf", "3": "triangular"},
    "cofactor_check": True,
    "cofactor_gcd_check": True,
}
GOOD_GRID = {"subject": "family:half", "range": 20, "checked": 400, "failures": []}
GOOD_HITS = [(3, 3, Fraction(5)), (3, 5, Fraction(-7, 2))]


def _report(c0, family, max_n, failures=()):
    return types.SimpleNamespace(subject=f"c={c0}->{family}", range=max_n,
                                 checked=max_n + 1, failures=list(failures))


def _with(doc, **changes):
    doc = copy.deepcopy(doc)
    doc.update(changes)
    return doc


def cases():
    """(label, problem or None, should fail)."""
    yield "classify ok", oracle.check_classify(PROBES, 0, GOOD_CLASSIFY), False
    yield "classify wrong surviving set", oracle.check_classify(
        PROBES, 0, _with(GOOD_CLASSIFY, surviving_c=["0", "1", "3", "5"])), True
    yield "classify missing solution", oracle.check_classify(
        PROBES, 0, _with(GOOD_CLASSIFY, surviving_c=["0", "3"])), True
    yield "classify false certificate", oracle.check_classify(
        PROBES, 0, _with(GOOD_CLASSIFY, cofactor_gcd_check=False)), True
    yield "classify wrong d", oracle.check_classify(
        PROBES, 0, _with(GOOD_CLASSIFY, d="(3c^3 + c)/(c^2 - 1)")), True
    yield "classify dropped probe", oracle.check_classify(
        PROBES, 0, _with(GOOD_CLASSIFY, constraints=GOOD_CLASSIFY["constraints"][:2])), True
    yield "classify exit 1", oracle.check_classify(PROBES, 1, GOOD_CLASSIFY), True
    yield "classify no JSON", oracle.check_classify(PROBES, 0, None), True

    yield "grid ok", oracle.check_grid("half", 20, 0, GOOD_GRID), False
    fake = {"m": 2, "n": 3, "lhs": "1/2", "rhs": "1/2"}
    yield "grid fake failure list", oracle.check_grid(
        "half", 20, 0, _with(GOOD_GRID, failures=[fake])), True
    yield "grid short count", oracle.check_grid(
        "half", 20, 0, _with(GOOD_GRID, checked=399)), True
    yield "grid wrong family", oracle.check_grid("zero", 20, 0, GOOD_GRID), True
    yield "grid exit 1", oracle.check_grid("half", 20, 1, GOOD_GRID), True

    yield "scan ok", oracle.check_scan(Fraction(2), 48, GOOD_HITS), False
    yield "scan accepts a non-solution", oracle.check_scan(Fraction(2), 48, []), True
    yield "scan zero violation", oracle.check_scan(
        Fraction(2), 48, [(3, 3, Fraction(0))]), True
    yield "scan passes both certifying probes", oracle.check_scan(
        Fraction(-1), 48, [(3, 7, Fraction(4))]), True
    yield "scan of a genuine c", oracle.check_scan(Fraction(3), 48, GOOD_HITS), True

    yield "crosscheck ok", oracle.check_crosscheck(
        Fraction(3), 256, _report(3, "triangular", 256)), False
    yield "crosscheck with failures", oracle.check_crosscheck(
        Fraction(3), 256, _report(3, "triangular", 256, [object()])), True
    yield "crosscheck wrong family", oracle.check_crosscheck(
        Fraction(1), 256, _report(1, "period3", 256)), True


class FakeGrid(Workload):
    """One deck: a right answer, a corrupted answer and an exception."""

    name = "fake"

    def deck(self, rng, turn):
        return ["ok", "corrupt", "raise"]

    def execute(self, mods, state, spec):
        if spec == "raise":
            raise RuntimeError("boom")
        doc = GOOD_GRID if spec == "ok" else _with(GOOD_GRID, failures=[{"m": 1, "n": 1}])
        return 0, json.dumps(doc)

    def check(self, spec, result):
        code, text = result
        return oracle.check_grid("half", 20, code, json.loads(text))


def main() -> int:
    wrong = [label for label, problem, should_fail in cases()
             if (problem is not None) != should_fail]
    loop = run_decks(FakeGrid(), None, None, FakeGrid().decks(0), n_decks=2)
    if (len(loop.specs), loop.failed) != (6, 4):
        wrong.append(f"run_decks counted {loop.failed} failed of {len(loop.specs)}, expected 4 of 6")
    # probes at twice the reference time halve a time; the slow last probe
    # lies within two probes of the second and third times only
    ref = speed.REFERENCE_S
    got = speed.rescale([0.2, 0.2, 0.2], [2 * ref, 2 * ref, 2 * ref, 4 * ref])
    if [round(t, 12) for t in got] != [0.1, 0.08, 0.075]:
        wrong.append(f"rescale gave {got}, expected [0.1, 0.08, 0.075]")
    for label in wrong:
        print(f"selftest FAILED: {label}")
    if wrong:
        return 1
    print(f"selftest ok: {sum(1 for _ in cases())} oracle cases, failure counting, rescaling")
    return 0


if __name__ == "__main__":
    sys.exit(main())
