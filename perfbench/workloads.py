"""The three benchmark workloads: seeded inputs, one operation each, its verdict.

Inputs come in shuffled decks.  A deck holds one operation from every
stratum of the input property that sets the cost, so any whole number of
decks has the same cost mix whatever the seed; the timed loop always runs
whole decks.  Deck i of a seed is drawn from its own generator, so the
same seed always gives the same operations in the same order.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import statistics
from collections import Counter
from fractions import Fraction

import oracle

DEFAULT_PROBES = ((3, 3), (3, 5))


def _run_cli(mods, argv):
    """In-process `prodrule ARGV`, returning (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.run(argv)
    return code, out.getvalue()


def _parse(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _spread(values) -> str:
    return f"{min(values)}..{max(values)} (median {statistics.median(values)})"


class Workload:
    name = ""
    why = ""
    setup_reps = 9     # set-ups per run; setup_s is their median
    trace_decks = 3    # decks the traced run replays, untraced and then traced

    def decks(self, seed: int):
        """Endless, reproducible stream of decks (lists of operation specs)."""
        i = 0
        while True:
            yield self.deck(random.Random(f"{self.name}:{seed}:{i}"), seed + i)
            i += 1

    def deck(self, rng: random.Random, turn: int) -> list:
        """One deck; `turn` goes up by one from deck to deck."""
        raise NotImplementedError

    def setup(self, mods):
        """Build the shared state the operations use; returns it."""
        return None

    def execute(self, mods, state, spec):
        """The timed operation itself; returns its raw result."""
        raise NotImplementedError

    def check(self, spec, result) -> str | None:
        raise NotImplementedError

    def describe(self, specs) -> dict:
        raise NotImplementedError


class Classify(Workload):
    name = "classify"
    why = ("the command users run: each call builds a cold table, so time goes to "
           "exactalg gcd and roots and to sparse seqengine fills; veritool is idle")
    # the deepest index a probe needs and the number of pairs set the cost,
    # so each deck takes one operation per depth stratum and pair count
    DEPTH_STRATA = ((9, 256), (257, 512), (513, 768), (769, 1024))
    EXTRA_PAIRS = (1, 2, 3)

    @staticmethod
    def _pair(rng, lo, hi):
        target = rng.randint(lo, hi)
        m = rng.randint(3, math.isqrt(target))
        return m, target // m

    def deck(self, rng, turn):
        ops = []
        for lo, hi in self.DEPTH_STRATA:
            for k in self.EXTRA_PAIRS:
                first = self._pair(rng, lo, hi)
                # the other k - 1 pairs take one each of k - 1 equal bands of
                # 9..mn of the first, since the cost follows the sum of the mn
                step = (first[0] * first[1] - 9) / max(k - 1, 1)
                extra = [first] + [self._pair(rng, 9 + int(j * step), 9 + int((j + 1) * step))
                                   for j in range(k - 1)]
                ops.append(DEFAULT_PROBES + tuple(extra))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _argv(probes):
        return ["classify", "--format", "json",
                "--probes", ";".join(f"{m},{n}" for m, n in probes)]

    def execute(self, mods, state, spec):
        return _run_cli(mods, self._argv(spec))

    def check(self, spec, result):
        code, text = result
        return oracle.check_classify(spec, code, _parse(text))

    def describe(self, specs):
        depth = [max(m * n for m, n in spec[len(DEFAULT_PROBES):]) for spec in specs]
        extra = Counter(len(spec) - len(DEFAULT_PROBES) for spec in specs)
        return {
            "operations": len(specs),
            "probe_depth_mn": _spread(depth),
            "extra_pairs": {str(k): extra[k] for k in sorted(extra)},
        }


class Grid(Workload):
    name = "grid"
    why = ("cli verify of one closed-form family on an N x N grid: only veritool "
           "and seqengine.family_value work, the symbolic kernel is bypassed")
    # the work is N^2 cells times a family factor (up to 1.3x), so each deck
    # draws one N from each of ten strata of width 20 over 200..399, and the
    # families take turns over the strata: every five decks pair each family
    # with each stratum once, which keeps the cost mix the same for any seed
    N_STRATA = range(200, 400, 20)
    trace_decks = 1

    def deck(self, rng, turn):
        families = len(oracle.FAMILIES)
        ops = [(oracle.FAMILIES[(j + turn) % families], lo + rng.randrange(20))
               for j, lo in enumerate(self.N_STRATA)]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _argv(family, max_mn):
        return ["verify", "--family", family, "--max", str(max_mn), "--format", "json"]

    def execute(self, mods, state, spec):
        return _run_cli(mods, self._argv(*spec))

    def check(self, spec, result):
        code, text = result
        return oracle.check_grid(*spec, code, _parse(text))

    def describe(self, specs):
        families = Counter(family for family, _ in specs)
        return {
            "operations": len(specs),
            "grid_N": _spread([n for _, n in specs]),
            "families": dict(sorted(families.items())),
        }


class Specialize(Workload):
    name = "specialize"
    why = ("scan_candidate and crosscheck on one densely filled shared table: many "
           "seqengine cache hits after dense writes, residuals recomputed per candidate")
    MAX_N = 256       # the shared table is filled densely to this index in set-up
    MAX_P = 40        # non-solutions c0 = p/q with |p| <= MAX_P ...
    DENOMINATORS = range(1, 13)   # ... and q <= 12, one per deck for each q
    # a scan checks every probe 3 <= m <= n with mn <= P; P takes one value
    # from each of twelve strata over 26..61, so scan costs spread over a range
    # (about 0.03 to 0.3 s) and the median moves smoothly with machine speed
    # instead of jumping between the two speeds of identical scans
    PROD_STRATA = range(26, 62, 3)
    setup_reps = 5

    def deck(self, rng, turn):
        bounds = [lo + rng.randrange(3) for lo in self.PROD_STRATA]
        rng.shuffle(bounds)
        ops = []
        for q, max_prod in zip(self.DENOMINATORS, bounds):
            while True:
                p = rng.randint(-self.MAX_P, self.MAX_P)
                if math.gcd(p, q) == 1 and Fraction(p, q) not in oracle.GENUINE_C:
                    break
            ops.append(("scan", Fraction(p, q), max_prod))
        ops += [("crosscheck", c0, self.MAX_N) for c0 in sorted(oracle.GENUINE_C)]
        rng.shuffle(ops)
        return ops

    def setup(self, mods):
        table = mods.seqengine.SymbolicTable(self.MAX_N)
        for n in range(self.MAX_N + 1):
            table.value(n)
        return table

    def execute(self, mods, table, spec):
        kind, c0, bound = spec
        if kind == "scan":
            return mods.veritool.scan_candidate(c0, bound, table)
        family = mods.seqengine.FamilyId(oracle.FAMILY_BY_C[str(c0)])
        return mods.veritool.crosscheck_specialization(c0, family, bound, table)

    def check(self, spec, result):
        kind, c0, bound = spec
        if kind == "scan":
            return oracle.check_scan(c0, bound, result)
        return oracle.check_crosscheck(c0, bound, result)

    def describe(self, specs):
        scans = [(c0, bound) for kind, c0, bound in specs if kind == "scan"]
        return {
            "operations": len(specs),
            "scans": len(scans),
            "crosschecks": len(specs) - len(scans),
            "table_index": self.MAX_N,
            "scan_P": _spread([bound for _, bound in scans]),
            "c0_numerator": _spread([c.numerator for c, _ in scans]),
            "c0_denominator": _spread([c.denominator for c, _ in scans]),
        }


def smoke(mods) -> list[str | None]:
    """One small checked operation through every layer, run in every set-up.

    It warms each code path, stops a broken layer from being timed unnoticed,
    and gives every per-layer metric a value on every workload.
    """
    table = mods.seqengine.SymbolicTable(64)

    def classify():
        code, text = _run_cli(mods, Classify._argv(DEFAULT_PROBES))
        return oracle.check_classify(DEFAULT_PROBES, code, _parse(text))

    def grid():
        code, text = _run_cli(mods, Grid._argv("triangular", 12))
        return oracle.check_grid("triangular", 12, code, _parse(text))

    def scan():
        return oracle.check_scan(Fraction(2), 15, mods.veritool.scan_candidate(Fraction(2), 15, table))

    def crosscheck():
        report = mods.veritool.crosscheck_specialization(
            Fraction(1), mods.seqengine.FamilyId.CEIL_HALF, 32, table)
        return oracle.check_crosscheck(Fraction(1), 32, report)

    problems = []
    for check in (classify, grid, scan, crosscheck):
        try:
            problems.append(check())
        except Exception as exc:
            problems.append(f"smoke {check.__name__}: {type(exc).__name__}: {exc}")
    return problems


WORKLOADS = {wl.name: wl for wl in (Classify(), Grid(), Specialize())}
