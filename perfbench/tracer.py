"""Timing wrappers installed around the program's public functions.

Only the traced run installs them, and it removes them again when done.
Each wrapper replaces a function in the namespace its caller looks it up
from (for example `classifier.poly_gcd` as well as `exactalg.poly_gcd`).
A span is [name, start, end, parent index, folded seconds, op id], kept in
memory and written out at the end.  A span's self time is its duration
minus its child spans and minus the time of folded leaf calls.

`family_value` runs once per grid cell, about 10^5 times per operation, so
it is a folded leaf: its calls are counted and timed, and the time is
charged to the enclosing span rather than stored as a span of its own.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter


def _growth(value):
    """(degree, largest coefficient bit length) of a Poly or RatFunc."""
    polys = (value.num, value.den) if hasattr(value, "den") else (value,)
    degree = max(p.degree for p in polys)
    bits = max(
        (max(x.numerator.bit_length(), x.denominator.bit_length())
         for p in polys for x in p.coeffs),
        default=0,
    )
    return degree, bits


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.folded: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._restore: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0.0, self.op_id]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result
        return wrapper

    def _fold(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                agg = self.folded[name]
                agg[0] += 1
                agg[1] += elapsed
                if self._stack:
                    self.spans[self._stack[-1]][4] += elapsed
        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _note_growth(self, value):
        degree, bits = _growth(value)
        self.max_degree = max(self.max_degree, degree)
        self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def _table_value(self, fn):
        span = self._span("seqengine.value", fn)

        def wrapper(table, n):
            seen = self._seen.setdefault(table, set())
            miss = n > 3 and n not in seen
            seen.add(n)
            self.counts["seqengine.value.misses" if miss else "seqengine.value.hits"] += 1
            result = span(table, n)
            if miss:
                self._note_growth(result)
            return result
        return wrapper

    def _cli_run(self, fn):
        span = self._span("cli.run", fn)

        def wrapper(argv=None):
            # the caller redirects stdout to a StringIO; JSON output is ASCII
            out = sys.stdout
            before = out.tell()
            try:
                return span(argv)
            finally:
                self.counts["cli.json_bytes"] += out.tell() - before
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, mods) -> None:
        """Wrap every traced function of the freshly imported package `mods`."""
        ex, seq, cls, ver, cli = mods.exactalg, mods.seqengine, mods.classifier, mods.veritool, mods.cli
        gcd = self._span("exactalg.poly_gcd", ex.poly_gcd)
        for owner in (ex, seq, cls):
            self._patch(owner, "poly_gcd", gcd)
        roots = self._span("exactalg.rational_roots", ex.rational_roots)
        for owner in (ex, cls):
            self._patch(owner, "rational_roots", roots)
        self._patch(ex.RatFunc, "__init__", self._count("exactalg.ratfunc.new", ex.RatFunc.__init__))
        self._patch(seq.SymbolicTable, "value", self._table_value(seq.SymbolicTable.value))

        def numerator_returned(args, result):
            self._note_growth(result)
            if self._stack and self.spans[self._stack[-1]][0] == "classifier.solve_c":
                self.counts["classifier.probes_nonvanishing"] += not result.is_zero
        self._patch(cls, "residual_numerator",
                    self._span("seqengine.residual_numerator", cls.residual_numerator, numerator_returned))

        def scanned_pair(args, result):
            self._note_growth(result)
            self.counts["veritool.scan.pairs"] += 1
        self._patch(ver, "residual_numerator",
                    self._span("seqengine.residual_numerator", ver.residual_numerator, scanned_pair))
        self._patch(cls, "derive_d", self._span("seqengine.derive_d", cls.derive_d))
        self._patch(cls, "cofactor_gcd_check",
                    self._span("classifier.cofactor_gcd_check", cls.cofactor_gcd_check))
        self._patch(cli, "solve_c", self._span("classifier.solve_c", cli.solve_c))

        def grid_checked(args, report):
            self.counts["veritool.checks"] += report.checked
        self._patch(cli, "verify_family",
                    self._span("veritool.verify_family", cli.verify_family, grid_checked))
        self._patch(ver, "family_value", self._fold("seqengine.family_value", ver.family_value))
        self._patch(cli, "run", self._cli_run(cli.run))
        self._patch(ver, "scan_candidate", self._span("veritool.scan_candidate", ver.scan_candidate))
        self._patch(ver, "crosscheck_specialization",
                    self._span("veritool.crosscheck", ver.crosscheck_specialization))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, folded, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, self_s = Counter(), Counter(), Counter()
        for i, (name, start, end, parent, folded, _) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_s[name] += end - start - child[i] - folded
        return calls, incl, self_s

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        calls, incl, self_s = self.totals()
        hits = self.counts["seqengine.value.hits"]
        misses = self.counts["seqengine.value.misses"]
        fv_calls, fv_s = self.folded["seqengine.family_value"]
        grid_s = incl["veritool.verify_family"]
        return {
            "exactalg.poly_gcd.calls": (calls["exactalg.poly_gcd"], "count"),
            "exactalg.poly_gcd.self_s": (self_s["exactalg.poly_gcd"], "s"),
            "exactalg.ratfunc.new": (self.counts["exactalg.ratfunc.new"], "count"),
            "exactalg.max_degree": (self.max_degree, "count"),
            "exactalg.max_coeff_bits": (self.max_coeff_bits, "bits"),
            "exactalg.rational_roots.calls": (calls["exactalg.rational_roots"], "count"),
            "exactalg.rational_roots.self_s": (self_s["exactalg.rational_roots"], "s"),
            "classifier.solve_c.s": (incl["classifier.solve_c"], "s"),
            "classifier.cofactor_gcd_check.s": (incl["classifier.cofactor_gcd_check"], "s"),
            "classifier.probes_nonvanishing": (self.counts["classifier.probes_nonvanishing"], "count"),
            "seqengine.value.misses": (misses, "count"),
            "seqengine.value.hits": (hits, "count"),
            "seqengine.value.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "seqengine.value.self_s": (self_s["seqengine.value"], "s"),
            "seqengine.derive_d.s": (incl["seqengine.derive_d"], "s"),
            "seqengine.residual_numerator.calls": (calls["seqengine.residual_numerator"], "count"),
            "seqengine.residual_numerator.s": (incl["seqengine.residual_numerator"], "s"),
            "seqengine.family_value.calls": (fv_calls, "count"),
            "seqengine.family_value.s": (fv_s, "s"),
            "veritool.checks": (self.counts["veritool.checks"], "count"),
            "veritool.checks_per_s": (self.counts["veritool.checks"] / grid_s if grid_s else 0.0, "1/s"),
            "veritool.verify_family.self_s": (self_s["veritool.verify_family"], "s"),
            "veritool.scan_candidate.self_s": (self_s["veritool.scan_candidate"], "s"),
            "veritool.scan.pairs": (self.counts["veritool.scan.pairs"], "count"),
            "veritool.crosscheck.self_s": (self_s["veritool.crosscheck"], "s"),
            "cli.run.self_s": (self_s["cli.run"], "s"),
            "cli.json_bytes": (self.counts["cli.json_bytes"], "B"),
        }
