"""The benchmark's tracer still finds every name it wraps in the package.

`perfbench/tracer.py` patches functions by name in the namespaces their
callers read them from (`classifier.rational_roots`, `seqengine.poly_gcd`,
`veritool.residual_numerator`, ...).  Renaming or dropping one of those
names would otherwise surface only as a failed benchmark run.  The tracer
is loaded read-only from its file, without writing bytecode next to it.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
import types
from fractions import Fraction
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = ("exactalg", "seqengine", "classifier", "veritool", "cli")


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _fresh_package(monkeypatch):
    """Import prodrule anew; the modules the other tests hold come back afterwards."""
    for name in [n for n in sys.modules if n == "prodrule" or n.startswith("prodrule.")]:
        monkeypatch.delitem(sys.modules, name)
    importlib.import_module("prodrule")
    return types.SimpleNamespace(**{m: importlib.import_module(f"prodrule.{m}") for m in MODULES})


def _namespaces(mods):
    spaces = [vars(getattr(mods, m)) for m in MODULES]
    spaces += [vars(mods.exactalg.RatFunc), vars(mods.seqengine.SymbolicTable)]
    return [dict(space) for space in spaces]


def test_tracer_installs_runs_and_uninstalls(monkeypatch):
    tracer = _load_tracer(monkeypatch)()
    mods = _fresh_package(monkeypatch)
    before = _namespaces(mods)
    tracer.install(mods)
    try:
        assert _namespaces(mods) != before
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert mods.cli.run(["classify", "--format", "json"]) == 0
            assert mods.cli.run(["verify", "--family", "triangular", "--max", "12"]) == 0
        table = mods.seqengine.SymbolicTable()
        assert mods.veritool.scan_candidate(Fraction(3), 30, table) == []
        assert mods.veritool.crosscheck_specialization(3, mods.seqengine.FamilyId.TRIANGULAR, 40, table).ok
    finally:
        tracer.uninstall()
    assert _namespaces(mods) == before
    calls, _, _ = tracer.totals()
    for name in ("cli.run", "classifier.solve_c", "classifier.cofactor_gcd_check",
                 "seqengine.derive_d", "seqengine.residual_numerator", "veritool.verify_family",
                 "veritool.scan_candidate", "veritool.crosscheck", "exactalg.poly_gcd"):
        assert calls[name] >= 1, name
    metrics = tracer.layer_metrics()
    assert metrics["classifier.probes_nonvanishing"][0] == 2
    assert metrics["veritool.checks"][0] == 144
