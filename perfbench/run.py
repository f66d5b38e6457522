"""Layered benchmark for prodrule.

    python3 perfbench/run.py --workload classify|grid|specialize \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src and from
nowhere else.  One process is one closed-loop client: it sends the next
operation only when the previous one has returned, with no threads.

--trace 0 measures the end-to-end metrics with no wrappers installed: the
timed loop runs whole decks of seeded operations until S seconds have
passed, and every operation's verdict is checked against oracle.py.
Every timing is rescaled to a reference CPU speed by the probe in speed.py;
the raw wall times are printed beside the rescaled ones.
--trace 1 replays a fixed number of decks twice, first untraced and then
with the wrappers of tracer.py installed, and reports per-layer metrics.
The traced pass does a fixed amount of work, so its counts repeat exactly
for a given seed.  Its spans are written to perfbench/out/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import speed
from tracer import Tracer
from workloads import WORKLOADS, smoke

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("exactalg", "seqengine", "classifier", "veritool", "cli")
TAIL_BEYOND = 10   # the tail percentile keeps this many samples above it
SHOWN_PROBLEMS = 5

sys.path.insert(0, str(SRC))


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


def import_program():
    """Import prodrule afresh from ./src; returns a namespace of its modules."""
    for name in [n for n in sys.modules if n == "prodrule" or n.startswith("prodrule.")]:
        del sys.modules[name]
    pkg = importlib.import_module("prodrule")
    if Path(pkg.__file__).resolve().parent != SRC / "prodrule":
        raise ImportError(f"prodrule was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"prodrule.{m}") for m in MODULES})


def set_up(workload, seed):
    """Import, draw the inputs, smoke-check and build state: all of setup_s."""
    start = perf_counter()
    mods = import_program()
    imported = perf_counter()
    decks = workload.decks(seed)
    first = next(decks)
    checks = smoke(mods)
    state = workload.setup(mods)
    end = perf_counter()
    return types.SimpleNamespace(
        mods=mods, state=state, decks=itertools.chain([first], decks), checks=checks,
        seconds=end - start, import_s=imported - start,
    )


def run_decks(workload, mods, state, decks, *, seconds=None, n_decks=None, tracer=None):
    """Closed loop over whole decks, until `seconds` pass or after `n_decks`.

    A speed probe runs before every operation and once after the last.
    """
    latencies, probes, problems, specs = [], [], [], []
    failed = 0
    start = perf_counter()
    for i, deck in enumerate(decks):
        for spec in deck:
            gc.collect()   # each operation starts from a collected heap
            probes.append(speed.probe())
            if tracer is not None:
                tracer.op_id = len(specs)
            t0 = perf_counter()
            try:
                result = workload.execute(mods, state, spec)
            except Exception as exc:
                latencies.append(perf_counter() - t0)
                problem = f"{type(exc).__name__}: {exc}"
            else:
                latencies.append(perf_counter() - t0)
                try:
                    problem = workload.check(spec, result)
                except Exception as exc:
                    problem = f"malformed result: {type(exc).__name__}: {exc}"
            specs.append(spec)
            if problem is not None:
                failed += 1
                if len(problems) < SHOWN_PROBLEMS:
                    problems.append(f"{spec}: {problem}")
        if n_decks is not None and i + 1 >= n_decks:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    probes.append(speed.probe())
    return types.SimpleNamespace(
        latencies=latencies, rescaled=speed.rescale(latencies, probes), probes=probes,
        failed=failed, problems=problems, specs=specs,
    )


def tail(latencies):
    """(value, percentile, samples beyond): TAIL_BEYOND samples lie above it when
    there are enough, otherwise it is the maximum."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def measure(workload, seed, seconds, trace):
    """Returns (timed loops, metrics, notes, smoke-check results, tracer)."""
    setup_s, setup_probes, import_s, checks = [], [], [], []
    current = None
    for _ in range(workload.setup_reps):
        current = None   # release the previous set-up before the next one
        gc.collect()
        setup_probes.append(speed.probe())
        current = set_up(workload, seed)
        setup_s.append(current.seconds)
        import_s.append(current.import_s)
        checks += current.checks
    setup_probes.append(speed.probe())
    setup_rescaled = speed.rescale(setup_s, setup_probes)
    gc.freeze()
    if not trace:
        loop = run_decks(workload, current.mods, current.state, current.decks, seconds=seconds)
        ok = len(loop.latencies) - loop.failed
        value, pct, beyond = tail(loop.rescaled)
        raw_value, _, _ = tail(loop.latencies)
        metrics = {
            "verdicts_per_s": (ok / sum(loop.rescaled), "1/s"),
            "verdict_p50_ms": (1e3 * statistics.median(loop.rescaled), "ms"),
            "verdict_tail_ms": (1e3 * value, "ms"),
            "setup_s": (statistics.median(setup_rescaled), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        probes = loop.probes + setup_probes
        notes = [
            f"verdict_tail_ms is p{pct:.1f} of {len(loop.latencies)} samples ({beyond} beyond)",
            f"failed_ratio = {loop.failed / len(loop.latencies)} "
            f"({loop.failed} of {len(loop.latencies)})",
            f"setup_s samples = {[round(s, 4) for s in setup_rescaled]}",
            f"speed probe = {1e3 * statistics.median(probes)} ms median, "
            f"{1e3 * min(probes)}..{1e3 * max(probes)} ms, reference {1e3 * speed.REFERENCE_S} ms",
            f"raw wall times: verdicts_per_s = {ok / sum(loop.latencies)} 1/s, "
            f"verdict_p50_ms = {1e3 * statistics.median(loop.latencies)} ms, "
            f"verdict_tail_ms = {1e3 * raw_value} ms, setup_s = {statistics.median(setup_s)} s",
        ]
        return [loop], metrics, notes, checks, None

    base = run_decks(workload, current.mods, current.state, current.decks,
                     n_decks=workload.trace_decks)
    mods = current.mods
    current = None
    tracer = Tracer()
    tracer.install(mods)
    try:
        checks += smoke(mods)
        state = workload.setup(mods)
        gc.freeze()
        traced = run_decks(workload, mods, state, workload.decks(seed),
                           n_decks=workload.trace_decks, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["cli.import_s"] = (statistics.median(import_s), "s")
    metrics["trace.overhead_ratio"] = (sum(base.rescaled) / sum(traced.rescaled), "ratio")
    notes = [f"traced pass: {len(traced.specs)} operations in {workload.trace_decks} decks, "
             f"{len(tracer.spans)} spans"]
    return [base, traced], metrics, notes, checks, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = WORKLOADS[args.workload]
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    env = environment()
    loops, metrics, notes, checks, tracer = measure(workload, args.seed, args.seconds, args.trace)
    inputs = workload.describe(loops[-1].specs)
    smoke_failures = [problem for problem in checks if problem is not None]
    attempted = sum(len(loop.specs) for loop in loops) + len(checks)
    failed = sum(loop.failed for loop in loops) + len(smoke_failures)

    print("env " + json.dumps(env))
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print("inputs " + json.dumps(inputs))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for line in notes:
        print(line)
    for problem in smoke_failures[:SHOWN_PROBLEMS]:
        print(f"FAILED set-up smoke check: {problem}")
    for loop in loops:
        for problem in loop.problems:
            print(f"FAILED {problem}")
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "env": env, "workload": workload.name, "seed": args.seed, "inputs": inputs,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "span_fields": ["name", "start", "end", "parent", "folded_s", "op"],
            "spans": tracer.spans,
            "folded": {k: {"calls": c, "s": s} for k, (c, s) in tracer.folded.items()},
        }))
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
