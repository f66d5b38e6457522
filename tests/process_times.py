"""Start-up cost of a CLI process, compared across source trees.

Stdlib only and not part of Tier-1.  Give it two or more repository roots,
each holding `src/prodrule`, for example the parent commit unpacked with
`git archive` and the working tree:

    python tests/process_times.py ../parent .

The protocol: every process runs with `-S`, so that no `site` or `.pth`
file counts, and with `PYTHONPATH` naming only the tree's `src`.
`PYTHONDONTWRITEBYTECODE` is unset and `PYTHONPYCACHEPREFIX` points to a
temporary directory that one warm-up run per process fills, so each timed
process reads cached bytecode and compiles nothing.  Then `ROUNDS` = 21
rounds run, in each of them and for each tree in turn, the order of the
trees reversed every other round:
- a bare interpreter, `python -S -c pass`;
- `python -S -X importtime -c "import prodrule.cli"`;
- one `python -S -m prodrule.cli` process for each command in `COMMANDS`.

It prints each process's wall time, and the `-X importtime` cumulative time
of `prodrule.cli`, as the median with the quartiles in brackets, in ms.
Last come the `-X importtime` self times, median in microseconds, of every
module that some tree imports and another does not, and of the `HEAVIEST`
modules that cost most in any tree; "-" marks a module that a tree does
not import.
"""

from __future__ import annotations

import os
import re
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

COMMANDS = {
    "derive-d": ["derive-d"],
    "classify": ["classify"],
    "verify": ["verify", "--family", "all", "--max", str(10**6)],
    "eval": ["eval", "--c", "3", "--n", "1000"],
    "table": ["table", "--family", "triangular", "--max", "1000"],
    "constraints": ["constraints"],
}
ROUNDS = 21
HEAVIEST = 20
IMPORT = "import prodrule.cli"
CUMULATIVE = "-X importtime cumulative of prodrule.cli"
# name -> the interpreter arguments of each timed process
PROCESSES = {
    "python -S -c pass": ["-S", "-c", "pass"],
    IMPORT: ["-S", "-X", "importtime", "-c", IMPORT],
    **{name: ["-S", "-m", "prodrule.cli", *argv] for name, argv in COMMANDS.items()},
}
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| *(\S+)$", re.M)


def _source(tree: str) -> str:
    src = os.path.join(os.path.abspath(tree), "src")
    if not os.path.isfile(os.path.join(src, "prodrule", "cli.py")):
        raise SystemExit(f"error: no src/prodrule/cli.py under {tree}")
    return src


def _run(args: list[str], env: dict, cwd: str) -> tuple[float, str]:
    """Wall seconds of one process and its stderr; a process that fails stops the tool."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    wall = perf_counter() - start
    if proc.returncode:
        raise SystemExit(f"error: {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return wall, proc.stderr


def _summary(values: list[float], scale: float = 1e3) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2 * scale:6.1f} [{q1 * scale:.1f}-{q3 * scale:.1f}]"


def main(trees: list[str]) -> int:
    if len(trees) < 2 or any(tree.startswith("-") for tree in trees):
        raise SystemExit("usage: python tests/process_times.py TREE TREE [TREE ...]")
    sources = [_source(tree) for tree in trees]
    walls = [{name: [] for name in [*PROCESSES, CUMULATIVE]} for _ in sources]
    selfs: list[dict[str, list[int]]] = [{} for _ in sources]
    with tempfile.TemporaryDirectory() as tmp:
        base = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
        envs = [{**base, "PYTHONPATH": src, "PYTHONPYCACHEPREFIX": os.path.join(tmp, "pycache")}
                for src in sources]
        for env in envs:   # the warm-up fills the bytecode cache
            for proc_args in PROCESSES.values():
                _run(proc_args, env, tmp)
        for round_ in range(ROUNDS):
            order = range(len(sources)) if round_ % 2 == 0 else reversed(range(len(sources)))
            for i in order:
                for name, proc_args in PROCESSES.items():
                    wall, err = _run(proc_args, envs[i], tmp)
                    walls[i][name].append(wall)
                    if name == IMPORT:
                        for self_us, cumulative_us, module in _IMPORTTIME.findall(err):
                            selfs[i].setdefault(module, []).append(int(self_us))
                            if module == "prodrule.cli":
                                walls[i][CUMULATIVE].append(int(cumulative_us) / 1e6)
    print(f"{ROUNDS} interleaved rounds, Python {sys.version.split()[0]}, -S, cached bytecode")
    for i, tree in enumerate(trees):
        print(f"  tree {i}: {tree}")
    print("\nwall ms, median [quartiles]")
    width = max(map(len, walls[0]))
    print((" " * width + "".join(f"  {'tree ' + str(i):<22}" for i in range(len(sources)))).rstrip())
    for name in walls[0]:
        print((f"{name:<{width}}" + "".join(f"  {_summary(w[name]):<22}" for w in walls)).rstrip())
    medians = [{module: statistics.median(us) for module, us in s.items()} for s in selfs]
    heaviest = sorted({module for m in medians for module in m}, key=lambda mod: -max(m.get(mod, 0) for m in medians))
    shown = [module for rank, module in enumerate(heaviest)
             if rank < HEAVIEST or any(module not in m for m in medians)]
    print(f"\n-X importtime self us, median: the modules not every tree imports, and the {HEAVIEST} heaviest")
    width = max(map(len, shown))
    print(" " * width + "".join(f"  {'tree ' + str(i):>8}" for i in range(len(sources))))
    for module in shown:
        print(f"{module:<{width}}" + "".join(f"  {m[module]:>8.0f}" if module in m else f"  {'-':>8}" for m in medians))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
