"""Time the set-up of `qident` on two source trees.

    python tools/setup_time.py OLD_SRC NEW_SRC [--runs N]

Set-up is what every `qident verify` or `qident parse` pays before it
expands a series: `import qident.cli` and the parse of `catalog()`.  Each
run starts one fresh interpreter per tree, the trees in alternating order,
with PYTHONDONTWRITEBYTECODE=1, so that a tree without a bytecode cache
compiles its source at every import, as a fresh checkout does.  It times
the import and the catalog, then compiles every module of the package
once more on its own, the share of the import that compiling takes.  One
more interpreter per tree and run imports the CLI under `-X importtime`.
Prints one JSON object: per tree, the medians in milliseconds over the
runs, and the TOP (12) modules with the largest median self time of
`-X importtime`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

TOP = 12

SETUP = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qident.cli
t1 = time.perf_counter()
sys.modules["qident.catalog"].catalog()
t2 = time.perf_counter()
import gc
from pathlib import Path
sources = [p.read_bytes() for p in Path(sys.argv[1], "qident").glob("*.py")]
gc.disable()  # the compile alone, not a collection of the set-up's objects
t3 = time.perf_counter()
for text in sources:
    compile(text, "<qident>", "exec")
t4 = time.perf_counter()
print(t1 - t0, t2 - t1, t4 - t3)
"""


def fresh_env(**extra):
    """The environment of an interpreter that writes no bytecode cache."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", **extra)


def setup_once(src):
    """(import, catalog, compile) seconds in one fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", SETUP, src], env=fresh_env(),
                         capture_output=True, text=True, check=True)
    return [float(x) for x in out.stdout.split()]


def import_self_times(src):
    """Self microseconds of every module `import qident.cli` loads."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qident.cli"],
                         env=fresh_env(PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    times = {}
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        times[name.strip()] = int(self_us)
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--runs", type=int, default=15)
    args = ap.parse_args()
    sides = {"old": args.old_src, "new": args.new_src}
    timings = {side: [] for side in sides}
    modules = {side: {} for side in sides}
    for run in range(args.runs):
        for side in (("old", "new") if run % 2 == 0 else ("new", "old")):
            timings[side].append(setup_once(sides[side]))
            for name, us in import_self_times(sides[side]).items():
                modules[side].setdefault(name, []).append(us)
    result = {"runs": args.runs}
    for side, rows in timings.items():
        imports, catalogs, compiles = zip(*rows)
        top = sorted(((statistics.median(us) / 1000, name)
                      for name, us in modules[side].items()), reverse=True)
        result[side] = {
            "src": sides[side],
            "import_ms": round(statistics.median(imports) * 1000, 2),
            "catalog_ms": round(statistics.median(catalogs) * 1000, 2),
            "setup_ms": round(statistics.median(
                i + c for i, c, _ in rows) * 1000, 2),
            "compile_ms": round(statistics.median(compiles) * 1000, 2),
            "importtime_self_ms": {name: round(ms, 2) for ms, name in top[:TOP]},
        }
    print(json.dumps(result, indent=2))


if __name__ == "__main__":
    main()
