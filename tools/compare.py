"""Compare two checkouts on the reference outputs and on the same benchmark ops.

    python3 tools/compare.py PARENT_ROOT RUN_SEED K [WORKLOAD]

In order, and stopping at the first difference or failure:

1. ``tools/output_hashes.py`` at PARENT_ROOT and at this checkout, diffed line
   by line;
2. for each workload in ``BENCHMARK.json`` (or only WORKLOAD), the first K op
   seeds of benchmark run RUN_SEED through ``tools/gate_sweep.py`` at both
   roots, diffed line by line.  Each line holds an op's seed, the ``repr`` of
   its quality score and the SHA-256 of every file its commands wrote, so
   equal output means both checkouts scored the same ops identically.

Both checkouts run this checkout's copy of the two scripts, side by side, one
process each.  The command prints one line per step and, at a difference, the
first differing line of each side (for a sweep, the first differing op).  It
exits 0 only when every line matches and both sweeps report 0 failed ops.
``benchmarks/`` at either root is imported and only read.
"""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

USAGE = "usage: compare.py PARENT_ROOT RUN_SEED K [WORKLOAD]"
HERE = Path(__file__).resolve().parents[1]


def _run_both(script: str, args: list[str], roots: dict[str, Path]) -> dict[str, subprocess.CompletedProcess]:
    """Run ``tools/SCRIPT ARGS ROOT`` for each root at once; wait for both."""
    procs = {side: subprocess.Popen([sys.executable, str(HERE / "tools" / script), *args, str(root)],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for side, root in roots.items()}
    outputs = {side: p.communicate() for side, p in procs.items()}
    return {side: subprocess.CompletedProcess(p.args, p.returncode, *outputs[side])
            for side, p in procs.items()}


def _first_difference(step: str, results: dict[str, subprocess.CompletedProcess]) -> bool:
    """Print the step's verdict; True if the two sides' outputs differ."""
    (a_side, a), (b_side, b) = results.items()
    a_lines, b_lines = a.stdout.splitlines(), b.stdout.splitlines()
    for i, (a_line, b_line) in enumerate(zip_longest(a_lines, b_lines, fillvalue="<no line>")):
        if a_line != b_line:
            print(f"{step}: DIFFERS at line {i + 1}")
            print(f"  {a_side}: {a_line}")
            print(f"  {b_side}: {b_line}")
            return True
    print(f"{step}: {len(a_lines)} lines identical")
    return False


def _failed(step: str, results: dict[str, subprocess.CompletedProcess]) -> bool:
    """Print every side whose script exited non-zero, with its failure lines."""
    failed = False
    for side, result in results.items():
        if result.returncode != 0:
            failed = True
            print(f"{step}: {side} exited {result.returncode}")
            lines = [l for l in result.stdout.splitlines() if l.startswith("FAILED")]
            for line in lines + result.stderr.strip().splitlines()[-5:]:
                print(f"  {side}: {line}")
    return failed


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(USAGE, file=sys.stderr)
        return 2
    parent, run_seed, k = Path(argv[0]).resolve(), int(argv[1]), int(argv[2])
    names = [w["name"] for w in json.loads((HERE / "BENCHMARK.json").read_text())["workloads"]]
    if len(argv) == 4:
        if argv[3] not in names:
            print(f"unknown workload {argv[3]!r}; choose from {', '.join(names)}", file=sys.stderr)
            return 2
        names = [argv[3]]
    roots = {"parent": parent, "change": HERE}

    steps = [("output hashes", "output_hashes.py", [])]
    steps += [(f"{name} run seed {run_seed}, {k} ops", "gate_sweep.py", [name, str(run_seed), str(k)])
              for name in names]
    for step, script, args in steps:
        results = _run_both(script, args, roots)
        differs = _first_difference(step, results)
        if _failed(step, results) or differs:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
