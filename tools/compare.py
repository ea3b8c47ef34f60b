"""Compare two checkouts on the reference outputs, the same benchmark ops and timed pairs.

    python3 tools/compare.py PARENT_ROOT RUN_SEED K [WORKLOAD] [--moved] [--pairs N]

In order, and stopping at the first difference or failure:

1. ``tools/output_hashes.py`` at PARENT_ROOT and at this checkout, diffed line
   by line;
2. for each workload in ``BENCHMARK.json`` (or only WORKLOAD), the first K op
   seeds of benchmark run RUN_SEED through ``tools/gate_sweep.py`` at both
   roots, diffed line by line.  Each line holds an op's seed, the ``repr`` of
   its quality score and the SHA-256 of every file its commands wrote, so
   equal output means both checkouts scored the same ops identically;
3. ``tools/margin.py`` at both roots, diffed line by line: the best-of-five
   training run that criteria 5 and 6 score, and its margins;
4. with ``--pairs N``, N pairs of ``benchmarks/run.py --workload all
   --seconds 50 --trace 0 --seed i`` (i = 1..N), one run at a time, the
   parent first in odd pairs.  It prints each pair's ``op_cal`` per workload,
   then per workload the medians, the change's wins (pairs where its
   ``op_cal`` is lower) and the parent's interquartile range (linear
   quartiles).  Its last line is one JSON object with every run's result.

Steps 1-3 run this checkout's copy of the scripts at both checkouts, side by
side, one process each.  The command prints one line per step and, at a
difference, the first differing line of each side (for a sweep, the first
differing op).  It exits 0 only when every line matches, no op failed and,
with ``--pairs``, every timed run exited 0.  ``benchmarks/`` at either root is
imported and run, and only read.

``--moved`` is for a change that moves the training outputs on purpose, so
steps 1-3 may differ.  A difference then does not stop the command: it prints
every differing output-hash line, the number of differing sweep lines with
each side's summary line (its failure count and median quality score on the
same K ops) and both margin outputs in full.  A failed op, a failing margin
(``tools/margin.py`` exits 1 when criterion 5 or 6 would fail) or a failed
timed run still stops it with exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
BENCH_ARGS = ("--workload", "all", "--seconds", "50", "--trace", "0")


def _run_both(script: str, args: list[str], roots: dict[str, Path]) -> dict[str, subprocess.CompletedProcess]:
    """Run ``tools/SCRIPT ARGS ROOT`` for each root at once; wait for both."""
    procs = {side: subprocess.Popen([sys.executable, str(HERE / "tools" / script), *args, str(root)],
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for side, root in roots.items()}
    outputs = {side: p.communicate() for side, p in procs.items()}
    return {side: subprocess.CompletedProcess(p.args, p.returncode, *outputs[side])
            for side, p in procs.items()}


def _differing_lines(results: dict[str, subprocess.CompletedProcess]) -> list[tuple[int, str, str]]:
    """``(line number, first side's line, second side's line)`` wherever the outputs differ."""
    (_, a), (_, b) = results.items()
    pairs = zip_longest(a.stdout.splitlines(), b.stdout.splitlines(), fillvalue="<no line>")
    return [(i + 1, a_line, b_line) for i, (a_line, b_line) in enumerate(pairs) if a_line != b_line]


def _report(step: str, script: str, results: dict[str, subprocess.CompletedProcess], moved: bool) -> bool:
    """Print the step's verdict and its differences; True if the two sides' outputs differ.

    By default only the first differing line is printed.  With ``moved``, a sweep
    prints its count of differing lines and each side's summary line, the margins
    print both outputs, and any other step prints every differing line.
    """
    (a_side, a), (b_side, _) = results.items()
    differing = _differing_lines(results)
    if not differing:
        print(f"{step}: {len(a.stdout.splitlines())} lines identical")
        return False
    print(f"{step}: DIFFERS at {len(differing)} line(s), first at line {differing[0][0]}")
    if moved and script == "margin.py":
        for side, result in results.items():
            for line in result.stdout.splitlines():
                print(f"  {side}: {line}")
    elif moved and script == "gate_sweep.py":
        for side, result in results.items():
            print(f"  {side}: {(result.stdout.splitlines() or ['<no output>'])[-1]}")
    else:
        for line_no, a_line, b_line in differing if moved else differing[:1]:
            print(f"  line {line_no} {a_side}: {a_line}")
            print(f"  line {line_no} {b_side}: {b_line}")
    return True


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


def _op_cal(run: dict, name: str) -> float | None:
    return run["result"].get("metrics", {}).get(f"{name}.op_cal", {}).get("value")


def _timed_pairs(n: int, roots: dict[str, Path], names: list[str]) -> int:
    """Run N benchmark pairs, print their ``op_cal`` and summary, then one JSON line."""
    runs, failed = [], False
    for seed in range(1, n + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            proc = subprocess.run([sys.executable, str(roots[side] / "benchmarks" / "run.py"), *BENCH_ARGS,
                                   "--seed", str(seed)], cwd=roots[side], capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            env = next((l.split(":", 1)[1] for l in lines if l.startswith("environment:")), "null")
            result = lines[-1] if lines and lines[-1].startswith("{") else "{}"  # {} if it crashed
            runs.append({"side": side, "seed": seed, "exit": proc.returncode,
                         "environment": json.loads(env), "result": json.loads(result)})
            if proc.returncode != 0:
                failed = True
                print(f"pair {seed}: {side} exited {proc.returncode}")
                for line in [l for l in lines if "FAILED" in l] + proc.stderr.strip().splitlines()[-5:]:
                    print(f"  {side}: {line}")
        cal = {(r["side"], name): _op_cal(r, name) for r in runs[-2:] for name in names}
        print(f"pair {seed} ({order[0]} first): " + "; ".join(
            f"{name} op_cal parent {cal['parent', name]:.1f} change {cal['change', name]:.1f}"
            for name in names if None not in (cal["parent", name], cal["change", name])), flush=True)

    summary = {}
    for name in names:
        side_cal = {side: [_op_cal(r, name) for r in runs if r["side"] == side] for side in ("parent", "change")}
        if None in side_cal["parent"] + side_cal["change"]:
            print(f"{name}: op_cal missing from a run")
            failed = True
            continue
        q1, _, q3 = statistics.quantiles(side_cal["parent"], n=4, method="inclusive") if n > 1 else (0, 0, 0)
        p_med, c_med = statistics.median(side_cal["parent"]), statistics.median(side_cal["change"])
        wins = sum(c < p for p, c in zip(side_cal["parent"], side_cal["change"]))
        summary[name] = {"parent_median": p_med, "change_median": c_med, "change_wins": wins,
                         "pairs": n, "parent_iqr": q3 - q1}
        print(f"{name} op_cal: median parent {p_med:.4g} change {c_med:.4g} ({(c_med - p_med) / p_med:+.1%}), "
              f"change lower in {wins} of {n}, parent IQR {q3 - q1:.4g}")
    print(json.dumps({"command": "python3 benchmarks/run.py " + " ".join(BENCH_ARGS) + " --seed <i>",
                      "order": f"{n} pairs, seeds 1-{n}, parent first on odd seeds",
                      "summary": summary, "runs": runs}))
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, metavar="PARENT_ROOT")
    p.add_argument("run_seed", type=int, metavar="RUN_SEED")
    p.add_argument("k", type=int, metavar="K")
    p.add_argument("workload", nargs="?", metavar="WORKLOAD")
    p.add_argument("--moved", action="store_true",
                   help="report differing outputs, sweeps and margins without stopping")
    p.add_argument("--pairs", type=int, default=0, metavar="N", help="timed benchmark pairs after the checks")
    args = p.parse_args(argv)
    names = [w["name"] for w in json.loads((HERE / "BENCHMARK.json").read_text())["workloads"]]
    if args.workload is not None and args.workload not in names:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if args.pairs < 0:
        p.error("--pairs must be non-negative")
    roots = {"parent": args.parent.resolve(), "change": HERE}

    steps = [("output hashes", "output_hashes.py", [])]
    steps += [(f"{name} run seed {args.run_seed}, {args.k} ops", "gate_sweep.py",
               [name, str(args.run_seed), str(args.k)])
              for name in ([args.workload] if args.workload else names)]
    steps += [("best-of-five margins", "margin.py", [])]
    for step, script, script_args in steps:
        results = _run_both(script, script_args, roots)
        differs = _report(step, script, results, args.moved)
        if _failed(step, results) or (differs and not args.moved):
            return 1
    return _timed_pairs(args.pairs, roots, names) if args.pairs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
