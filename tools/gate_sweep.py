"""Run the first K operations of a benchmark run through their commands and gate.

A benchmark run with ``--seed RUN_SEED`` draws its operation seeds from one
stream per workload and runs as many as fit in its time budget, so a faster
program reaches op seeds that a slower one never ran.  This script takes the
first K seeds of that stream and runs each operation with the benchmark's own
``run_op`` (the workload's ``ssnno`` commands in-process, then its
correctness gate), untimed.  It prints one line per operation (its op seed,
the ``repr`` of its quality score and the SHA-256 of every output its commands
wrote) and every failure, then a summary line with the failure count and the
median quality score of the operations that passed (the statistic a timed run
reports as ``output_error``), and exits 1 if any operation failed.  The sweep
output of two checkouts differs only where the same operations came out
differently, so ``diff`` of the two compares them on the same ops:

    python3 tools/gate_sweep.py control 1 200              # this checkout
    python3 tools/gate_sweep.py identify 8 400 OTHER_ROOT  # the checkout at OTHER_ROOT

``benchmarks/run.py`` and ``benchmarks/workloads.py`` are imported from that
checkout and only read.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path

USAGE = "usage: gate_sweep.py WORKLOAD RUN_SEED K [ROOT]"


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4):
        print(USAGE, file=sys.stderr)
        return 2
    name, run_seed, k = argv[0], int(argv[1]), int(argv[2])
    root = Path(argv[3] if len(argv) > 3 else Path(__file__).resolve().parents[1]).resolve()
    sys.path.insert(0, str(root / "benchmarks"))
    import run as bench  # sets single-threaded BLAS before numpy loads, as a timed run does
    from calibration import Sampler

    if name not in bench.WORKLOADS:
        print(f"unknown workload {name!r}; choose from {', '.join(bench.WORKLOAD_NAMES)}",
              file=sys.stderr)
        return 2
    run_cli = bench.make_cli_runner(bench.load_cli())
    workload = bench.WORKLOADS[name](run_seed)
    sampler = Sampler(active=False)  # no timer: windows carry wall time only
    failed, quality = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        workload.setup(work)
        for i in range(k):
            op = bench.run_op(workload, workload.next_op_seed(), work / f"op{i}", sampler, run_cli)
            outputs = " ".join(f"{command}:{','.join(hashes)}" for command, hashes in op.hashes)
            print(f"op {i} seed {op.seed} quality {op.quality!r} {outputs}", flush=True)
            if op.ok:
                quality.append(op.quality)
            else:
                failed += 1
                print(f"FAILED op {i} (op seed {op.seed}): {op.error}", flush=True)
    median = repr(statistics.median(quality)) if quality else "none"
    print(f"{name} run seed {run_seed}: {failed} of {k} ops failed, median quality {median}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
