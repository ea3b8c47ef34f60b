"""Interleaved A/B timing of two checkouts in one process, to size a change.

    python3 tools/interleave.py PARENT_ROOT WORKLOAD RUN_SEED K

Copies ``src/ssnno`` of PARENT_ROOT and of this checkout into a temporary
directory as two packages, ``ssnno_parent`` and ``ssnno_change``, and imports
both into this process.  It then runs the first K op seeds of benchmark run
RUN_SEED of WORKLOAD (``identify`` or ``control``) through each package's
``cli.main`` in turn, the parent first on even ops and the change first on odd
ones, and times every command in process time.  It prints one line per op with
each command's change-over-parent time ratio, then per command the median of
the per-op ratios and the ratio of the totals.  Exits 1 if any command failed.

Both sides of an op run back to back on the same core, so a host whose speed
drifts between separate runs moves both alike and the ratios cancel that
drift.  This is a sizing aid only: it has no calibration and no gate, and a
claimed gain still needs ``tools/compare.py --pairs``.  ``benchmarks/`` of this
checkout supplies the op seeds and commands and is only read.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
USAGE = "usage: interleave.py PARENT_ROOT WORKLOAD RUN_SEED K"


def _load(root: Path, name: str, into: Path):
    """``cli`` of the ``ssnno`` package under ROOT, imported as package NAME."""
    shutil.copytree(root / "src" / "ssnno", into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def _timed(cli, argv: list[str]) -> tuple[int, float]:
    """Exit code and process time of ``cli.main(argv)``, its output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.process_time()
        rc = cli.main(argv)
        return rc, time.process_time() - start


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(USAGE, file=sys.stderr)
        return 2
    parent_root, name, run_seed, k = Path(argv[0]).resolve(), argv[1], int(argv[2]), int(argv[3])
    if k < 1:
        print(USAGE + " (K >= 1)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE / "benchmarks"))
    import run as bench  # sets single-threaded BLAS before numpy loads, as a timed run does

    if name not in bench.WORKLOADS:
        print(f"unknown workload {name!r}; choose from {', '.join(bench.WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[name](run_seed)
    times: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        clis = {"parent": _load(parent_root, "ssnno_parent", tmp), "change": _load(HERE, "ssnno_change", tmp)}
        work = tmp / "work"
        work.mkdir()
        workload.setup(work)
        for i in range(k):
            op_seed = workload.next_op_seed()
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                opdir = work / side / f"op{i}"
                opdir.mkdir(parents=True)
                for command in workload.commands(op_seed, opdir):
                    rc, seconds = _timed(clis[side], command)
                    times[side].setdefault(command[0], []).append(seconds)
                    if rc != 0:
                        failed = True
                        print(f"FAILED op {i} (op seed {op_seed}): {side} `ssnno {command[0]}` exited {rc}")
                        break
                shutil.rmtree(opdir)
            if failed:
                break
            ratios = {c: times["change"][c][-1] / times["parent"][c][-1] for c in times["parent"]}
            ratios["op"] = (sum(t[-1] for t in times["change"].values())
                            / sum(t[-1] for t in times["parent"].values()))
            print(f"op {i} seed {op_seed}: " + " ".join(f"{c} {r:.3f}" for c, r in ratios.items()), flush=True)
    if failed:
        return 1
    commands = list(times["parent"])
    times["parent"]["op"] = [sum(t) for t in zip(*times["parent"].values())]
    times["change"]["op"] = [sum(t) for t in zip(*times["change"].values())]
    for command in commands + ["op"]:
        parent, change = times["parent"][command], times["change"][command]
        median = statistics.median(c / p for p, c in zip(parent, change))
        print(f"{command}: median ratio {median:.3f}, total ratio {sum(change) / sum(parent):.3f} "
              f"(parent {sum(parent):.3f} s, change {sum(change):.3f} s, {len(parent)} ops)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
