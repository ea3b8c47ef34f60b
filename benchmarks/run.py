"""ssnno benchmark: identify / control.

Runs in one process and drives one operation at a time through
``ssnno.cli.main`` (a closed loop, concurrency 1).  Every operation's time is
reported in units of a calibration kernel sampled on the same thread (see
``calibration.py``), so a host core that changes speed does not show up as a
change of the program.  The package is imported from ``src/`` of the checkout
this file sits in.

    python3 benchmarks/run.py --workload identify --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seconds 50

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracing.py``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 0 only if every operation passed its correctness gate.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# single-threaded BLAS: the program's arrays are tiny, and idle BLAS threads
# spinning on the second core only add noise
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from calibration import Sampler, Window  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOAD_NAMES, WORKLOADS, GateError  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PACKAGE = "ssnno"

MIN_OPS = 3  # a run always measures at least this many operations
SETUP_REPEATS = 3
REFERENCE_CAL_S = 1e-3  # setup_s is set-up time on a host where one cal takes 1 ms
LOW_SAMPLE_SHARE = 0.5  # an op with fewer than half the expected samples is flagged
CLI_COMMANDS = ("generate", "train", "reduce", "evaluate", "mpc")


class PackageMissing(RuntimeError):
    pass


def load_cli():
    """Import ``ssnno.cli`` from this checkout's ``src/``, and nowhere else."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise PackageMissing(f"no {PACKAGE} package under {SRC}")
    sys.path.insert(0, str(SRC))
    from ssnno import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise PackageMissing(f"imported {cli.__file__}, not the checkout's copy")
    return cli


def make_cli_runner(cli):
    def run_cli(argv: list[str]) -> int:
        """``ssnno <argv>`` in-process, output captured; returns the exit code."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed op, reported, not a dead run
                traceback.print_exc()
                rc = 3
        if rc != 0:
            sys.stderr.write(f"ssnno {' '.join(argv)}\n{err.getvalue()}")
        return rc

    return run_cli


def environment(raw_ms: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cal.raw_ms": raw_ms,
    }


# --- one operation ------------------------------------------------------------


@dataclass
class OpResult:
    seed: int
    window: Window
    commands: dict[str, Window]
    hashes: tuple
    quality: float | None = None
    error: str | None = None
    tracer: Tracer | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def manifest_hashes(opdir: Path) -> tuple:
    """Content hashes of every output listed by the op's manifests."""
    hashes = []
    for path in sorted(opdir.glob("*.manifest.json")):
        doc = json.loads(path.read_text())
        hashes.append((doc["command"], tuple(o["sha256"] for o in doc["outputs"])))
    return tuple(hashes)


def run_op(workload, op_seed: int, opdir: Path, sampler: Sampler, run_cli, traced=False) -> OpResult:
    opdir.mkdir(parents=True)
    tracer = Tracer(PACKAGE, lambda: sampler.busy) if traced else None
    per_command: dict[str, Window] = {}
    error = None
    start = sampler.snapshot()
    with tracer or contextlib.nullcontext():
        for argv in workload.commands(op_seed, opdir):
            cmd_start = sampler.snapshot()
            rc = run_cli(argv)
            per_command[argv[0]] = sampler.window(cmd_start)
            if rc != 0:
                error = f"`ssnno {argv[0]}` exited {rc}"
                break
    window = sampler.window(start)
    result = OpResult(op_seed, window, per_command, (), error=error, tracer=tracer)
    if result.ok:
        try:
            result.quality = workload.check(op_seed, opdir)
        except GateError as exc:
            result.error = str(exc)
    result.hashes = manifest_hashes(opdir)
    shutil.rmtree(opdir)
    return result


# --- set-up -------------------------------------------------------------------


IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
import {package}.cli
t1 = time.perf_counter()
sys.path.insert(0, {here!r})
from calibration import Sampler
print(t1 - t0, Sampler(active=False).time_kernel())
"""


def time_import() -> tuple[float, float]:
    """A fresh interpreter imports the CLI, as a user's first call does.

    Returns the import's seconds and the calibration kernel's seconds, both
    measured in that interpreter, on the core it ran on.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    code = IMPORT_PROBE.format(package=PACKAGE, here=str(HERE))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT,
                         timeout=60, capture_output=True, text=True).stdout
    import_s, kernel_s = (float(v) for v in out.split())
    return import_s, kernel_s


def set_up(workload, work: Path, repeats: int) -> tuple[list[float], list[float]]:
    """Set the workload up ``repeats`` times.

    One repeat is a fresh-interpreter import of the CLI plus the workload's
    own set-up (the fixture copy for ``control``) into an emptied work directory.  Each
    part is divided by the calibration kernel timed next to it.  Returns each
    repeat's time in reference seconds (``REFERENCE_CAL_S`` per cal) and in
    raw seconds.
    """
    probe = Sampler(active=False)
    normalised, raw = [], []
    for _ in range(repeats):
        import_s, import_kernel_s = time_import()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        kernel_before = probe.time_kernel()
        t0 = time.perf_counter()
        workload.setup(work)
        own_s = time.perf_counter() - t0
        kernel_s = 0.5 * (kernel_before + probe.time_kernel())
        normalised.append(REFERENCE_CAL_S * (import_s / import_kernel_s + own_s / kernel_s))
        raw.append(import_s + own_s)
    return normalised, raw


# --- runs -----------------------------------------------------------------------


@dataclass
class RunResult:
    workload: str
    ops: list[OpResult] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)  # outputs that differed between reruns

    @property
    def failed(self) -> int:
        return sum(not op.ok for op in self.ops) + len(self.mismatches)


def _keep_going(durations: list[float], started: float, seconds: float) -> bool:
    """Start another op while one more of typical length still fits in ``seconds``."""
    if len(durations) < MIN_OPS:
        return True
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def _flag_low_samples(op: OpResult, run: RunResult) -> None:
    w = op.window
    if w.samples < LOW_SAMPLE_SHARE * w.expected_samples:
        run.notes.append(
            f"low-samples op seed {op.seed}: {w.samples} samples in {w.wall:.2f}s "
            f"(expected ~{w.expected_samples:.0f})"
        )
    if w.samples == 0:
        op.error = op.error or "no calibration samples; time cannot be normalised"


def measure(workload, run_cli, seconds: float, setup_times, work: Path) -> RunResult:
    """Untraced run: the end-to-end metrics."""
    run = RunResult(workload.name)
    sampler = Sampler()
    with sampler:
        started = time.perf_counter()
        while _keep_going([op.window.wall for op in run.ops], started, seconds):
            op_seed = workload.next_op_seed()
            op = run_op(workload, op_seed, work / f"op{len(run.ops)}", sampler, run_cli)
            _flag_low_samples(op, run)
            run.ops.append(op)
    good = [op for op in run.ops if op.ok]
    op_cal = [op.window.cal for op in good]
    quality = [op.quality for op in good]
    if good:
        run.metrics["op_cal"] = (statistics.median(op_cal), "cal")
        run.metrics["output_error"] = (statistics.median(quality), "1")
        run.samples.update(op_cal=len(op_cal), output_error=len(quality))
        q1, q2, q3 = statistics.quantiles(op_cal, n=4) if len(op_cal) > 1 else op_cal * 3
        run.notes.append(f"op_cal quartiles {q1:.1f} / {q2:.1f} / {q3:.1f} cal; "
                         f"output_error is {workload.quality_metric}")
    normalised, raw = setup_times
    run.metrics["setup_s"] = (statistics.median(normalised), "s")
    run.samples["setup_s"] = len(normalised)
    run.notes.append(f"setup_s in raw seconds: median {statistics.median(raw):.4f}")
    windows = [op.window for op in run.ops]
    busy = sum(w.sampler_time for w in windows)
    wall = sum(w.wall for w in windows)
    run.notes.append(f"calibration: samples/op {statistics.median(w.samples for w in windows)}, "
                     f"sampler overhead {busy / wall:.4f}")
    return run


def trace(workload, run_cli, seconds: float, work: Path) -> RunResult:
    """Traced run: per-layer metrics, tracing overhead and the output checks.

    Each op seed runs untraced and then traced with the sampler on; the first
    also runs once with the sampler off.  All runs of one op seed must write
    outputs with identical SHA-256s.
    """
    run = RunResult(workload.name)
    pairs: list[tuple[OpResult, OpResult]] = []
    first_seed = workload.next_op_seed()
    reference = run_op(workload, first_seed, work / "op-nosampler", Sampler(active=False), run_cli)
    run.ops.append(reference)
    sampler = Sampler()
    with sampler:
        started = time.perf_counter()
        op_seed = first_seed
        while _keep_going([p.window.wall + t.window.wall for p, t in pairs], started, seconds):
            plain = run_op(workload, op_seed, work / f"op{len(pairs)}", sampler, run_cli)
            traced = run_op(workload, op_seed, work / f"op{len(pairs)}t", sampler, run_cli,
                            traced=True)
            for op in (plain, traced):
                _flag_low_samples(op, run)
                run.ops.append(op)
            if plain.hashes != traced.hashes:
                run.mismatches.append(f"op seed {op_seed}: outputs differ untraced vs traced")
            if op_seed == first_seed and plain.hashes != reference.hashes:
                run.mismatches.append(f"op seed {op_seed}: outputs differ with the sampler off")
            pairs.append((plain, traced))
            op_seed = workload.next_op_seed()
    if not run.mismatches:
        run.notes.append(
            f"determinism: {len(pairs)} op seeds each ran untraced and traced with identical "
            f"output SHA-256s; op seed {first_seed} matched with the sampler off too")
    good = [(p, t) for p, t in pairs if p.ok and t.ok]
    windows = [op.window for pair in pairs for op in pair]
    run.metrics.update(layer_metrics(good, windows))
    run.samples.update(dict.fromkeys(run.metrics, len(good)))
    run.notes.append(_dominant_note(good))
    return run


def layer_metrics(pairs: list[tuple[OpResult, OpResult]], windows: list[Window]) -> dict:
    m: dict[str, tuple[float, str]] = {}
    n = max(len(pairs), 1)
    traced = [t for _, t in pairs]
    work_s = sum(t.window.work_s for t in traced) or float("nan")

    def layer(name):
        calls = self_s = converged = 0
        latencies_cal = []
        for t in traced:
            st = t.tracer.layers.get(name)
            if st is None:
                continue
            calls += st.calls
            self_s += st.self_s
            converged += st.converged
            latencies_cal += [lat / t.window.cal_s for lat in st.latencies_s]
        return calls, self_s, converged, latencies_cal

    def counts_and_share(name, with_calls=True, with_share=True):
        calls, self_s, _, _ = layer(name)
        if with_calls:
            m[f"{name}.calls"] = (calls / n, "count")
        if with_share:
            m[f"{name}.share"] = (self_s / work_s if traced else 0.0, "ratio")

    # training
    counts_and_share("training.train")
    train_calls = layer("training.train")[0]
    unflatten_calls = layer("core_model.unflatten_params")[0]
    repair_calls = layer("training.repair_variance_ordering")[0]
    iterations = sum(t.tracer.iterations for t in traced)
    passes = sum(t.tracer.outer_passes for t in traced)
    evals = unflatten_calls - train_calls
    train_self_cal = sum(
        t.tracer.layers["training.train"].self_s / t.window.cal_s
        for t in traced if "training.train" in t.tracer.layers
    )
    m["training.iterations"] = (iterations / n, "count")
    m["training.outer_passes"] = (passes / repair_calls if repair_calls else 0.0, "count")
    m["training.objective_evals"] = (evals / n, "count")
    m["training.evals_per_iteration"] = (evals / iterations if iterations else 0.0, "ratio")
    m["training.iteration_cal"] = (train_self_cal / iterations if iterations else 0.0, "cal")

    for name in ("core_model.unflatten_params", "core_model.simulate",
                 "core_model.state_step", "core_model.output_map"):
        counts_and_share(name)

    counts_and_share("estimation_control.mpc_solve")
    calls, _, converged, lat = layer("estimation_control.mpc_solve")
    m["estimation_control.mpc_solve.p50_cal"] = (_percentile(lat, 50), "cal")
    m["estimation_control.mpc_solve.p99_cal"] = (_percentile(lat, 99), "cal")
    m["estimation_control.mpc_solve.converged_ratio"] = (converged / calls if calls else 0.0, "ratio")
    counts_and_share("estimation_control.ekf_step")
    m["estimation_control.ekf_step.p99_cal"] = (_percentile(layer("estimation_control.ekf_step")[3], 99), "cal")
    counts_and_share("estimation_control.solve_steady_state")

    counts_and_share("benchmark.plant_step")
    counts_and_share("benchmark.generate_dataset", with_calls=False)
    counts_and_share("benchmark.dataset_from_csv", with_calls=False)
    counts_and_share("permutation.permute_model")
    counts_and_share("permutation.variance_sort_index", with_share=False)
    counts_and_share("reduction.classify_states", with_calls=False)
    counts_and_share("reduction.reduce", with_calls=False)

    plain = [p for p, _ in pairs]
    for command in CLI_COMMANDS:
        # a command can be shorter than the sampling period: use the op's kernel mean
        runs = [(p.commands[command], p.window.cal_s) for p in plain if command in p.commands]
        m[f"cli.{command}.s"] = (sum(w.work_s for w, _ in runs) / n, "s")
        m[f"cli.{command}.cal"] = (sum(w.work_s / cal_s for w, cal_s in runs) / n, "cal")

    plain_cal = sum(p.window.cal for p in plain)
    traced_cal = sum(t.window.cal for t in traced)
    m["trace_overhead"] = (traced_cal / plain_cal - 1.0 if plain_cal else 0.0, "ratio")
    durations = [d for w in windows for d in w.kernel_durations]
    wall = sum(w.wall for w in windows)
    m["cal.raw_ms"] = (1e3 * float(np.mean(durations)) if durations else 0.0, "ms")
    m["cal.samples_per_op"] = (statistics.median(w.samples for w in windows) if windows else 0.0,
                               "count")
    m["cal.overhead"] = (sum(w.sampler_time for w in windows) / wall if wall else 0.0, "ratio")
    m["cal.low_sample_ops"] = (
        sum(w.samples < LOW_SAMPLE_SHARE * w.expected_samples for w in windows), "count")
    return m


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _dominant_note(pairs) -> str:
    totals: dict[str, float] = {}
    for _, t in pairs:
        for name, st in t.tracer.layers.items():
            totals[name] = totals.get(name, 0.0) + st.self_s
    if not totals:
        return "dominant layer: none traced"
    work_s = sum(t.window.work_s for _, t in pairs)
    top = sorted(totals.items(), key=lambda kv: -kv[1])[:3]
    return "dominant layers (self share): " + ", ".join(f"{k} {v / work_s:.3f}" for k, v in top)


# --- entry point -------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0, help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def run_workload(name: str, args, run_cli) -> RunResult:
    work = WORK / f"{os.getpid()}-{name}"
    workload = WORKLOADS[name](args.seed)
    try:
        setup_times = set_up(workload, work, 1 if args.trace else SETUP_REPEATS)
        if args.trace:
            return trace(workload, run_cli, args.seconds, work)
        return measure(workload, run_cli, args.seconds, setup_times, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        run_cli = make_cli_runner(load_cli())
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    runs = []
    try:
        for name in names:
            runs.append(run_workload(name, args, run_cli))
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    attempted = sum(len(r.ops) for r in runs)
    failed = sum(r.failed for r in runs)
    metrics = {}
    for r in runs:
        prefix = f"{r.workload}." if len(runs) > 1 else ""
        print(f"[{r.workload}] ops {len(r.ops)}, failed {r.failed}")
        for key, (value, unit) in r.metrics.items():
            count = r.samples.get(key)
            suffix = f"  (n={count})" if count is not None else ""
            print(f"[{r.workload}] {key} = {value:.6g} {unit}{suffix}")
            metrics[prefix + key] = {"value": value, "unit": unit}
        for note in r.notes:
            print(f"[{r.workload}] {note}")
        for mismatch in r.mismatches:
            print(f"[{r.workload}] FAILED determinism check, {mismatch}")
        for op in r.ops:
            if not op.ok:
                print(f"[{r.workload}] FAILED op seed {op.seed}: {op.error}")
    raw = [d for r in runs for op in r.ops for d in op.window.kernel_durations]
    print("environment:", json.dumps(environment(1e3 * float(np.mean(raw)) if raw else None)))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
