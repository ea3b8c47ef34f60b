"""Command-line front end: data generation, training, reduction, evaluation,
Monte Carlo sweeps, and closed-loop MPC runs.  All outputs are CSV/JSON and
deterministic given the flags and seeds; every command writes a manifest
listing its outputs with content hashes.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import benchmark, estimation_control as ec, reduction, training
from .core_model import (
    DivergenceError,
    SsnnArchitecture,
    load_model,
    model_from_dict,
    random_model,
    save_model,
    simulate,
    variance_stats,
)
from .reduction import VarianceOrderingError

USAGE_EXIT = 1
NUMERIC_EXIT = 2

# input level changes in each Monte Carlo training window
MC_LEVEL_CHANGES = 45


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


def _out_dir() -> Path:
    return Path(os.environ.get("SSNNO_OUT_DIR", "."))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(command, args, inputs, outputs, started):
    primary = Path(outputs[0])
    manifest = {
        "command": command,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "inputs": [{"path": str(p), "sha256": _sha256(Path(p))} for p in inputs],
        "outputs": [
            {"path": str(p), "sha256": _sha256(Path(p)), "bytes": Path(p).stat().st_size}
            for p in outputs
        ],
        "started_unix": started,
        "elapsed_s": time.time() - started,
    }
    path = primary.with_name(primary.name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=1))
    return path


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _build_arch(d: int, p: int, state_hidden: str, output_hidden: str) -> SsnnArchitecture:
    state_widths = tuple(int(v) for v in state_hidden.split(",") if v.strip()) + (d,)
    output_widths = tuple(int(v) for v in output_hidden.split(",") if v.strip()) + (p,)
    return SsnnArchitecture(
        state_dim=d, input_dim=1, output_dim=p,
        state_layer_widths=state_widths, output_layer_widths=output_widths,
    )


def _load_any_model(path: Path):
    """The network in a full or reduced model file."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict) and doc.get("version") == reduction.REDUCED_SCHEMA_VERSION:
        return reduction.reduced_from_dict(doc).model
    return model_from_dict(doc)


def _metrics(net, data: benchmark.Dataset) -> dict[str, float]:
    """Table-style measures: per-state training variances and split MSEs.

    The test split continues the simulation from the state reached at the end
    of the training window (the trained initial state only covers training
    data), so one pass over the full input sequence provides both.
    """
    traj = simulate(net, data.U)
    split = data.split_index
    stats = variance_stats(traj.states[:, :split])
    n_test = data.n_samples - split
    out: dict[str, float] = {}
    for i, v in enumerate(stats.variances):
        out[f"V_x{i + 1}"] = float(v)
    r_tr = data.Y_train - traj.outputs[:, :split]
    out["MSE_tr"] = float((r_tr * r_tr).sum() / split)
    if n_test > 0:
        r_ts = data.Y_test - traj.outputs[:, split:]
        out["MSE_ts"] = float((r_ts * r_ts).sum() / n_test)
    return out


def _train_best(data, arch, weights, config, n_seeds: int, repair: bool):
    """Train from ``n_seeds`` consecutive seeds, keep the lowest final training loss.

    Returns ``(best_or_None, failures)`` where failures is a list of
    ``(seed, message)`` for seeds whose training blew up.
    """
    best = None
    failures = []
    for k in range(n_seeds):
        cfg_k = dataclasses.replace(config, seed=config.seed + k)
        initial = random_model(arch, np.random.default_rng(cfg_k.seed), cfg_k.init_scale)
        try:
            if repair:
                report = training.repair_variance_ordering(data, weights, cfg_k, initial)
            else:
                report = training.train(data, arch, weights, cfg_k, initial=initial)
        except (DivergenceError, np.linalg.LinAlgError) as exc:
            failures.append((cfg_k.seed, str(exc)))
            continue
        if best is None or report.loss_history[-1].total < best[0].loss_history[-1].total:
            best = (report, cfg_k.seed)
    return best, failures


# --- commands -------------------------------------------------------------------


def cmd_generate(args) -> int:
    started = time.time()
    out = Path(args.out) if args.out else _out_dir() / "dataset.csv"
    U = benchmark.generate_input(
        seed=args.seed, n_samples=args.n_samples, n_steps=args.n_steps, train_window=args.split
    )
    sim = benchmark.SimConfig(
        horizon=args.n_samples, noise_std=args.noise_std, seed=args.seed, substeps=args.substeps
    )
    ds = benchmark.generate_dataset(benchmark.CstrParams(), sim, U, split_index=args.split)
    out.parent.mkdir(parents=True, exist_ok=True)
    benchmark.dataset_to_csv(ds, out)
    _write_manifest("generate", args, [], [out, benchmark.sidecar_path(out)], started)
    print(f"wrote {out} ({ds.n_samples} samples, split {ds.split_index})")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    data = benchmark.dataset_from_csv(Path(args.data))
    out = Path(args.out) if args.out else _out_dir() / "model.json"
    arch = _build_arch(args.d, data.Y.shape[0], args.state_hidden, args.output_hidden)
    w = _parse_floats(args.weights) if args.weights else None
    weights = (
        training.LossWeights(alpha=args.alpha, beta=args.beta, w=np.asarray(w))
        if w else training.LossWeights.default(args.d, args.alpha, args.beta)
    )
    mode = training.BaselineMode(args.mode)
    config = training.TrainConfig(
        max_iterations=args.max_iter, seed=args.seed, init_scale=args.init_scale, baseline_mode=mode
    )
    best, failures = _train_best(data, arch, weights, config, args.seeds, args.repair)

    out.parent.mkdir(parents=True, exist_ok=True)
    base = out.with_suffix("")
    report_path = base.with_name(base.name + ".report.json")
    if best is None:
        report_path.write_text(json.dumps(
            {"status": "error", "mode": args.mode,
             "failed_seeds": [{"seed": seed, "error": msg} for seed, msg in failures]},
            indent=1))
        _write_manifest("train", args, [args.data], [report_path], started)
        raise DivergenceError(0, f"every seed failed; partial report saved to {report_path}")
    report, seed_used = best
    save_model(report.model, out)
    doc = training.report_to_dict(report)
    doc["seed"] = seed_used
    doc["mode"] = args.mode
    if failures:
        doc["failed_seeds"] = [{"seed": seed, "error": msg} for seed, msg in failures]
    report_path.write_text(json.dumps(doc, indent=1))
    history_path = base.with_name(base.name + ".history.csv")
    training.export_history_csv(report, history_path)
    _write_manifest("train", args, [args.data], [out, report_path, history_path], started)
    final = report.loss_history[-1]
    print(
        f"wrote {out} (seed {seed_used}, {report.iterations} iterations, "
        f"loss {final.total:.6g}, MSE_tr {final.spe / data.split_index:.6g})"
    )
    print(f"state variances: {np.array2string(report.stats.variances, precision=6)}")
    return 0


def cmd_reduce(args) -> int:
    started = time.time()
    model = load_model(Path(args.model))
    data = benchmark.dataset_from_csv(Path(args.data))
    out = Path(args.out) if args.out else _out_dir() / "reduced_model.json"
    report = reduction.classify_states(model, data, args.delta)
    rm = reduction.reduce(model, report)
    out.parent.mkdir(parents=True, exist_ok=True)
    reduction.save_reduced(rm, out)
    _write_manifest("reduce", args, [args.model, args.data], [out], started)
    print(f"delta={report.delta}: state variances {np.array2string(report.variances, precision=6)}")
    print(f"significant states: {report.significant_count} of {model.state_dim}")
    if report.residual_mean.size:
        print(f"residual-state means: {np.array2string(report.residual_mean, precision=6)}")
    print(f"wrote {out} (order {rm.order})")
    return 0


def cmd_evaluate(args) -> int:
    started = time.time()
    net = _load_any_model(Path(args.model))
    data = benchmark.dataset_from_csv(Path(args.data))
    out = Path(args.out) if args.out else _out_dir() / "metrics.csv"
    metrics = _metrics(net, data)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        fh.write("measure,value\n")
        for key, value in metrics.items():
            fh.write(f"{key},{value!r}\n")
    _write_manifest("evaluate", args, [args.model, args.data], [out], started)
    for key, value in metrics.items():
        print(f"{key}: {value:.6g}")
    return 0


def _mc_cell(cell_args):
    """One Monte Carlo cell: dataset at a noise level, one mode, one seed."""
    (level_idx, noise_std, mode_name, seed, base_seed, d, max_iter, n_samples, split) = cell_args
    dataset_seed = base_seed + level_idx
    U = benchmark.generate_input(
        seed=dataset_seed, n_samples=n_samples, n_steps=MC_LEVEL_CHANGES, train_window=split
    )
    sim = benchmark.SimConfig(horizon=n_samples, noise_std=noise_std, seed=dataset_seed)
    data = benchmark.generate_dataset(benchmark.CstrParams(), sim, U, split_index=split)
    arch = _build_arch(d, 1, "3", "3")
    weights = training.LossWeights.default(d, 0.0025, 0.25)
    mode = training.BaselineMode(mode_name)
    config = training.TrainConfig(max_iterations=max_iter, seed=seed, baseline_mode=mode)
    try:
        report = training.train(data, arch, weights, config)
        metrics = _metrics(report.model, data)
        total = report.loss_history[-1].total
        return (level_idx, noise_std, mode_name, seed, "ok", total, metrics)
    except (DivergenceError, np.linalg.LinAlgError) as exc:
        return (level_idx, noise_std, mode_name, seed, f"error: {exc}", np.inf, {})


def cmd_montecarlo(args) -> int:
    started = time.time()
    out = Path(args.out) if args.out else _out_dir() / "montecarlo.csv"
    if args.fast:
        levels = [0.01, 0.06]
        n_seeds = 2
    else:
        levels = _parse_floats(args.noise_levels)
        n_seeds = args.seeds
        if not levels:
            raise ValueError("--noise-levels lists no noise level")
        if n_seeds < 1:
            raise ValueError(f"--seeds must be at least 1, got {n_seeds}")
    if not MC_LEVEL_CHANGES < args.split <= args.n_samples:
        raise ValueError(
            f"--split {args.split} must be in {MC_LEVEL_CHANGES + 1}..{args.n_samples} (--n-samples): "
            f"each training window holds {MC_LEVEL_CHANGES} input level changes"
        )
    cells = [
        (i, lvl, mode, seed, args.seed, args.d, args.max_iter, args.n_samples, args.split)
        for i, lvl in enumerate(levels)
        for mode in ("ssnno", "ssnn")
        for seed in range(n_seeds)
    ]
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only this command uses it
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_mc_cell, cells))
    else:
        results = [_mc_cell(c) for c in cells]
    measures = tuple(f"V_x{i + 1}" for i in range(args.d)) + ("MSE_tr", "MSE_ts")

    # best seed per (level, mode) by final training loss, aggregation over successes
    best: dict[tuple[int, str], tuple] = {}
    for res in results:
        level_idx, _, mode_name, _, status, total, _ = res
        key = (level_idx, mode_name)
        if status == "ok" and (key not in best or total < best[key][5]):
            best[key] = res

    out.parent.mkdir(parents=True, exist_ok=True)
    detail_path = out.with_name(out.stem + "_cells.csv")
    with detail_path.open("w", newline="") as fh:
        fh.write("level_index,noise_std,mode,seed,status,train_loss," + ",".join(measures) + "\n")
        for level_idx, lvl, mode_name, seed, status, total, metrics in results:
            vals = ",".join(repr(metrics.get(k, float("nan"))) for k in measures)
            fh.write(f"{level_idx},{lvl},{mode_name},{seed},{status},{total!r},{vals}\n")

    with out.open("w", newline="") as fh:
        fh.write("model,measure,mean,variance\n")
        for mode_name in ("ssnno", "ssnn"):
            rows = [best[k] for k in sorted(best) if k[1] == mode_name]
            for measure in measures:
                values = np.array([r[6][measure] for r in rows if measure in r[6]])
                if values.size == 0:
                    continue
                var = float(values.var(ddof=1)) if values.size > 1 else 0.0
                fh.write(f"{mode_name},{measure},{float(values.mean())!r},{var!r}\n")
    _write_manifest("montecarlo", args, [], [out, detail_path], started)
    print(f"wrote {out} ({len(levels)} noise levels x {n_seeds} seeds, {len(results)} cells)")
    return 0


def cmd_mpc(args) -> int:
    started = time.time()
    rm = reduction.load_reduced(Path(args.reduced_model))
    out = Path(args.out) if args.out else _out_dir() / "mpc_log.csv"
    full_model = load_model(Path(args.full_model)) if args.full_model else None

    targets = ec.hold_levels(_parse_floats(args.targets), args.steps)

    q = _parse_floats(args.q) if args.q else None
    if q is not None and len(q) != rm.order:
        raise ValueError(f"--q has {len(q)} entries, the reduced model has order {rm.order}")

    ekf_cfg = ec.default_ekf_config(rm.order)
    base = ec.default_mpc_config(rm.order)
    mpc_cfg = ec.MpcConfig(
        horizon=args.horizon,
        state_weight=np.diag(q) if q is not None else base.state_weight,
        input_weight=np.array([[args.r]]) if args.r is not None else base.input_weight,
        u_min=np.array([args.u_min]),
        u_max=np.array([args.u_max]),
    )
    sim = benchmark.SimConfig(
        horizon=args.steps, noise_std=args.plant_noise_std, seed=args.plant_seed, substeps=args.substeps
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    inputs = [args.reduced_model] + ([args.full_model] if args.full_model else [])
    try:
        log = ec.closed_loop_run(
            benchmark.CstrParams(), sim, rm, ekf_cfg, mpc_cfg, targets=targets, full_model=full_model
        )
    except ec.ClosedLoopError as exc:
        exc.partial_log.to_csv(out)
        _write_manifest("mpc", args, inputs, [out], started)
        raise
    log.to_csv(out)
    _write_manifest("mpc", args, inputs, [out], started)
    err = np.abs(log.y_true - log.targets)
    print(f"wrote {out} ({log.n_steps} steps, final |y - y_t| = {err[-1]:.4g})")
    return 0


# --- parser ---------------------------------------------------------------------


@functools.cache  # built once per process, however many commands main runs in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ssnno", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a CSTR dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-std", type=float, default=0.05)
    p.add_argument("--n-samples", type=int, default=900)
    p.add_argument("--split", type=int, default=500)
    p.add_argument("--n-steps", type=int, default=45, help="input level changes in the training window")
    p.add_argument("--substeps", type=int, default=16)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit a model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--d", type=int, default=3, help="state dimension")
    p.add_argument("--alpha", type=float, default=0.0025)
    p.add_argument("--beta", type=float, default=0.25)
    p.add_argument("--weights", default=None, help="comma list overriding the 1..d variance weights")
    p.add_argument("--mode", choices=("ssnno", "ssnn"), default="ssnno")
    p.add_argument("--repair", action="store_true", help="run the ordered-variance repair loop")
    p.add_argument("--seeds", type=int, default=1, help="train this many seeds, keep the best")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", type=int, default=800)
    p.add_argument("--init-scale", type=float, default=0.5)
    p.add_argument("--state-hidden", default="3", help="comma list of hidden state-layer widths")
    p.add_argument("--output-hidden", default="3", help="comma list of hidden output-layer widths")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reduce", help="threshold state variances and build the reduced model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--delta", type=float, default=0.0005)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("evaluate", help="per-state variances and train/test MSE")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("montecarlo", help="noise-level sweep, best of several seeds per dataset")
    p.add_argument("--noise-levels", default="0.01,0.02,0.03,0.04,0.05,0.06")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="base seed for dataset generation")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--max-iter", type=int, default=800)
    p.add_argument("--n-samples", type=int, default=900)
    p.add_argument("--split", type=int, default=500)
    p.add_argument("--fast", action="store_true", help="2 noise levels x 2 seeds")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("mpc", help="closed-loop EKF + MPC run on the true plant")
    p.add_argument("--reduced-model", required=True)
    p.add_argument("--full-model", default=None, help="also log this model's open-loop prediction")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--targets", default="0.7,0.6,0.5,0.4")
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--q", default=None, help="comma list for the state-weight diagonal")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--u-min", type=float, default=-1.0)
    p.add_argument("--u-max", type=float, default=0.0)
    p.add_argument("--plant-noise-std", type=float, default=0.0)
    p.add_argument("--plant-seed", type=int, default=0)
    p.add_argument("--substeps", type=int, default=16)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mpc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (
        VarianceOrderingError,
        DivergenceError,
        ec.EstimationError,
        ec.SteadyStateError,
        ec.ClosedLoopError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
