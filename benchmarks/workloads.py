"""The benchmark's workloads.

Each workload makes its inputs from the run seed, turns one operation into a
list of ``ssnno`` command lines, and checks the outputs of an operation (the
correctness gate).  Operation seeds come from ``default_rng([seed, k])``, so
the same run seed always gives the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURE_DIR = HERE / "fixture"

MSE_TR_LIMIT = 0.006  # criterion 5's training-MSE bound
ORDER_SLACK = 1e-12  # the slack the reduction allows in the variance ordering
TRACK_LIMIT = 0.05  # criterion 11's settled tracking error
SETTLE_STEPS = 10
U_BOUNDS = (-1.0, 0.0)


class GateError(Exception):
    """An operation's outputs failed the correctness gate."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _check_trained(report_path: Path, split: int) -> float:
    """Variances non-increasing and MSE_tr within bound; returns MSE_tr."""
    report = json.loads(report_path.read_text())
    v = report["state_variances"]
    if any(a < b - ORDER_SLACK for a, b in zip(v, v[1:])):
        raise GateError(f"state variances not non-increasing: {v}")
    mse = report["final_loss"]["spe"] / split
    if not mse <= MSE_TR_LIMIT:
        raise GateError(f"MSE_tr {mse:.4g} exceeds {MSE_TR_LIMIT}")
    return mse


def _check_evaluated(metrics_path: Path) -> None:
    values = {row["measure"]: float(row["value"]) for row in _read_csv(metrics_path)}
    if "MSE_tr" not in values or not all(math.isfinite(v) for v in values.values()):
        raise GateError(f"reduced model did not evaluate: {values}")


class Workload:
    """Inputs, command lines and correctness gate of one kind of operation."""

    name = ""
    quality_metric = ""

    def __init__(self, seed: int):
        self._op_rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])

    def next_op_seed(self) -> int:
        return int(self._op_rng.integers(0, 2**31 - 1))

    def setup(self, work: Path) -> None:
        """Make the run's shared inputs under ``work``."""

    def commands(self, op_seed: int, opdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, op_seed: int, opdir: Path) -> float:
        """Raise :class:`GateError` on a wrong output; return the quality measure."""
        raise NotImplementedError


class Identify(Workload):
    """generate -> train --repair -> reduce -> evaluate, one seed per op."""

    name = "identify"
    quality_metric = "mse_tr"
    # 200 training samples with 18 level changes (the paper's segment length),
    # then 160 test samples
    n_samples = 360
    split = 200
    n_steps = 18
    max_iter = 40

    def commands(self, op_seed, opdir):
        data, model, reduced = opdir / "data.csv", opdir / "model.json", opdir / "reduced.json"
        s = str(op_seed)
        return [
            ["generate", "--seed", s, "--n-samples", str(self.n_samples), "--split",
             str(self.split), "--n-steps", str(self.n_steps), "--out", str(data)],
            ["train", "--data", str(data), "--repair", "--seed", s,
             "--max-iter", str(self.max_iter), "--out", str(model)],
            ["reduce", "--model", str(model), "--data", str(data), "--delta", "0.0005",
             "--out", str(reduced)],
            ["evaluate", "--model", str(reduced), "--data", str(data),
             "--out", str(opdir / "metrics.csv")],
        ]

    def check(self, op_seed, opdir):
        mse = _check_trained(opdir / "model.report.json", self.split)
        _check_evaluated(opdir / "metrics.csv")
        return mse


class Control(Workload):
    """ssnno mpc on the true plant from the committed model pair."""

    name = "control"
    quality_metric = "track_mae"
    n_levels = 5
    segment_steps = 60
    level_range = (0.4, 0.7)
    plant_noise_std = 0.02

    def setup(self, work):
        manifest = json.loads((FIXTURE_DIR / "FIXTURE.json").read_text())
        self.models = {}
        for entry in manifest["files"]:
            src = FIXTURE_DIR / entry["path"]
            if sha256(src) != entry["sha256"]:
                raise GateError(f"fixture {entry['path']} does not match its recorded SHA-256")
            shutil.copyfile(src, work / entry["path"])
            self.models[entry["role"]] = work / entry["path"]

    def _levels(self, op_seed: int) -> list[float]:
        rng = np.random.default_rng([op_seed, 3])
        return [round(float(v), 3) for v in rng.uniform(*self.level_range, self.n_levels)]

    def commands(self, op_seed, opdir):
        levels = ",".join(repr(v) for v in self._levels(op_seed))
        return [
            ["mpc", "--reduced-model", str(self.models["reduced"]),
             "--full-model", str(self.models["full"]),
             "--steps", str(self.n_levels * self.segment_steps), "--targets", levels,
             "--plant-noise-std", repr(self.plant_noise_std), "--plant-seed", str(op_seed),
             "--out", str(opdir / "mpc_log.csv")],
        ]

    def check(self, op_seed, opdir):
        rows = _read_csv(opdir / "mpc_log.csv")
        if len(rows) != self.n_levels * self.segment_steps:
            raise GateError(f"closed-loop log has {len(rows)} rows")
        u = np.array([float(r["u"]) for r in rows])
        if not np.all((u >= U_BOUNDS[0]) & (u <= U_BOUNDS[1])):
            raise GateError("an input left [-1, 0]")
        y, target = (np.array([float(r[col]) for r in rows]).reshape(self.n_levels, -1)
                     for col in ("y_true", "y_target"))
        errors = np.abs(y - target)[:, -SETTLE_STEPS:]  # the settled end of each segment
        if not errors.max() <= TRACK_LIMIT:
            raise GateError(f"settled tracking error {errors.max():.4f} exceeds {TRACK_LIMIT}")
        return float(errors.mean())


WORKLOADS = {w.name: w for w in (Identify, Control)}
WORKLOAD_NAMES = tuple(WORKLOADS)
