"""CSTR benchmark plant, excitation-signal design, and dataset synthesis.

The plant is the classic two-state dimensionless continuous stirred-tank
reactor: ``x1`` is reactant conversion, ``x2`` the reactor temperature, and
the jacket temperature ``u`` is the manipulated input.  The measured output
is the reactor temperature plus white noise.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core_model import DivergenceError


@dataclass(frozen=True)
class CstrParams:
    B: float = 22.0
    Da: float = 0.082
    Db: float = 3.0


@dataclass(frozen=True)
class SimConfig:
    """Plant simulation settings: sampling, horizon, noise, integration grid."""

    sample_period: float = 1.0
    horizon: int = 900
    x0: tuple[float, float] = (0.0, 0.0)
    noise_std: float = 0.05
    seed: int = 0
    substeps: int = 16

    def __post_init__(self):
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.substeps < 1:
            raise ValueError("substeps must be at least 1")


@dataclass(frozen=True)
class Dataset:
    """Input/output sequences with a train/test split at ``split_index``."""

    U: np.ndarray  # (m, N)
    Y: np.ndarray  # (p, N)
    split_index: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        U = np.atleast_2d(np.asarray(self.U, dtype=float))
        Y = np.atleast_2d(np.asarray(self.Y, dtype=float))
        if U.shape[1] != Y.shape[1]:
            raise ValueError(f"U has {U.shape[1]} columns, Y has {Y.shape[1]}")
        if not 0 <= self.split_index <= U.shape[1]:
            raise ValueError(f"split_index {self.split_index} outside 0..{U.shape[1]}")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "Y", Y)

    @classmethod
    def from_arrays(cls, U, Y, split_index: int | None = None, meta: dict | None = None) -> "Dataset":
        """Wrap raw arrays; by default the whole sequence is the training window."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        if split_index is None:
            split_index = U.shape[1]
        return cls(U=U, Y=Y, split_index=split_index, meta=meta or {})

    @property
    def n_samples(self) -> int:
        return self.U.shape[1]

    @property
    def U_train(self) -> np.ndarray:
        return self.U[:, : self.split_index]

    @property
    def Y_train(self) -> np.ndarray:
        return self.Y[:, : self.split_index]

    @property
    def U_test(self) -> np.ndarray:
        return self.U[:, self.split_index:]

    @property
    def Y_test(self) -> np.ndarray:
        return self.Y[:, self.split_index:]


def _cstr_rates(x1: float, x2: float, u: float, params: CstrParams) -> tuple[float, float]:
    """The two CSTR state derivatives on Python floats (see :func:`cstr_derivative`)."""
    reaction = params.Da * (1.0 - x1) * float(np.exp(x2))
    return -x1 + reaction, -x2 + params.B * reaction - params.Db * (x2 - u)


def cstr_derivative(x: np.ndarray, u: float, params: CstrParams = CstrParams()) -> np.ndarray:
    """Continuous-time state derivative of the CSTR.

    ``dx1 = -x1 + Da (1 - x1) exp(x2)``
    ``dx2 = -x2 + B Da (1 - x1) exp(x2) - Db (x2 - u)``
    """
    return np.array(_cstr_rates(float(x[0]), float(x[1]), float(u), params))


def plant_step(
    x: np.ndarray,
    u: float,
    params: CstrParams = CstrParams(),
    dt: float = 1.0,
    substeps: int = 16,
) -> np.ndarray:
    """Advance the plant by one sampling period with the input held constant.

    Fixed-step RK4 with ``substeps`` stages over the period, on Python floats
    (two states are too few for array arithmetic to pay for its dispatch).
    The rates of :func:`_cstr_rates` are written out inline, with the same
    operations in the same order, to spare a call per stage.
    """
    if substeps < 1:
        raise ValueError("substeps must be at least 1")
    h = dt / substeps
    half, sixth = 0.5 * h, h / 6.0
    Da, B, Db, exp = params.Da, params.B, params.Db, np.exp
    x1, x2 = (float(v) for v in np.asarray(x, dtype=float))
    u = float(u)
    for _ in range(substeps):
        r = Da * (1.0 - x1) * float(exp(x2))
        k1a, k1b = -x1 + r, -x2 + B * r - Db * (x2 - u)
        y1, y2 = x1 + half * k1a, x2 + half * k1b
        r = Da * (1.0 - y1) * float(exp(y2))
        k2a, k2b = -y1 + r, -y2 + B * r - Db * (y2 - u)
        y1, y2 = x1 + half * k2a, x2 + half * k2b
        r = Da * (1.0 - y1) * float(exp(y2))
        k3a, k3b = -y1 + r, -y2 + B * r - Db * (y2 - u)
        y1, y2 = x1 + h * k3a, x2 + h * k3b
        r = Da * (1.0 - y1) * float(exp(y2))
        k4a, k4b = -y1 + r, -y2 + B * r - Db * (y2 - u)
        x1 = x1 + sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        x2 = x2 + sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    x = np.array([x1, x2])
    if not np.isfinite(x).all():
        raise DivergenceError(0, "plant state diverged within one sampling period")
    return x


INPUT_LEVEL_RANGE = (-0.6, 0.0)  # jacket-temperature levels of the CSTR study, inside [-1, 0]


def generate_input(
    seed: int,
    n_samples: int = 900,
    n_steps: int = 45,
    train_window: int = 500,
) -> np.ndarray:
    """Multi-level pseudo-random excitation signal, shape (1, n_samples).

    The training window is cut into ``n_steps + 1`` near-equal segments, so it
    contains exactly ``n_steps`` level changes; the remaining samples continue
    with segments of the same nominal length.  Levels are i.i.d. uniform over
    ``INPUT_LEVEL_RANGE``.
    """
    if not 0 < train_window <= n_samples:
        raise ValueError("train_window must be in 1..n_samples")
    n_segments = n_steps + 1
    if n_segments > train_window:
        raise ValueError("more level changes than training samples")
    rng = np.random.default_rng([int(seed), 0])
    lengths = [len(chunk) for chunk in np.array_split(np.arange(train_window), n_segments)]
    # continue the same style over the test window
    nominal = max(1, round(train_window / n_segments))
    remaining = n_samples - train_window
    while remaining > 0:
        take = min(nominal, remaining)
        lengths.append(take)
        remaining -= take
    levels = rng.uniform(*INPUT_LEVEL_RANGE, size=len(lengths))
    u = np.repeat(levels, lengths)
    return u[None, :]


def simulate_plant(params: CstrParams, sim: SimConfig, U: np.ndarray) -> np.ndarray:
    """True state trajectory (2, N) under the input sequence, noise-free."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    n = U.shape[1]
    X = np.empty((2, n))
    x = np.asarray(sim.x0, dtype=float)
    for k in range(n):
        X[:, k] = x
        if k < n - 1:
            try:
                x = plant_step(x, U[0, k], params, sim.sample_period, sim.substeps)
            except DivergenceError:
                raise DivergenceError(k + 1, f"plant diverged at step {k + 1}") from None
    return X


def generate_dataset(
    params: CstrParams,
    sim: SimConfig,
    U: np.ndarray,
    split_index: int = 500,
) -> Dataset:
    """Forward-simulate the plant and emit the noisy temperature measurement."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    X = simulate_plant(params, sim, U)
    noise_rng = np.random.default_rng([int(sim.seed), 1])
    Y = X[1:2, :] + sim.noise_std * noise_rng.standard_normal((1, U.shape[1]))
    meta = {
        "plant": "cstr",
        "seed": sim.seed,
        "noise_std": sim.noise_std,
        "params": {"B": params.B, "Da": params.Da, "Db": params.Db},
        "sample_period": sim.sample_period,
        "substeps": sim.substeps,
        "x0": list(sim.x0),
        "split_index": split_index,
    }
    return Dataset(U=U, Y=Y, split_index=split_index, meta=meta)


def dataset_to_csv(ds: Dataset, path: str | Path) -> None:
    """Write (k, u, y, split) rows plus a JSON metadata sidecar.

    The bytes are those of a ``csv.writer``: no field needs quoting, and lines
    end in ``\\r\\n``.
    """
    path = Path(path)
    lines = ["k,u,y,split"]
    lines += [f"{k},{u!r},{y!r},{'train' if k < ds.split_index else 'test'}"
              for k, (u, y) in enumerate(zip(ds.U[0].tolist(), ds.Y[0].tolist()))]
    with path.open("w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")
    sidecar_path(path).write_text(json.dumps(ds.meta, indent=1, sort_keys=True))


def _parse_column(path: Path, name: str, texts: list[str], kind: type, what: str) -> list:
    """``texts`` converted by ``kind``; ``ValueError`` naming the file and the row if one fails."""
    values = []
    for i, text in enumerate(texts):
        try:
            values.append(kind(text))
        except ValueError:
            raise ValueError(f"{path}: data row {i}: {name} must be {what}, got {text!r}") from None
    return values


def dataset_from_csv(path: str | Path) -> Dataset:
    """Read a :func:`dataset_to_csv` file; ``ValueError`` naming the file if it is malformed.

    Rows are read as ``csv.DictReader`` reads them: blank rows are skipped, a
    missing trailing field reads as an empty string, and of two columns with
    the same name the last one counts.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None) or []
        rows = [row for row in reader if row]
    missing = [c for c in ("k", "u", "y", "split") if c not in header]
    if missing:
        raise ValueError(f"{path}: missing column {', '.join(missing)}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    where = {name: j for j, name in enumerate(header)}  # the last of equal names wins

    def column(name: str) -> list[str]:
        j = where[name]
        return [row[j] if j < len(row) else "" for row in rows]

    if _parse_column(path, "k", column("k"), int, "an integer") != list(range(len(rows))):
        raise ValueError(f"{path}: column k must count 0..{len(rows) - 1} in order")
    splits = column("split")
    if not set(splits) <= {"train", "test"}:
        raise ValueError(f"{path}: split must be train or test")
    split_index = splits.count("train")
    if "test" in splits[:split_index]:
        raise ValueError(f"{path}: a train row follows a test row")
    us = _parse_column(path, "u", column("u"), float, "a number")
    ys = _parse_column(path, "y", column("y"), float, "a number")
    if not np.isfinite(us + ys).all():
        raise ValueError(f"{path}: u and y must be finite")
    meta = {}
    side = sidecar_path(path)
    if side.exists():
        meta = json.loads(side.read_text())
    return Dataset(U=np.array(us)[None, :], Y=np.array(ys)[None, :], split_index=split_index, meta=meta)


def sidecar_path(path: str | Path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".meta.json")
