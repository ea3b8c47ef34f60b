"""Order reduction by freezing low-variance states at their training mean.

States whose sample variance stays at or below a threshold barely move over
the training data, so :func:`core_model.select_states` holds them at their
mean and keeps the leading states; no retraining happens.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .benchmark import Dataset
from .core_model import (
    MODEL_SCHEMA_VERSION,
    SsnnModel,
    Trajectory,
    is_variance_ordered,
    model_from_dict,
    model_to_dict,
    select_states,
    simulate,
    variance_stats,
)

REDUCED_SCHEMA_VERSION = "ssnno-model-reduced/1"

ORDERING_SLACK = 1e-12


class VarianceOrderingError(ValueError):
    """Raised when state variances are not non-increasing."""


@dataclass(frozen=True)
class SignificanceReport:
    """Variance-threshold classification of states into significant and residual."""

    delta: float
    variances: np.ndarray
    significant_count: int
    residual_mean: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "variances", np.asarray(self.variances, dtype=float))
        object.__setattr__(self, "residual_mean", np.asarray(self.residual_mean, dtype=float))


@dataclass(frozen=True)
class ReducedModel:
    """Order-s network with residual-state means absorbed into first-layer biases."""

    model: SsnnModel
    delta: float
    residual_mean: np.ndarray
    source_order: int

    def __post_init__(self):
        object.__setattr__(self, "residual_mean", np.asarray(self.residual_mean, dtype=float))

    @property
    def order(self) -> int:
        return self.model.state_dim


def classify_states(model: SsnnModel, data: Dataset, delta: float) -> SignificanceReport:
    """Count significant states (variance strictly above ``delta``) on the training window.

    The model must already have non-increasing state variances; otherwise run
    the ordered-variance repair loop (``training.repair_variance_ordering``)
    before reducing.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    stats = variance_stats(simulate(model, data.U_train).states)
    if not is_variance_ordered(stats, slack=ORDERING_SLACK):
        raise VarianceOrderingError(
            f"state variances are not non-increasing ({stats.variances}); "
            "run training.repair_variance_ordering first"
        )
    s = int(np.sum(stats.variances > delta))
    return SignificanceReport(
        delta=delta,
        variances=stats.variances,
        significant_count=s,
        residual_mean=stats.mean[s:],
    )


def reduce(model: SsnnModel, report: SignificanceReport) -> ReducedModel:
    """Build the order-s model; exact whenever the residual states are constant."""
    d = model.state_dim
    s = report.significant_count
    if report.variances.shape[0] != d:
        raise ValueError("report does not match the model order")
    if s < 1:
        raise ValueError("threshold removes every state; lower delta")
    reduced = select_states(model, np.arange(s), report.residual_mean)
    return ReducedModel(
        model=reduced, delta=report.delta, residual_mean=report.residual_mean, source_order=d
    )


def reduced_simulate(rm: ReducedModel, U: np.ndarray) -> Trajectory:
    """Roll the reduced recursion forward; same contract as the full simulate."""
    return simulate(rm.model, U)


# --- serialization --------------------------------------------------------------


def reduced_to_dict(rm: ReducedModel) -> dict:
    doc = model_to_dict(rm.model)
    doc["version"] = REDUCED_SCHEMA_VERSION
    doc["reduction"] = {
        "delta": rm.delta,
        "significant_count": rm.order,
        "source_order": rm.source_order,
        "residual_mean": rm.residual_mean.tolist(),
    }
    return doc


def _number(v):
    return float(v) if type(v) in (int, float) else None


def _integer(v):
    return v if type(v) is int else None


def _entry(info: dict, name: str, convert, valid, requirement: str):
    """``convert(info[name])``, or a ValueError naming the entry if it is not ``valid``."""
    try:
        value = convert(info[name])
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or not valid(value):
        raise ValueError(f"reduced-model 'reduction' entry {name!r} must be {requirement}, not {info[name]!r}")
    return value


def reduced_from_dict(doc: dict) -> ReducedModel:
    if not isinstance(doc, dict):
        raise ValueError(f"reduced-model document must be a JSON object, not {type(doc).__name__}")
    if doc.get("version") != REDUCED_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported reduced-model document version: {doc.get('version')!r}; "
            "run the reduce command first"
        )
    inner = dict(doc)
    inner["version"] = MODEL_SCHEMA_VERSION
    try:
        info = doc["reduction"]
        if not isinstance(info, dict):
            raise ValueError(f"reduced-model 'reduction' entry must be an object, not {type(info).__name__}")
        model = model_from_dict(inner)
        s = model.state_dim
        delta = _entry(info, "delta", _number, lambda v: np.isfinite(v) and v >= 0, "a finite number >= 0")
        _entry(info, "significant_count", _integer, lambda v: v == s, f"the network's state_dim {s}")
        source_order = _entry(info, "source_order", _integer, lambda v: v >= s,
                              f"an integer >= significant_count {s}")
        residual_mean = _entry(info, "residual_mean", lambda v: np.asarray(v, dtype=float),
                               lambda v: v.shape == (source_order - s,) and np.isfinite(v).all(),
                               f"a finite vector of source_order - significant_count = {source_order - s} entries")
        return ReducedModel(model=model, delta=delta, residual_mean=residual_mean, source_order=source_order)
    except KeyError as exc:
        raise ValueError(f"reduced-model document has no {exc.args[0]!r} entry") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"reduced-model document has an entry of the wrong type or size: {exc}") from None


def save_reduced(rm: ReducedModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(reduced_to_dict(rm), indent=1))


def load_reduced(path: str | Path) -> ReducedModel:
    return reduced_from_dict(json.loads(Path(path).read_text()))
