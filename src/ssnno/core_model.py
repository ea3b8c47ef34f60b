"""Layered state-space neural network: model types, evaluation, state statistics.

A model is a pair of feedforward subnetworks plus a trainable initial state:
the state subnetwork advances ``x_{k+1} = f(x_k, u_k)`` on the concatenated
vector ``[x; u]``, the output subnetwork maps ``yhat_k = g(x_k)``.  Hidden
layers use tanh, the last layer of each subnetwork is linear.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from pathlib import Path

import numpy as np

MODEL_SCHEMA_VERSION = "ssnno-model/1"


class ModelDimensionError(ValueError):
    """Raised when an input does not match the model's layer dimensions."""


class DivergenceError(RuntimeError):
    """Raised when a simulation produces a non-finite value.

    Attributes
    ----------
    step : int
        Index of the simulation step at which the value went non-finite.
    """

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


class ActivationKind(Enum):
    TANH = "tanh"
    LINEAR = "linear"


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ModelDimensionError(f"{name} must be a 2-D array, got ndim={arr.ndim}")
    return arr


def _as_vector(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 1:
        raise ModelDimensionError(f"{name} must be a 1-D array, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class LayerParams:
    """One affine layer ``act(weights @ v + bias)``."""

    weights: np.ndarray  # (width, fan_in)
    bias: np.ndarray  # (width,)
    activation: ActivationKind

    def __post_init__(self):
        # C order keeps BLAS summing in one order however the array was sliced
        w = np.ascontiguousarray(_as_matrix(self.weights, "weights"))
        b = _as_vector(self.bias, "bias")
        if w.shape[0] != b.shape[0]:
            raise ModelDimensionError(
                f"layer width mismatch: weights have {w.shape[0]} rows, bias has length {b.shape[0]}"
            )
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("layer parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def width(self) -> int:
        return self.weights.shape[0]

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class SsnnArchitecture:
    """Widths of both subnetworks.

    ``state_layer_widths`` lists every state-subnetwork layer width; the last
    entry must equal ``state_dim``.  The first state layer consumes
    ``state_dim + input_dim`` values.  ``output_layer_widths`` is analogous,
    with the first layer consuming ``state_dim`` values and the last entry
    equal to ``output_dim``.
    """

    state_dim: int
    input_dim: int
    output_dim: int
    state_layer_widths: tuple[int, ...]
    output_layer_widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "state_layer_widths", tuple(int(w) for w in self.state_layer_widths))
        object.__setattr__(self, "output_layer_widths", tuple(int(w) for w in self.output_layer_widths))
        for name in ("state_dim", "input_dim", "output_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if len(self.state_layer_widths) < 1 or len(self.output_layer_widths) < 1:
            raise ValueError("each subnetwork needs at least one layer")
        if any(w < 1 for w in self.state_layer_widths + self.output_layer_widths):
            raise ValueError("layer widths must be positive")
        if self.state_layer_widths[-1] != self.state_dim:
            raise ValueError(
                f"last state layer width {self.state_layer_widths[-1]} must equal state_dim {self.state_dim}"
            )
        if self.output_layer_widths[-1] != self.output_dim:
            raise ValueError(
                f"last output layer width {self.output_layer_widths[-1]} must equal output_dim {self.output_dim}"
            )

    @property
    def state_fan_ins(self) -> tuple[int, ...]:
        return (self.state_dim + self.input_dim,) + self.state_layer_widths[:-1]

    @property
    def output_fan_ins(self) -> tuple[int, ...]:
        return (self.state_dim,) + self.output_layer_widths[:-1]

    @property
    def n_params(self) -> int:
        """Full parameter count: both subnetworks plus the initial state."""
        widths = self.state_layer_widths + self.output_layer_widths
        return sum(w * f + w for w, f in zip(widths, self.state_fan_ins + self.output_fan_ins)) + self.state_dim


def default_activations(n_layers: int) -> tuple[ActivationKind, ...]:
    """Hidden layers tanh, final layer linear."""
    return tuple(ActivationKind.TANH for _ in range(n_layers - 1)) + (ActivationKind.LINEAR,)


@dataclass(frozen=True)
class SsnnModel:
    """Full parameter set: state subnetwork, output subnetwork, initial state."""

    arch: SsnnArchitecture
    state_layers: tuple[LayerParams, ...]
    output_layers: tuple[LayerParams, ...]
    x0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "state_layers", tuple(self.state_layers))
        object.__setattr__(self, "output_layers", tuple(self.output_layers))
        object.__setattr__(self, "x0", _as_vector(self.x0, "x0"))
        arch = self.arch
        if self.x0.shape[0] != arch.state_dim:
            raise ModelDimensionError(f"x0 has length {self.x0.shape[0]}, expected {arch.state_dim}")
        _check_chain(self.state_layers, arch.state_layer_widths, arch.state_fan_ins, "state")
        _check_chain(self.output_layers, arch.output_layer_widths, arch.output_fan_ins, "output")

    @property
    def state_dim(self) -> int:
        return self.arch.state_dim

    @property
    def input_dim(self) -> int:
        return self.arch.input_dim

    @property
    def output_dim(self) -> int:
        return self.arch.output_dim


def _check_chain(layers, widths, fan_ins, which: str):
    if len(layers) != len(widths):
        raise ModelDimensionError(f"{which} subnetwork has {len(layers)} layers, expected {len(widths)}")
    for i, (layer, width, fan_in) in enumerate(zip(layers, widths, fan_ins)):
        if layer.width != width or layer.fan_in != fan_in:
            raise ModelDimensionError(
                f"{which} layer {i}: shape {layer.weights.shape}, expected ({width}, {fan_in})"
            )


@dataclass(frozen=True)
class Trajectory:
    """Simulated state and output sequences, one column per time instant."""

    states: np.ndarray  # (d, N)
    outputs: np.ndarray  # (p, N)


@dataclass(frozen=True)
class VarianceStats:
    """Sample mean, covariance and per-state variances of a state sequence."""

    mean: np.ndarray  # (d,)
    covariance: np.ndarray  # (d, d)
    variances: np.ndarray  # (d,), diagonal of covariance


def layer_forward(layer: LayerParams, value: np.ndarray, index: int | None = None) -> np.ndarray:
    """Apply a single layer to a vector (or to each column of a matrix)."""
    value = np.asarray(value, dtype=float)
    if value.shape[0] != layer.fan_in:
        where = f"layer {index}" if index is not None else "layer"
        raise ModelDimensionError(
            f"{where}: input has {value.shape[0]} rows, weights expect {layer.fan_in}"
        )
    return chain_forward((layer,), value)[-1]


# --- layer chain: forward values, reverse and forward-mode derivatives ----------
#
# The three routines below are the only place a layer stack is evaluated or
# differentiated.  They trust the layer shapes (``SsnnModel`` checks them when
# it is built), so the public entry points validate their inputs first.
# Small products call ``ndarray.dot``, which skips the Python dispatch of
# ``np.dot`` and ``@``; it gives ``@``'s bits when each operand is C- or
# F-contiguous or a transpose of one, as the package passes.  On a column slice
# ``@`` sums in its own loop, so products of slices stay ``@`` (``rollout``'s
# ``drive``, ``estimation_control``), and so does ``chain_jacobian``'s, where
# ``.dot`` would contract a 3-D batch differently.


def chain_forward(layers, value: np.ndarray) -> list[np.ndarray]:
    """Every value along a layer stack, input first: ``[v_0, v_1, ..., v_L]``.

    ``value`` is a vector or a matrix whose columns are evaluated independently.
    """
    values = [value]
    for layer in layers:
        value = layer.weights.dot(value)
        value += layer.bias if value.ndim == 1 else layer.bias[:, None]
        if layer.activation is ActivationKind.TANH:
            np.tanh(value, out=value)
        values.append(value)
    return values


def chain_vjp(layers, values, cotangent: np.ndarray, grads=None) -> np.ndarray:
    """Pull a cotangent on the stack's output back to its input (reverse mode).

    ``values`` are the stored :func:`chain_forward` values, and ``cotangent``
    has the shape of ``values[-1]``.  With ``grads``, a list of per-layer
    ``(weight_grad, bias_grad)`` arrays, the parameter gradients are added to
    those arrays in place; for a column batch they are summed over columns.
    """
    delta = cotangent
    for i in reversed(range(len(layers))):
        layer = layers[i]
        if layer.activation is ActivationKind.TANH:
            out = values[i + 1]
            dpre = delta * (1.0 - out * out)
        else:  # C order, as a product would give: the sums below keep their order
            dpre = np.ascontiguousarray(delta)
        if grads is not None:
            weight_grad, bias_grad = grads[i]
            if dpre.ndim == 1:
                weight_grad += np.outer(dpre, values[i])
                bias_grad += dpre
            else:
                weight_grad += dpre.dot(values[i].T)
                bias_grad += dpre.sum(axis=1)
        delta = layer.weights.T.dot(dpre)
    return delta


def chain_jacobian(layers, value: np.ndarray, values=None) -> tuple[np.ndarray, np.ndarray]:
    """Output of the stack and its full Jacobian (forward mode).

    For a column batch the Jacobians are stacked along a leading axis,
    ``(columns, width, fan_in)``.  Stored :func:`chain_forward` ``values``
    at ``value`` spare the forward pass.
    """
    if values is None:
        values = chain_forward(layers, value)
    jac = None  # the identity, whose product with the first layer's weights is exact
    for layer, out in zip(layers, values[1:]):
        jac = layer.weights if jac is None else layer.weights @ jac
        if layer.activation is ActivationKind.TANH:
            jac = (1.0 - out * out).T[..., None] * jac
        elif jac is layer.weights:
            # a linear first layer keeps its unit derivative: the product copies the
            # weights and lays a batch's column axis out as later products expect
            jac = np.ones_like(out).T[..., None] * jac
    return values[-1], jac


def state_step(model: SsnnModel, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One state update ``x_next = f(x, u)``."""
    x = _as_vector(x, "x")
    u = _as_vector(u, "u")
    if x.shape[0] != model.state_dim:
        raise ModelDimensionError(f"state has length {x.shape[0]}, expected {model.state_dim}")
    if u.shape[0] != model.input_dim:
        raise ModelDimensionError(f"input has length {u.shape[0]}, expected {model.input_dim}")
    return chain_forward(model.state_layers, np.concatenate([x, u]))[-1]


def output_map(model: SsnnModel, x: np.ndarray) -> np.ndarray:
    """Output ``yhat = g(x)``."""
    x = _as_vector(x, "x")
    if x.shape[0] != model.state_dim:
        raise ModelDimensionError(f"state has length {x.shape[0]}, expected {model.state_dim}")
    return chain_forward(model.output_layers, x)[-1]


def _first_non_finite(A: np.ndarray) -> int | None:
    bad = np.flatnonzero(~np.isfinite(A).all(axis=0))
    return int(bad[0]) if bad.size else None


# --- per-step scratch buffers ------------------------------------------------------
#
# The two sequential recursions (``rollout`` and the training costate loop) run
# over the rows of a buffer, and at the package's sizes building a row view
# costs as much as a step's arithmetic.  So each use keeps one buffer and the
# list of its rows, rebuilt only when its shape changes.  Both loops write
# ``W v + b`` as the one product ``[W | b] [v; 1]``: a carried row holds its
# vector and a trailing 1, a step reads the whole row and writes the next row's
# leading entries, so those uses also keep the list of each row's leading view.
# ``rollout`` keeps its carried rows ("rollout carried": the states, or the last
# hidden values when it folds the last layer), the per-step first-layer
# matrices ``[W | drive_k]`` ("rollout first layer") and, when it folds, the
# states ("rollout states"); the gradient its costate rows ("costates") and the
# per-step matrices ``[J_k; G_X[:, k]ᵀ]`` ("costate jacobians").  The package
# starts no threads, and ``montecarlo --workers`` runs processes, each with its
# own cache.  No buffer may escape: a function copies out every array it
# returns or keeps, since the next call of the same use overwrites the buffer.

_SCRATCH: dict[str, tuple[np.ndarray, list[np.ndarray], list[np.ndarray] | None]] = {}


def _scratch(use: str, shape: tuple[int, ...], lead: int | None = None
             ) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray] | None]:
    """The reusable buffer of ``shape`` for ``use``, the list of its rows and,
    with ``lead``, the list of each row's first ``lead`` entries (else None).

    The contents are whatever the last call of ``use`` left there.
    """
    entry = _SCRATCH.get(use)
    if entry is None or entry[0].shape != shape:
        buffer = np.empty(shape)
        rows = list(buffer)
        entry = _SCRATCH[use] = (buffer, rows, None if lead is None else [r[:lead] for r in rows])
    return entry


def rollout(model: SsnnModel, U: np.ndarray) -> np.ndarray:
    """State sequence ``X`` (d, N) under inputs ``U`` (m, N).

    ``X[:, 0]`` is the model's initial state and ``X[:, k+1] = f(X[:, k], U[:, k])``;
    the last input column is not used.  This is the one sequential loop over
    the state recursion.  The input term of the first state layer does not
    depend on the state, so ``drive_k = W_{1,u} u_k + b_1`` is computed for all
    steps at once, and the loop carries a vector through a chain of layers
    whose first one adds ``drive_k`` to a product with the carried vector:

    - by default the state ``x`` through every state layer, the product being
      ``W_{1,x} x_k`` with the state columns of the first layer;
    - when the last state layer is linear and the one before it is tanh (the
      default architecture), the last hidden value ``h`` through every layer but
      the last.  Then ``x_{k+1} = W_L h_k + b_L`` folds into the next step:
      ``h_k`` is the chain on ``A h_{k-1} + c_k`` with ``A = W_{1,x} W_L`` and
      ``c_k = drive_k + W_{1,x} b_L``, started from ``h_{-1} = 0`` and
      ``c_0 = drive_0 + W_{1,x} x_0``, and ``X[:, 1:] = W_L H + b_L`` is one
      product after the loop.  Where ``A`` or ``c`` is not finite (their
      products overflow) the loop carries the state instead.

    Every layer operation is one product: ``W v + b`` is ``[W | b] [v; 1]``,
    with a trailing 1 after the carried vector and after each inner value, and
    the first layer's matrix is ``[W_carried | drive_k]`` for step ``k``.  So a
    step of the default folded chain is two numpy calls (a product and a tanh).
    The result is the plain ``W v + b`` recursion's up to roundoff, not bit
    for bit.

    Raises
    ------
    DivergenceError
        At the first step whose state is non-finite, even if later states
        come back finite.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        U = U[None, :]
    if U.shape[0] != model.input_dim:
        raise ModelDimensionError(f"U has {U.shape[0]} rows, expected {model.input_dim}")
    d, n = model.state_dim, U.shape[1]
    if n < 1:
        raise ValueError("input sequence must have at least one column")
    layers = model.state_layers
    first, last = layers[0], layers[-1]
    state_weights = np.ascontiguousarray(first.weights[:, :d])
    drive = (first.weights[:, d:] @ U[:, :-1] + first.bias[:, None]).T
    fold = (n > 1 and len(layers) > 1 and last.activation is ActivationKind.LINEAR
            and layers[-2].activation is ActivationKind.TANH)
    with np.errstate(over="ignore", invalid="ignore"):
        if fold:
            carried_weights = state_weights @ last.weights  # A
            c = drive + state_weights.dot(last.bias)
            c[0] = drive[0] + state_weights.dot(model.x0)
            fold = bool(np.isfinite(carried_weights).all() and np.isfinite(c).all())
        if fold:  # h_{-1} = 0: [A | c_0] [h_{-1}; 1] is exactly c_0
            chain, drive, start = layers[:-1], c, 0.0
        else:
            carried_weights, chain, start = state_weights, layers, model.x0
        width = chain[-1].width
        carried, rows, heads = _scratch("rollout carried", (n, width + 1), lead=width)
        carried[0, :width] = start
        carried[:, width] = 1.0
        # [W_carried | drive_k] for every step: one broadcast copy and one column copy
        stack, matrices, _ = _scratch("rollout first layer", (n - 1, first.width, width + 1))
        stack[:, :, :width] = carried_weights
        stack[:, :, width] = drive
        # Python dispatch, not arithmetic, is the cost of this loop, so each layer
        # is one product written through a positional ``out`` into a buffer made
        # once here.  Each inner layer of the chain has its own buffer (``dot``'s
        # ``out`` may not alias its input) with a trailing 1 for the next layer's
        # bias column, and the chain's last layer writes straight into the leading
        # entries of the next carried row.
        tanh = np.tanh
        outs = [np.ones(l.width + 1) for l in chain[:-1]]
        out_heads = [o[:-1] for o in outs] + [None]  # None: the next carried row
        first_tanh, first_out = first.activation is ActivationKind.TANH, out_heads[0]
        rest = [(np.hstack([l.weights, l.bias[:, None]]).dot, l.activation is ActivationKind.TANH, v, out)
                for l, v, out in zip(chain[1:], outs, out_heads[1:])]
        for z, z_next, M_k in zip(rows, heads[1:], matrices):
            y = z_next if first_out is None else first_out
            M_k.dot(z, y)
            if first_tanh:
                tanh(y, y)
            for wdot, is_tanh, v, out in rest:
                y = z_next if out is None else out
                wdot(v, y)
                if is_tanh:
                    tanh(y, y)
        if fold:  # x_{k+1} = [W_L | b_L] [h_k; 1] for every step at once
            X, _, _ = _scratch("rollout states", (n, d))
            X[0] = model.x0
            carried[1:].dot(np.hstack([last.weights, last.bias[:, None]]).T, X[1:])
        else:
            X = carried[:, :d]
    X = X.T.copy()  # always a copy: for d = 1, ``ascontiguousarray`` would return the buffer
    step = _first_non_finite(X)
    if step is not None:
        raise DivergenceError(step, f"non-finite state at step {step}")
    return X


def output_values(model: SsnnModel, X: np.ndarray) -> list[np.ndarray]:
    """Every output-layer value over a state sequence (:func:`chain_forward`).

    Raises
    ------
    DivergenceError
        At the first step whose output is non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        values = chain_forward(model.output_layers, X)
    step = _first_non_finite(values[-1])
    if step is not None:
        raise DivergenceError(step, f"non-finite output at step {step}")
    return values


def simulate(model: SsnnModel, U: np.ndarray) -> Trajectory:
    """Roll the model forward over an input sequence.

    Parameters
    ----------
    U : ndarray, shape (m, N)
        Input sequence, one column per instant; N >= 1.

    Returns
    -------
    Trajectory
        ``states[:, 0]`` is the model's initial state; ``states[:, k+1]``
        is the propagation under ``U[:, k]``; ``outputs[:, k]`` is the output
        map applied to ``states[:, k]``.

    Raises
    ------
    DivergenceError
        At the first non-finite state, else at the first non-finite output;
        carries the step index.
    """
    X = rollout(model, U)
    return Trajectory(states=X, outputs=output_values(model, X)[-1])


def variance_stats(X: np.ndarray) -> VarianceStats:
    """Sample mean and covariance of a state sequence (columns), ddof = 1."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ModelDimensionError("X must be a (d, N) matrix")
    n = X.shape[1]
    if n < 2:
        raise ValueError(f"need at least 2 samples for a sample covariance, got {n}")
    mean = X.mean(axis=1)
    centered = X - mean[:, None]
    cov = (centered @ centered.T) / (n - 1)
    cov = 0.5 * (cov + cov.T)
    return VarianceStats(mean=mean, covariance=cov, variances=np.diag(cov).copy())


def is_variance_ordered(stats: VarianceStats, slack: float = 0.0) -> bool:
    """True iff per-state variances are non-increasing (up to ``slack``)."""
    if slack < 0:
        raise ValueError("slack must be non-negative")
    v = stats.variances
    return bool(np.all(v[:-1] >= v[1:] - slack))


# --- state selection ---------------------------------------------------------------


def select_states(model: SsnnModel, keep, frozen=None) -> SsnnModel:
    """The model whose states are ``x[keep]``, every other state held at ``frozen``.

    ``keep`` lists distinct state indices in their new order; ``frozen`` holds
    the left-out states in increasing index order (omit it for a permutation).
    The parameters that touch the states are the state columns of the first
    state and first output layers, where held states fold into the biases,
    the rows of the last state layer, and ``x0``.  Activations act elementwise,
    so row selection is exact for any last-layer activation: a permutation
    keeps the input-output map, and holding states keeps it while they stay
    at ``frozen``.
    """
    d, m = model.state_dim, model.input_dim
    keep = np.asarray(keep, dtype=int)
    held = np.setdiff1d(np.arange(d), keep)
    if keep.ndim != 1 or keep.size + held.size != d:
        raise ValueError(f"keep must list distinct state indices in 0..{d - 1}, got {keep}")
    frozen = np.zeros(0) if frozen is None else _as_vector(frozen, "frozen")
    if frozen.shape[0] != held.size:
        raise ValueError(f"frozen has {frozen.shape[0]} values for {held.size} held states")

    def fold(layer: LayerParams, columns: np.ndarray) -> LayerParams:
        bias = layer.bias
        if held.size:  # a C-ordered copy sums as a plain slice of the weights does
            bias = bias + np.ascontiguousarray(layer.weights[:, held]) @ frozen
        return LayerParams(layer.weights[:, columns], bias, layer.activation)

    state_layers = list(model.state_layers)
    state_layers[0] = fold(state_layers[0], np.concatenate([keep, np.arange(d, d + m)]))
    last = state_layers[-1]
    state_layers[-1] = LayerParams(last.weights[keep, :], last.bias[keep], last.activation)
    output_layers = (fold(model.output_layers[0], keep),) + model.output_layers[1:]
    widths = model.arch.state_layer_widths[:-1] + (keep.size,)
    arch = replace(model.arch, state_dim=keep.size, state_layer_widths=widths)
    return SsnnModel(arch, tuple(state_layers), output_layers, model.x0[keep])


# --- parameter vector packing -------------------------------------------------
#
# Flat layout, fixed and relied upon by the trainer and serialization:
#   state layers in order, each as row-major weights then bias,
#   then output layers likewise, then x0.


def flatten_params(model: SsnnModel) -> np.ndarray:
    """Pack all parameters into a single vector (see layout note above)."""
    parts = []
    for layer in model.state_layers + model.output_layers:
        parts.append(layer.weights.ravel())
        parts.append(layer.bias)
    parts.append(model.x0)
    return np.concatenate(parts)


@lru_cache(maxsize=64)
def _param_layout(arch: SsnnArchitecture) -> tuple[tuple, tuple, int]:
    """Each state and output layer's ``(start, bias_start, end, weight_shape)`` in the
    flat vector, and where ``x0`` starts."""
    layers, pos = [], 0
    for width, fan_in in zip(arch.state_layer_widths + arch.output_layer_widths,
                             arch.state_fan_ins + arch.output_fan_ins):
        bias_start = pos + width * fan_in
        layers.append((pos, bias_start, bias_start + width, (width, fan_in)))
        pos = bias_start + width
    n_state = len(arch.state_layer_widths)
    return tuple(layers[:n_state]), tuple(layers[n_state:]), pos


def _trusted(cls, **fields):
    """An instance of the frozen dataclass ``cls`` whose fields are known to pass its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def unflatten_params(
    arch: SsnnArchitecture,
    theta: np.ndarray,
    state_activations: tuple[ActivationKind, ...] | None = None,
    output_activations: tuple[ActivationKind, ...] | None = None,
) -> SsnnModel:
    """Inverse of :func:`flatten_params`.

    Activations default to the standard pattern (tanh hidden, linear last).
    This is the objective's path from a parameter vector to a model, so it
    validates the vector once (its length, and finiteness of the layer part;
    ``x0`` is not checked) and builds the layers without their per-layer
    checks.  Weights, biases and ``x0`` are views of ``theta``, the weights in
    C order.
    """
    theta = np.ascontiguousarray(_as_vector(theta, "theta"))
    state_slices, output_slices, x0_start = _param_layout(arch)
    if theta.shape[0] != x0_start + arch.state_dim:
        raise ValueError(f"parameter vector has length {theta.shape[0]}, expected {arch.n_params}")
    if state_activations is None:
        state_activations = default_activations(len(state_slices))
    if output_activations is None:
        output_activations = default_activations(len(output_slices))
    for which, slices, acts in (("state", state_slices, state_activations),
                                ("output", output_slices, output_activations)):
        if len(acts) < len(slices):
            raise ModelDimensionError(f"{which} subnetwork has {len(acts)} layers, expected {len(slices)}")
    if not np.isfinite(theta[:x0_start]).all():
        raise ValueError("layer parameters must be finite")

    def layers(slices, acts):
        return tuple(_trusted(LayerParams, weights=theta[start:bias_start].reshape(shape),
                              bias=theta[bias_start:end], activation=act)
                     for (start, bias_start, end, shape), act in zip(slices, acts))

    return _trusted(SsnnModel, arch=arch, state_layers=layers(state_slices, state_activations),
                    output_layers=layers(output_slices, output_activations), x0=theta[x0_start:])


def random_model(arch: SsnnArchitecture, rng: np.random.Generator, init_scale: float = 0.5) -> SsnnModel:
    """Uniform random weights/biases in [-init_scale, init_scale]; x0 = 0."""
    theta = np.concatenate([
        rng.uniform(-init_scale, init_scale, size=arch.n_params - arch.state_dim),
        np.zeros(arch.state_dim),
    ])
    return unflatten_params(arch, theta)


# --- serialization --------------------------------------------------------------


def model_to_dict(model: SsnnModel) -> dict:
    return {
        "version": MODEL_SCHEMA_VERSION,
        "arch": {
            "state_dim": model.arch.state_dim,
            "input_dim": model.arch.input_dim,
            "output_dim": model.arch.output_dim,
            "state_layer_widths": list(model.arch.state_layer_widths),
            "output_layer_widths": list(model.arch.output_layer_widths),
        },
        "state_layers": [_layer_to_dict(l) for l in model.state_layers],
        "output_layers": [_layer_to_dict(l) for l in model.output_layers],
        "x0": model.x0.tolist(),
    }


def _layer_to_dict(layer: LayerParams) -> dict:
    return {
        "weights": layer.weights.tolist(),
        "bias": layer.bias.tolist(),
        "activation": layer.activation.value,
    }


def _layer_from_dict(doc: dict) -> LayerParams:
    return LayerParams(
        weights=np.array(doc["weights"], dtype=float),
        bias=np.array(doc["bias"], dtype=float),
        activation=ActivationKind(doc["activation"]),
    )


def model_from_dict(doc: dict) -> SsnnModel:
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, not {type(doc).__name__}")
    version = doc.get("version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValueError(f"unsupported model document version: {version!r}")
    try:
        a = doc["arch"]
        if not isinstance(a, dict):
            raise ValueError(f"model document's 'arch' entry must be an object, not {type(a).__name__}")
        arch = SsnnArchitecture(
            state_dim=a["state_dim"],
            input_dim=a["input_dim"],
            output_dim=a["output_dim"],
            state_layer_widths=tuple(a["state_layer_widths"]),
            output_layer_widths=tuple(a["output_layer_widths"]),
        )
        x0 = np.array(doc["x0"], dtype=float)
        if not np.isfinite(x0).all():
            raise ValueError("model document's 'x0' entry must be finite")
        return SsnnModel(
            arch=arch,
            state_layers=tuple(_layer_from_dict(l) for l in doc["state_layers"]),
            output_layers=tuple(_layer_from_dict(l) for l in doc["output_layers"]),
            x0=x0,
        )
    except KeyError as exc:
        raise ValueError(f"model document has no {exc.args[0]!r} entry") from None
    except (TypeError, OverflowError) as exc:  # e.g. a number where a list belongs, or Infinity
        raise ValueError(f"model document has an entry of the wrong type or size: {exc}") from None


def save_model(model: SsnnModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=1))


def load_model(path: str | Path) -> SsnnModel:
    return model_from_dict(json.loads(Path(path).read_text()))
