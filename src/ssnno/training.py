"""Variance-regularized training of state-space neural networks.

The loss is a squared prediction error plus a weighted sum of state sample
variances (weights strictly increasing across state indices) plus an L2 term
on the output subnetwork.  The gradient is exact: reverse-mode through the
unrolled state recursion, including the initial state.  Minimization uses
limited-memory BFGS with a strong-Wolfe line search, and a repair loop swaps
state order via loss-non-increasing permutations until the trained model has
non-increasing state variances.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .benchmark import Dataset
from .core_model import (
    DivergenceError,
    SsnnArchitecture,
    SsnnModel,
    VarianceStats,
    chain_forward,
    chain_jacobian,
    chain_vjp,
    flatten_params,
    output_values,
    random_model,
    rollout,
    simulate,
    unflatten_params,
    variance_stats,
)
from . import permutation as _perm


class BaselineMode(Enum):
    SSNNO = "ssnno"
    SSNN_SPE_ONLY = "ssnn"


@dataclass(frozen=True)
class LossWeights:
    """Hyperparameters of the training loss.

    ``w`` holds the per-state variance weights and must be non-negative and
    strictly increasing, so that sorting states by decreasing variance can
    only decrease the variance term.
    """

    alpha: float
    beta: float
    w: np.ndarray

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1:
            raise ValueError("w must be a vector")
        if w[0] < 0 or np.any(np.diff(w) <= 0) or not np.isfinite(w).all():
            raise ValueError("variance weights must be non-negative, finite and strictly increasing")
        object.__setattr__(self, "w", w)

    @classmethod
    def default(cls, state_dim: int, alpha: float, beta: float) -> "LossWeights":
        """Weights 1, 2, ..., d."""
        return cls(alpha=alpha, beta=beta, w=np.arange(1.0, state_dim + 1.0))


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    spe: float
    variance_term: float
    param_term: float


@dataclass(frozen=True)
class TrainConfig:
    max_iterations: int = 1000
    max_backtracks: int = 30
    seed: int = 0
    init_scale: float = 0.5
    baseline_mode: BaselineMode = BaselineMode.SSNNO

    def __post_init__(self):
        if self.max_iterations < 0 or self.max_backtracks < 1:
            raise ValueError("need max_iterations >= 0 and max_backtracks >= 1")


@dataclass(frozen=True)
class TrainReport:
    model: SsnnModel
    loss_history: tuple[LossBreakdown, ...]
    gradient_norms: tuple[float, ...]
    iterations: int
    converged: bool
    gradient_norm: float
    stats: VarianceStats
    outer_passes: int = 1


# --- loss and exact gradient ---------------------------------------------------


def _check_data(arch: SsnnArchitecture, U: np.ndarray, Y: np.ndarray, weights: LossWeights):
    if U.shape[0] != arch.input_dim:
        raise ValueError(f"U has {U.shape[0]} rows, model expects {arch.input_dim}")
    if Y.shape[0] != arch.output_dim:
        raise ValueError(f"Y has {Y.shape[0]} rows, model expects {arch.output_dim}")
    if U.shape[1] != Y.shape[1]:
        raise ValueError("U and Y must have the same number of columns")
    if U.shape[1] < 2:
        raise ValueError("need at least 2 samples (state variance is undefined otherwise)")
    if weights.w.shape[0] != arch.state_dim:
        raise ValueError("variance weights do not match the state dimension")


def _param_term(model: SsnnModel) -> float:
    return float(sum((l.weights * l.weights).sum() + (l.bias * l.bias).sum() for l in model.output_layers))


def _breakdown(model, X, Yhat, Y, w, alpha, beta) -> LossBreakdown:
    r = Yhat - Y
    spe = float((r * r).sum())
    centered = X - X.mean(axis=1)[:, None]
    jv = float((w[:, None] * centered * centered).sum())
    jg = _param_term(model)
    return LossBreakdown(total=spe + alpha * jv + beta * jg, spe=spe, variance_term=jv, param_term=jg)


def _loss_and_gradient(model: SsnnModel, U, Y, w, alpha, beta, need_grad=True):
    d = model.state_dim
    X = rollout(model, U)
    g_cache = output_values(model, X)
    Yhat = g_cache[-1]
    # overflow shows as a non-finite total, which the objective reads as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        bd = _breakdown(model, X, Yhat, Y, w, alpha, beta)
        if not need_grad:
            return bd, None

        # direct dependence of the loss on each state column (variance path);
        # the mean-centering term cancels exactly
        centered = X - X.mean(axis=1)[:, None]
        G_X = 2.0 * alpha * (w[:, None] * centered)

        # output subnetwork, batched over columns
        g_grads = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.output_layers]
        G_X += chain_vjp(model.output_layers, g_cache, 2.0 * (Yhat - Y), g_grads)
        for (gw, gb), layer in zip(g_grads, model.output_layers):
            gw += 2.0 * beta * layer.weights
            gb += 2.0 * beta * layer.bias

        # state subnetwork: every step's layer values and state Jacobian at once
        f_cache = chain_forward(model.state_layers, np.vstack([X[:, :-1], U[:, :-1]]))
        _, jac = chain_jacobian(model.state_layers, f_cache[0], f_cache)
        J = jac[:, :, :d]  # J[k] = dx_{k+1}/dx_k

        # the costate recursion lam_k = G_X[:, k] + J_k^T lam_{k+1} is the only loop
        Lam = np.empty_like(G_X)
        Lam[:, -1] = lam = G_X[:, -1]
        for k in reversed(range(len(J))):
            Lam[:, k] = lam = G_X[:, k] + J[k].T @ lam

        # each step's state output carries the costate of the next step
        f_grads = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.state_layers]
        chain_vjp(model.state_layers, f_cache, Lam[:, 1:], f_grads)

    parts = []
    for gw, gb in f_grads + g_grads:
        parts.append(gw.ravel())
        parts.append(gb)
    parts.append(lam)
    return bd, np.concatenate(parts)


def loss(model: SsnnModel, data: Dataset, weights: LossWeights) -> LossBreakdown:
    """Training-window loss breakdown (total, prediction, variance, parameter terms)."""
    U, Y = data.U_train, data.Y_train
    _check_data(model.arch, U, Y, weights)
    bd, _ = _loss_and_gradient(model, U, Y, weights.w, weights.alpha, weights.beta, need_grad=False)
    return bd


def permuted_loss_check(model: SsnnModel, data: Dataset, weights: LossWeights, index: _perm.PermutationIndex):
    """Loss breakdowns of a model and of its permuted twin; for the variance-sort
    index only the variance term may change, and it can only decrease."""
    return loss(model, data, weights), loss(_perm.permute_model(model, index), data, weights)


def loss_gradient(model: SsnnModel, data: Dataset, weights: LossWeights) -> np.ndarray:
    """Exact gradient of the total loss with respect to the flat parameter vector."""
    U, Y = data.U_train, data.Y_train
    _check_data(model.arch, U, Y, weights)
    _, grad = _loss_and_gradient(model, U, Y, weights.w, weights.alpha, weights.beta)
    return grad


# --- L-BFGS with strong-Wolfe line search (Nocedal & Wright, §3.1 and ch. 7) ---

GRADIENT_TOLERANCE = 1e-6  # absolute; the training losses are sums of squares of order 1-10
LBFGS_MEMORY = 10  # curvature pairs kept; 3-20 is the usual range
WOLFE_C1 = 1e-4  # sufficient decrease; small, so a step that lowers the loss is rarely refused
WOLFE_C2 = 0.9  # curvature; the usual value for quasi-Newton directions


def _two_loop(grad, mem):
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(mem):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if mem:
        s, y, _ = mem[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(mem, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s
    return q


def _minimize(fg, theta0, config: TrainConfig):
    """Monotone quasi-Newton descent; returns best iterate on line-search failure.

    ``fg(theta) -> (f, breakdown, grad)`` with ``f = inf`` for divergent points.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    f, bd, g = fg(theta)
    if not np.isfinite(f):
        raise DivergenceError(0, "initial parameters produce a divergent simulation")
    history = [bd]
    grad_norms = [float(np.linalg.norm(g))]
    mem: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=LBFGS_MEMORY)
    converged = False
    iterations = 0

    for it in range(config.max_iterations):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= GRADIENT_TOLERANCE:
            converged = True
            break
        direction = -_two_loop(g, mem)
        dg = float(direction @ g)
        if dg >= 0:
            mem.clear()
            direction = -g
            dg = -float(g @ g)
        a_init = 1.0 if mem else min(1.0, 1.0 / max(gnorm, 1e-12))
        step = _wolfe_search(fg, theta, direction, f, dg, a_init, config.max_backtracks)
        if step is None:
            break
        a, f_new, bd_new, g_new = step
        s = a * direction
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            mem.append((s, y, 1.0 / sy))
        theta = theta + s
        f, bd, g = f_new, bd_new, g_new
        history.append(bd)
        grad_norms.append(float(np.linalg.norm(g)))
        iterations = it + 1

    final_gnorm = float(np.linalg.norm(g))
    if config.max_iterations > 0 and final_gnorm <= GRADIENT_TOLERANCE:
        converged = True
    return theta, history, grad_norms, iterations, converged, final_gnorm


def _wolfe_search(fg, theta, direction, f0, dphi0, a_init, max_backtracks: int):
    """Strong-Wolfe step: sufficient decrease and curvature |phi'| <= c2 |phi'(0)|."""
    budget = [max_backtracks]

    def phi(a):
        budget[0] -= 1
        f, bd, g = fg(theta + a * direction)
        dphi = float(g @ direction) if g is not None else np.inf
        return f, bd, g, dphi

    def zoom(a_lo, f_lo, dphi_lo, a_hi):
        while budget[0] > 0:
            if abs(a_hi - a_lo) < 1e-16:
                return None
            # quadratic model from (f_lo, dphi_lo, f_hi) is fragile near inf; bisect
            a = 0.5 * (a_lo + a_hi)
            f_a, bd, g, dphi = phi(a)
            if not np.isfinite(f_a) or f_a > f0 + WOLFE_C1 * a * dphi0 or f_a >= f_lo:
                a_hi = a
            else:
                if abs(dphi) <= -WOLFE_C2 * dphi0:
                    return a, f_a, bd, g
                if dphi * (a_hi - a_lo) >= 0:
                    a_hi = a_lo
                a_lo, f_lo, dphi_lo = a, f_a, dphi
        return None

    a_prev, f_prev, dphi_prev = 0.0, f0, dphi0
    a = a_init
    first = True
    while budget[0] > 0:
        f_a, bd, g, dphi = phi(a)
        if not np.isfinite(f_a) or f_a > f0 + WOLFE_C1 * a * dphi0 or (not first and f_a >= f_prev):
            return zoom(a_prev, f_prev, dphi_prev, a)
        if abs(dphi) <= -WOLFE_C2 * dphi0:
            return a, f_a, bd, g
        if dphi >= 0:
            return zoom(a, f_a, dphi, a_prev)
        a_prev, f_prev, dphi_prev = a, f_a, dphi
        a *= 2.0
        first = False
    return None


# --- training and the ordered-variance repair loop ------------------------------


def _effective_terms(weights: LossWeights, config: TrainConfig) -> tuple[float, float]:
    if config.baseline_mode is BaselineMode.SSNN_SPE_ONLY:
        return 0.0, 0.0
    return weights.alpha, weights.beta


def _make_objective(arch, U, Y, w, alpha, beta, state_acts, output_acts):
    def fg(theta):
        if not np.isfinite(theta).all():
            return np.inf, None, None
        model = unflatten_params(arch, theta, state_acts, output_acts)
        try:
            bd, grad = _loss_and_gradient(model, U, Y, w, alpha, beta)
        except DivergenceError:
            return np.inf, None, None
        if not np.isfinite(bd.total):
            return np.inf, None, None
        return bd.total, bd, grad
    return fg


def train(
    data: Dataset,
    arch: SsnnArchitecture,
    weights: LossWeights,
    config: TrainConfig,
    initial: SsnnModel | None = None,
) -> TrainReport:
    """Fit a model on the training window of ``data``.

    Starts from ``initial`` if given, otherwise from seeded uniform random
    parameters with a zero initial state.  In the SPE-only baseline mode the
    variance and parameter terms are dropped from the optimized objective
    (and from the recorded history, so the history total stays monotone).
    """
    U, Y = data.U_train, data.Y_train
    _check_data(arch, U, Y, weights)
    if initial is None:
        initial = random_model(arch, np.random.default_rng(config.seed), config.init_scale)
    elif initial.arch != arch:
        raise ValueError("initial model architecture does not match the requested one")

    alpha, beta = _effective_terms(weights, config)
    state_acts = tuple(l.activation for l in initial.state_layers)
    output_acts = tuple(l.activation for l in initial.output_layers)
    fg = _make_objective(arch, U, Y, weights.w, alpha, beta, state_acts, output_acts)

    theta, history, grad_norms, iterations, converged, gnorm = _minimize(
        fg, flatten_params(initial), config
    )
    model = unflatten_params(arch, theta, state_acts, output_acts)
    stats = variance_stats(simulate(model, U).states)
    return TrainReport(
        model=model,
        loss_history=tuple(history),
        gradient_norms=tuple(grad_norms),
        iterations=iterations,
        converged=converged,
        gradient_norm=gnorm,
        stats=stats,
    )


MAX_OUTER_PASSES = 10  # each pass starts from a strictly lower loss; this only bounds the loop


def repair_variance_ordering(
    data: Dataset,
    weights: LossWeights,
    config: TrainConfig,
    initial: SsnnModel,
) -> TrainReport:
    """Train, then permute states into variance order and retrain while that helps.

    Sorting the states by decreasing variance leaves the prediction and
    parameter terms unchanged and cannot increase the variance term, so each
    permutation step is loss-non-increasing; retraining from the permuted
    parameters is attempted whenever the permutation strictly lowered the
    loss.  The returned model always has non-increasing state variances.
    """
    U = data.U_train
    report = train(data, initial.arch, weights, config, initial=initial)
    history = list(report.loss_history)
    grad_norms = list(report.gradient_norms)
    iterations = report.iterations

    alpha, beta = _effective_terms(weights, config)
    state_acts = tuple(l.activation for l in initial.state_layers)
    output_acts = tuple(l.activation for l in initial.output_layers)
    fg = _make_objective(initial.arch, U, data.Y_train, weights.w, alpha, beta, state_acts, output_acts)

    passes = 1
    while True:
        z = _perm.variance_sort_index(report.stats)
        permuted = _perm.permute_model(report.model, z)
        j_hat = history[-1].total
        f_til, bd_til, g_til = fg(flatten_params(permuted))
        history.append(bd_til)
        grad_norms.append(float(np.linalg.norm(g_til)))
        if not (j_hat - f_til > 0.0) or passes >= MAX_OUTER_PASSES:
            final_stats = variance_stats(simulate(permuted, U).states)
            return TrainReport(
                model=permuted,
                loss_history=tuple(history),
                gradient_norms=tuple(grad_norms),
                iterations=iterations,
                converged=report.converged,
                gradient_norm=report.gradient_norm,
                stats=final_stats,
                outer_passes=passes,
            )
        report = train(data, initial.arch, weights, config, initial=permuted)
        history.extend(report.loss_history)
        grad_norms.extend(report.gradient_norms)
        iterations += report.iterations
        passes += 1


def export_history_csv(report: TrainReport, path: str | Path) -> None:
    """Loss history as CSV: iteration, total, spe, variance and parameter terms, grad norm."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "total", "spe", "variance_term", "param_term", "grad_norm"])
        for i, (bd, gn) in enumerate(zip(report.loss_history, report.gradient_norms)):
            writer.writerow([i, repr(bd.total), repr(bd.spe), repr(bd.variance_term), repr(bd.param_term), repr(gn)])


def report_to_dict(report: TrainReport) -> dict:
    final = report.loss_history[-1]
    return {
        "iterations": report.iterations,
        "converged": report.converged,
        "gradient_norm": report.gradient_norm,
        "outer_passes": report.outer_passes,
        "final_loss": {
            "total": final.total,
            "spe": final.spe,
            "variance_term": final.variance_term,
            "param_term": final.param_term,
        },
        "state_variances": report.stats.variances.tolist(),
        "state_means": report.stats.mean.tolist(),
        "history_length": len(report.loss_history),
    }
