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
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .benchmark import Dataset
from .core_model import (
    DivergenceError,
    SsnnArchitecture,
    SsnnModel,
    VarianceStats,
    _scratch,
    chain_forward,
    chain_jacobian,
    chain_vjp,
    flatten_params,
    output_values,
    random_model,
    rollout,
    simulate,  # unused here; benchmarks/tracing.py wraps training.simulate by name
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


def _loss_and_gradient(model: SsnnModel, U, Y, w, alpha, beta):
    """Loss breakdown, state sequence ``X`` and a deferred gradient.

    The forward pass runs now.  Calling the returned ``gradient()`` finishes the
    adjoint from the stored forward values, so a caller that only needs the
    loss never pays for it.
    """
    d = model.state_dim
    X = rollout(model, U)
    g_cache = output_values(model, X)
    # overflow shows as a non-finite total, which the objective reads as divergence
    with np.errstate(over="ignore", invalid="ignore"):
        r = g_cache[-1] - Y
        centered = X - X.mean(axis=1)[:, None]
        spe = float((r * r).sum())
        jv = float((w[:, None] * centered * centered).sum())
        jg = float(sum((l.weights * l.weights).sum() + (l.bias * l.bias).sum() for l in model.output_layers))
        bd = LossBreakdown(total=spe + alpha * jv + beta * jg, spe=spe, variance_term=jv, param_term=jg)

    def gradient() -> np.ndarray:
        # one vector, written through per-layer views in the flat parameter layout
        grad = np.zeros(model.arch.n_params)
        views, pos = [], 0
        for l in model.state_layers + model.output_layers:
            size = l.weights.size
            views.append((grad[pos:pos + size].reshape(l.weights.shape), grad[pos + size:pos + size + l.width]))
            pos += size + l.width
        f_grads, g_grads = views[:len(model.state_layers)], views[len(model.state_layers):]
        with np.errstate(over="ignore", invalid="ignore"):
            # direct dependence of the loss on each state column (variance path);
            # the mean-centering term cancels exactly
            G_X = 2.0 * alpha * (w[:, None] * centered)

            # output subnetwork, batched over columns
            G_X += chain_vjp(model.output_layers, g_cache, 2.0 * r, g_grads)
            for (gw, gb), layer in zip(g_grads, model.output_layers):
                gw += 2.0 * beta * layer.weights
                gb += 2.0 * beta * layer.bias

            # state subnetwork: every step's layer values and state Jacobian at once
            f_cache = chain_forward(model.state_layers, np.vstack([X[:, :-1], U[:, :-1]]))
            _, jac = chain_jacobian(model.state_layers, f_cache[0], f_cache)

            # the costate recursion lam_k = G_X[:, k] + J_k^T lam_{k+1} is the only loop,
            # with J_k = dx_{k+1}/dx_k.  A step is the one product
            # [lam_{k+1}, 1] [J_k; G_X[:, k]ᵀ] from a whole costate row (trailing 1)
            # into the leading entries of the row before it, through a positional
            # ``out`` that allocates nothing
            n = G_X.shape[1]
            J_aug, J_rows, _ = _scratch("costate jacobians", (n - 1, d + 1, d))
            np.copyto(J_aug[:, :d], jac[:, :, :d])
            J_aug[:, d] = G_X[:, :-1].T
            Lam, lam_rows, lam_heads = _scratch("costates", (n, d + 1), lead=d)
            Lam[-1, :d] = G_X[:, -1]
            Lam[:, d] = 1.0
            for lam, lam_next, J_k in zip(lam_heads[-2::-1], lam_rows[:0:-1], J_rows[::-1]):
                lam_next.dot(J_k, lam)

            # each step's state output carries the costate of the next step
            chain_vjp(model.state_layers, f_cache, Lam[1:, :d].T, f_grads)
        grad[pos:] = Lam[0, :d]
        return grad

    return bd, X, gradient


def loss(model: SsnnModel, data: Dataset, weights: LossWeights) -> LossBreakdown:
    """Training-window loss breakdown (total, prediction, variance, parameter terms)."""
    U, Y = data.U_train, data.Y_train
    _check_data(model.arch, U, Y, weights)
    bd, _, _ = _loss_and_gradient(model, U, Y, weights.w, weights.alpha, weights.beta)
    return bd


def permuted_loss_check(model: SsnnModel, data: Dataset, weights: LossWeights, index: _perm.PermutationIndex):
    """Loss breakdowns of a model and of its permuted twin; for the variance-sort
    index only the variance term may change, and it can only decrease."""
    return loss(model, data, weights), loss(_perm.permute_model(model, index), data, weights)


def loss_gradient(model: SsnnModel, data: Dataset, weights: LossWeights) -> np.ndarray:
    """Exact gradient of the total loss with respect to the flat parameter vector."""
    U, Y = data.U_train, data.Y_train
    _check_data(model.arch, U, Y, weights)
    _, _, gradient = _loss_and_gradient(model, U, Y, weights.w, weights.alpha, weights.beta)
    return gradient()


# --- L-BFGS with strong-Wolfe line search (Nocedal & Wright, §3.1 and ch. 7) ---

GRADIENT_TOLERANCE = 1e-6  # absolute; the training losses are sums of squares of order 1-10
LBFGS_MEMORY = 10  # curvature pairs kept; 3-20 is the usual range
WOLFE_C1 = 1e-4  # sufficient decrease; small, so a step that lowers the loss is rarely refused
WOLFE_C2 = 0.9  # curvature; the usual value for quasi-Newton directions


def _two_loop(grad, mem):
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(mem):
        a = rho * float(s.dot(q))
        alphas.append(a)
        q -= a * y
    if mem:
        s, y, _ = mem[-1]
        q *= float(s.dot(y)) / float(y.dot(y))
    for (s, y, rho), a in zip(mem, reversed(alphas)):
        b = rho * float(y.dot(q))
        q += (a - b) * s
    return q


def _minimize(fg, theta0, config: TrainConfig):
    """Monotone quasi-Newton descent; returns best iterate on line-search failure.

    ``fg(theta) -> (f, breakdown, (X, gradient))`` with ``f = inf`` for divergent
    points; ``X`` is the point's state sequence and ``gradient()`` computes its
    gradient.  Also returns the states of the returned iterate.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    f, bd, pending = fg(theta)
    if not np.isfinite(f):
        raise DivergenceError(0, "initial parameters produce a divergent simulation")
    X, gradient = pending
    g = gradient()
    history = [bd]
    grad_norms = [float(np.linalg.norm(g))]
    mem: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=LBFGS_MEMORY)
    iterations = 0

    for it in range(config.max_iterations):
        gnorm = grad_norms[-1]
        if gnorm <= GRADIENT_TOLERANCE:
            break
        direction = -_two_loop(g, mem)
        dg = float(direction.dot(g))
        if dg >= 0:
            mem.clear()
            direction = -g
            dg = -float(g.dot(g))
        a_init = 1.0 if mem else min(1.0, 1.0 / max(gnorm, 1e-12))
        step = _wolfe_search(fg, theta, direction, f, dg, a_init, config.max_backtracks)
        if step is None:
            break
        a, f_new, bd_new, g_new, X = step
        s = a * direction
        y = g_new - g
        sy = float(s.dot(y))
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            mem.append((s, y, 1.0 / sy))
        theta = theta + s
        f, bd, g = f_new, bd_new, g_new
        history.append(bd)
        grad_norms.append(float(np.linalg.norm(g)))
        iterations = it + 1

    converged = config.max_iterations > 0 and grad_norms[-1] <= GRADIENT_TOLERANCE
    return theta, X, history, grad_norms, iterations, converged


def _wolfe_search(fg, theta, direction, f0, dphi0, a_init, max_backtracks: int):
    """Strong-Wolfe step: sufficient decrease and curvature |phi'| <= c2 |phi'(0)|.

    A trial's gradient is computed only once it passes the decrease tests.
    """
    budget = [max_backtracks]

    def phi(a):
        budget[0] -= 1
        return fg(theta + a * direction)

    def slope(pending):
        X, gradient = pending
        g = gradient()
        return X, g, float(g.dot(direction))

    def zoom(a_lo, f_lo, dphi_lo, a_hi):
        while budget[0] > 0:
            if abs(a_hi - a_lo) < 1e-16:
                return None
            # quadratic model from (f_lo, dphi_lo, f_hi) is fragile near inf; bisect
            a = 0.5 * (a_lo + a_hi)
            f_a, bd, pending = phi(a)
            if not np.isfinite(f_a) or f_a > f0 + WOLFE_C1 * a * dphi0 or f_a >= f_lo:
                a_hi = a
            else:
                X, g, dphi = slope(pending)
                if abs(dphi) <= -WOLFE_C2 * dphi0:
                    return a, f_a, bd, g, X
                if dphi * (a_hi - a_lo) >= 0:
                    a_hi = a_lo
                a_lo, f_lo, dphi_lo = a, f_a, dphi
        return None

    a_prev, f_prev, dphi_prev = 0.0, f0, dphi0
    a = a_init
    first = True
    while budget[0] > 0:
        f_a, bd, pending = phi(a)
        if not np.isfinite(f_a) or f_a > f0 + WOLFE_C1 * a * dphi0 or (not first and f_a >= f_prev):
            return zoom(a_prev, f_prev, dphi_prev, a)
        X, g, dphi = slope(pending)
        if abs(dphi) <= -WOLFE_C2 * dphi0:
            return a, f_a, bd, g, X
        if dphi >= 0:
            return zoom(a, f_a, dphi, a_prev)
        a_prev, f_prev, dphi_prev = a, f_a, dphi
        a *= 2.0
        first = False
    return None


# --- training and the ordered-variance repair loop ------------------------------


def _make_objective(arch, U, Y, w, alpha, beta, state_acts, output_acts):
    def fg(theta):
        if not np.isfinite(theta).all():
            return np.inf, None, None
        model = unflatten_params(arch, theta, state_acts, output_acts)
        try:
            bd, X, gradient = _loss_and_gradient(model, U, Y, w, alpha, beta)
        except DivergenceError:
            return np.inf, None, None
        if not np.isfinite(bd.total):
            return np.inf, None, None
        return bd.total, bd, (X, gradient)
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
    With ``max_iterations=0`` the report evaluates ``initial`` as it is.
    """
    U, Y = data.U_train, data.Y_train
    _check_data(arch, U, Y, weights)
    if initial is None:
        initial = random_model(arch, np.random.default_rng(config.seed), config.init_scale)
    elif initial.arch != arch:
        raise ValueError("initial model architecture does not match the requested one")

    spe_only = config.baseline_mode is BaselineMode.SSNN_SPE_ONLY
    alpha, beta = (0.0, 0.0) if spe_only else (weights.alpha, weights.beta)
    state_acts = tuple(l.activation for l in initial.state_layers)
    output_acts = tuple(l.activation for l in initial.output_layers)
    fg = _make_objective(arch, U, Y, weights.w, alpha, beta, state_acts, output_acts)

    theta, X, history, grad_norms, iterations, converged = _minimize(fg, flatten_params(initial), config)
    model = unflatten_params(arch, theta, state_acts, output_acts)
    return TrainReport(
        model=model,
        loss_history=tuple(history),
        gradient_norms=tuple(grad_norms),
        iterations=iterations,
        converged=converged,
        gradient_norm=grad_norms[-1],
        stats=variance_stats(X),  # the returned iterate's states, from its own evaluation
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

    Each pass is a ``train`` call followed by a zero-iteration ``train`` of
    the permuted twin, whose report gives the twin's loss, gradient norm and
    variances.  When the sort is the identity the twin is the trained model
    itself, and the pass's own report already holds that evaluation.  The
    history concatenates every pass's entries and the twin's.
    """
    evaluate_only = replace(config, max_iterations=0)
    history, grad_norms, iterations = (), (), 0
    for passes in range(1, MAX_OUTER_PASSES + 1):
        report = train(data, initial.arch, weights, config, initial=initial)
        index = _perm.variance_sort_index(report.stats)
        if index.is_identity():  # the twin is the trained model, whose last evaluation the report holds
            twin = replace(report, loss_history=report.loss_history[-1:],
                           gradient_norms=report.gradient_norms[-1:], iterations=0, converged=False)
        else:
            initial = _perm.permute_model(report.model, index)
            twin = train(data, initial.arch, weights, evaluate_only, initial=initial)
        history += report.loss_history + twin.loss_history
        grad_norms += report.gradient_norms + twin.gradient_norms
        iterations += report.iterations
        if not (report.loss_history[-1].total - twin.loss_history[0].total > 0.0):
            break
    return replace(
        twin, loss_history=history, gradient_norms=grad_norms, iterations=iterations,
        converged=report.converged, gradient_norm=report.gradient_norm, outer_passes=passes,
    )


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
