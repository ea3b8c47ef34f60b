"""Closed-loop use of an identified model: EKF, steady-state references, MPC.

The filter and controller both run on the (reduced) identified model.  MPC
is transcribed by single shooting over the input moves; one pass over the
horizon gives the exact shooting sensitivities, hence the gradient and the
Gauss–Newton Hessian of the tracking cost, and the box-constrained problem is
solved by projected Gauss–Newton with Armijo backtracking.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .benchmark import CstrParams, SimConfig, plant_step
from .core_model import SsnnModel, chain_jacobian, output_map, state_step
from .reduction import ReducedModel


class EstimationError(RuntimeError):
    """Numerical failure inside the estimator (e.g. singular innovation covariance)."""


class SteadyStateError(RuntimeError):
    """No steady state of the model matches the requested target."""


class ClosedLoopError(RuntimeError):
    """Failure inside the closed loop; carries the log up to the failure point."""

    def __init__(self, step: int, message: str, partial_log):
        super().__init__(message)
        self.step = step
        self.partial_log = partial_log


def _require_spd(mat: np.ndarray, name: str, semidefinite: bool = False) -> np.ndarray:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    square = mat.ndim == 2 and mat.shape[0] == mat.shape[1] and np.isfinite(mat).all()
    if not (square and np.allclose(mat, mat.T, atol=1e-12)):
        raise ValueError(f"{name} must be a finite symmetric square matrix")
    eig = np.linalg.eigvalsh(mat)
    # roundoff leaves the zero eigenvalues of a low-rank B Bᵀ slightly negative
    if eig.min() <= 0 and not (semidefinite and eig.min() >= -1e-12 * max(1.0, np.abs(eig).max())):
        raise ValueError(f"{name} must be positive {'semi' if semidefinite else ''}definite")
    return mat


@dataclass(frozen=True)
class EkfConfig:
    process_cov: np.ndarray  # (s, s)
    measurement_cov: np.ndarray  # (p, p)
    initial_cov: np.ndarray  # (s, s)

    def __post_init__(self):
        object.__setattr__(self, "process_cov", _require_spd(self.process_cov, "process_cov"))
        object.__setattr__(self, "measurement_cov", _require_spd(self.measurement_cov, "measurement_cov"))
        object.__setattr__(self, "initial_cov", _require_spd(self.initial_cov, "initial_cov"))


def default_ekf_config(order: int, output_dim: int = 1) -> EkfConfig:
    """diag(0.1, 0.2) process noise for a second-order model, 0.1 I otherwise."""
    if order == 2:
        q = np.diag([0.1, 0.2])
    else:
        q = 0.1 * np.eye(order)
    return EkfConfig(
        process_cov=q,
        measurement_cov=0.1 * np.eye(output_dim),
        initial_cov=0.1 * np.eye(order),
    )


@dataclass(frozen=True)
class EkfState:
    estimate: np.ndarray  # (s,)
    covariance: np.ndarray  # (s, s)

    def __post_init__(self):
        x = np.asarray(self.estimate, dtype=float)
        P = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if not ((P == P.T).all() or np.allclose(P, P.T, atol=1e-9)):  # ekf_step's P is exactly symmetric
            raise ValueError("covariance must be symmetric")
        if np.linalg.eigvalsh(P).min() < -1e-10:
            raise ValueError("covariance must be positive semidefinite")
        object.__setattr__(self, "estimate", x)
        object.__setattr__(self, "covariance", P)


@dataclass(frozen=True)
class MpcConfig:
    horizon: int = 5
    state_weight: np.ndarray = field(default_factory=lambda: np.diag([0.5, 1.0]))
    input_weight: np.ndarray = field(default_factory=lambda: np.array([[0.5]]))
    u_min: np.ndarray = field(default_factory=lambda: np.array([-1.0]))
    u_max: np.ndarray = field(default_factory=lambda: np.array([0.0]))

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        Q = _require_spd(self.state_weight, "state_weight", semidefinite=True)
        R = _require_spd(self.input_weight, "input_weight")
        lo = np.atleast_1d(np.asarray(self.u_min, dtype=float))
        hi = np.atleast_1d(np.asarray(self.u_max, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise ValueError("need u_min <= u_max elementwise")
        object.__setattr__(self, "state_weight", Q)
        object.__setattr__(self, "input_weight", R)
        object.__setattr__(self, "u_min", lo)
        object.__setattr__(self, "u_max", hi)


def default_mpc_config(order: int, input_dim: int = 1) -> MpcConfig:
    """diag(0.5, 1) state weight for a second-order model, 0.75 I otherwise."""
    if order == 2:
        q = np.diag([0.5, 1.0])
    else:
        q = 0.75 * np.eye(order)
    return MpcConfig(
        horizon=5,
        state_weight=q,
        input_weight=0.5 * np.eye(input_dim),
        u_min=-1.0 * np.ones(input_dim),
        u_max=np.zeros(input_dim),
    )


STEADY_STATE_TOL = 1e-8  # residual norm bound of solve_steady_state, checked by ReferencePair


@dataclass(frozen=True)
class ReferencePair:
    x_ref: np.ndarray
    u_ref: np.ndarray
    target: np.ndarray
    residual_norm: float

    def __post_init__(self):
        object.__setattr__(self, "x_ref", np.asarray(self.x_ref, dtype=float))
        object.__setattr__(self, "u_ref", np.asarray(self.u_ref, dtype=float))
        object.__setattr__(self, "target", np.atleast_1d(np.asarray(self.target, dtype=float)))
        if not self.residual_norm <= STEADY_STATE_TOL:
            raise ValueError(f"steady-state residual {self.residual_norm:.3e} exceeds {STEADY_STATE_TOL:g}")


def _unwrap(model) -> SsnnModel:
    return model.model if isinstance(model, ReducedModel) else model


def model_jacobians(model, x: np.ndarray, u: np.ndarray):
    """Exact Jacobians (F, G_u, H) of the state update and output map."""
    net = _unwrap(model)
    s = net.state_dim
    x = np.asarray(x, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    _, jf = chain_jacobian(net.state_layers, np.concatenate([x, u]))
    _, jh = chain_jacobian(net.output_layers, x)
    return jf[:, :s], jf[:, s:], jh


def ekf_step(model, state: EkfState, cfg: EkfConfig, u_applied, y_measured) -> EkfState:
    """One predict/update cycle with Joseph-form covariance update."""
    net = _unwrap(model)
    u = np.atleast_1d(np.asarray(u_applied, dtype=float))
    y = np.atleast_1d(np.asarray(y_measured, dtype=float))

    x_pred, jf = chain_jacobian(net.state_layers, np.concatenate([state.estimate, u]))
    F = jf[:, : net.state_dim]
    P_pred = F @ state.covariance @ F.T + cfg.process_cov

    y_pred, H = chain_jacobian(net.output_layers, x_pred)
    S = H @ P_pred @ H.T + cfg.measurement_cov
    try:
        gain = np.linalg.solve(S.T, (P_pred @ H.T).T).T
    except np.linalg.LinAlgError as exc:
        raise EstimationError("innovation covariance is not invertible") from exc
    x_new = x_pred + gain @ (y - y_pred)
    closed = np.eye(net.state_dim) - gain @ H
    P_new = closed @ P_pred @ closed.T + gain @ cfg.measurement_cov @ gain.T
    P_new = 0.5 * (P_new + P_new.T)
    return EkfState(estimate=x_new, covariance=P_new)


def solve_steady_state(
    model,
    target,
    u_bounds=(-1.0, 0.0),
    max_iterations: int = 60,
    n_starts: int = 5,
) -> ReferencePair:
    """State/input pair holding the model at the target output.

    Newton iteration on the stacked residual (output mismatch and state
    fixed-point defect) from ``n_starts`` starts (box centre, then seed-0
    draws) to a residual norm of ``STEADY_STATE_TOL``; a converged input inside
    ``u_bounds``, a ``(lower, upper)`` pair of scalars or per-input arrays, is
    preferred.  Raises ``SteadyStateError`` if no start converges.
    """
    net = _unwrap(model)
    s, m, p = net.state_dim, net.input_dim, net.output_dim
    y_t = np.atleast_1d(np.asarray(target, dtype=float))
    if y_t.shape[0] != p:
        raise ValueError(f"target has length {y_t.shape[0]}, model output has {p}")
    if p != m:
        warnings.warn("output and input dimensions differ; solving in the least-squares sense")

    def residual_and_jac(x, u):
        fx, jf = chain_jacobian(net.state_layers, np.concatenate([x, u]))
        gx, jh = chain_jacobian(net.output_layers, x)
        r = np.concatenate([y_t - gx, x - fx])
        jac = np.zeros((p + s, s + m))
        jac[:p, :s] = -jh
        jac[p:, :s] = np.eye(s) - jf[:, :s]
        jac[p:, s:] = -jf[:, s:]
        return r, jac

    rng = np.random.default_rng(0)
    lo, hi = (np.asarray(b, dtype=float) for b in u_bounds)
    starts = [(np.zeros(s), np.full(m, 0.5 * (lo + hi)))]
    for _ in range(n_starts - 1):
        starts.append((rng.normal(0.0, 0.5, s), rng.uniform(lo, hi, m)))

    solutions = []
    for x, u in starts:
        x, u = x.copy(), u.copy()
        r, jac = residual_and_jac(x, u)
        norm = float(np.linalg.norm(r))
        for _ in range(max_iterations):
            if norm <= STEADY_STATE_TOL:
                break
            try:
                if p == m:
                    delta = np.linalg.solve(jac, -r)
                else:
                    delta = np.linalg.lstsq(jac, -r, rcond=None)[0]
            except np.linalg.LinAlgError:
                break
            step = 1.0
            improved = False
            for _ in range(25):
                x_new = x + step * delta[:s]
                u_new = u + step * delta[s:]
                r_new, jac_new = residual_and_jac(x_new, u_new)
                norm_new = float(np.linalg.norm(r_new))
                if np.isfinite(norm_new) and norm_new < norm:
                    x, u, r, jac, norm = x_new, u_new, r_new, jac_new, norm_new
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
        if norm <= STEADY_STATE_TOL:
            in_bounds = bool(np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12))
            solutions.append((in_bounds, norm, x, u))

    if not solutions:
        raise SteadyStateError(f"no steady state found for target {y_t}")
    in_bounds_sols = [sol for sol in solutions if sol[0]]
    pick = min(in_bounds_sols or solutions, key=lambda sol: sol[1])
    _, norm, x, u = pick
    return ReferencePair(x_ref=x, u_ref=u, target=y_t, residual_norm=norm)


@dataclass(frozen=True)
class MpcSolution:
    sequence: np.ndarray  # (m, horizon)
    first_move: np.ndarray  # (m,)
    cost: float
    converged: bool
    iterations: int  # accepted Gauss–Newton steps


def _mpc_sensitivities(net: SsnnModel, x0, useq, refs: ReferencePair, Q, R):
    """Tracking cost, its gradient and its Gauss–Newton Hessian from one shooting pass.

    ``S`` stacks the sensitivities ``d x_{i+1} / d u_j`` with time-major
    columns: ``S[i, :, :i] = F_i S[i-1, :, :i]`` and ``S[i, :, i] = G_i``.
    The gradient is ``2(SᵀQ̄e + R̄Δu)`` and the Hessian ``2(SᵀQ̄S + R̄)``,
    with ``Q̄`` and ``R̄`` block diagonal.  The Hessian's rows and columns
    run over the time-major moves ``useq.T.ravel()``; the gradient is
    returned shaped like ``useq``.
    """
    s = net.state_dim
    m, horizon = useq.shape
    S = np.zeros((horizon, s, horizon * m))
    errors = np.empty((horizon, s))
    x = np.asarray(x0, dtype=float)
    for i in range(horizon):
        x, jac = chain_jacobian(net.state_layers, np.concatenate([x, useq[:, i]]))
        if i:
            S[i, :, : i * m] = jac[:, :s] @ S[i - 1, :, : i * m]
        S[i, :, i * m : (i + 1) * m] = jac[:, s:]
        errors[i] = x - refs.x_ref
    du = useq.T - refs.u_ref  # (horizon, m)
    Qe, Rdu = errors @ Q, du @ R  # Q and R are symmetric
    cost = float((errors * Qe).sum() + (du * Rdu).sum())
    S = S.reshape(horizon * s, horizon * m)
    grad = 2.0 * (S.T @ Qe.ravel() + Rdu.ravel())
    hess = 2.0 * (S.T @ (Q @ S.reshape(horizon, s, -1)).reshape(horizon * s, -1))
    R2 = 2.0 * R
    for i in range(0, horizon * m, m):
        hess[i : i + m, i : i + m] += R2
    return cost, grad.reshape(horizon, m).T, hess


def _mpc_cost_grad(net: SsnnModel, x0, useq, refs: ReferencePair, Q, R):
    cost, grad, _ = _mpc_sensitivities(net, x0, useq, refs, Q, R)
    return cost, grad


MPC_TOL = 1e-8  # absolute projected-gradient bound, near what the Armijo test still resolves
MPC_MAX_ITERATIONS = 150  # caps a stall; Gauss–Newton takes a median 2 steps on the CSTR loop


def mpc_solve(
    model,
    x_hat: np.ndarray,
    refs: ReferencePair,
    cfg: MpcConfig,
    initial_sequence: np.ndarray | None = None,
) -> MpcSolution:
    """Minimize the tracking cost over the input moves inside the box.

    Single shooting; projected Gauss–Newton (Bertsekas 1982) with Armijo
    backtracking along the projected arc.  Each iteration holds every move
    that sits at a bound with ``-g`` pointing out of the box (its step is
    ``-g``, which the projection cancels) and takes the Gauss–Newton step
    on the free moves, until the projected gradient ``u - P(u - g)`` has
    norm ``MPC_TOL`` or ``MPC_MAX_ITERATIONS`` steps are taken.  The returned
    sequence satisfies the bounds exactly.  If the iteration stalls the best
    feasible iterate is returned with ``converged=False``.
    """
    net = _unwrap(model)
    m, horizon = net.input_dim, cfg.horizon
    lo = np.repeat(cfg.u_min[:, None], horizon, axis=1)
    hi = np.repeat(cfg.u_max[:, None], horizon, axis=1)
    def project(u):  # np.clip's own formula, without its Python-level dispatch
        return np.minimum(np.maximum(u, lo), hi)
    if initial_sequence is not None and initial_sequence.shape == (m, horizon):
        useq = project(initial_sequence)
    else:
        useq = project(np.repeat(refs.u_ref[:, None], horizon, axis=1))
    x_hat = np.asarray(x_hat, dtype=float)
    Q, R = cfg.state_weight, cfg.input_weight

    cost, grad, hess = _mpc_sensitivities(net, x_hat, useq, refs, Q, R)
    converged = False
    iterations = 0
    while iterations < MPC_MAX_ITERATIONS:
        projected_residual = useq - project(useq - grad)
        if float(np.linalg.norm(projected_residual)) <= MPC_TOL:
            converged = True
            break

        # hessian rows and columns run over the time-major moves useq.T
        held = ((useq <= lo) & (grad > 0)) | ((useq >= hi) & (grad < 0))
        free = ~held.T.ravel()
        direction = -grad.T.ravel()
        direction[free] = np.linalg.solve(hess[free][:, free], direction[free])
        direction = direction.reshape(horizon, m).T

        accepted = None
        a = 1.0
        for _ in range(40):
            trial = project(useq + a * direction)
            step = trial - useq
            inner = float((grad * step).sum())
            if inner >= 0 or not step.any():
                a *= 0.5
                continue
            new = _mpc_sensitivities(net, x_hat, trial, refs, Q, R)
            if new[0] <= cost + 1e-4 * inner:
                accepted = trial, new
                break
            a *= 0.5
        if accepted is None:
            break
        useq, (cost, grad, hess) = accepted
        iterations += 1

    return MpcSolution(sequence=useq, first_move=useq[:, 0].copy(), cost=cost,
                       converged=converged, iterations=iterations)


def hold_levels(levels, n_steps: int) -> np.ndarray:
    """Piecewise-constant schedule holding each level for ``n_steps // len(levels)`` steps.

    The last level also takes the remainder.  Raises ``ValueError`` for an
    empty level list or for fewer steps than levels.
    """
    levels = np.asarray(levels, dtype=float)
    n_levels = levels.shape[0]
    if n_levels < 1:
        raise ValueError("need at least one target level")
    if n_steps < n_levels:
        raise ValueError(f"{n_levels} target levels need at least {n_levels} steps, got {n_steps}")
    hold = n_steps // n_levels
    reps = [hold] * n_levels
    reps[-1] += n_steps - hold * n_levels
    return np.repeat(levels, reps)


def quarterly_targets(
    n_steps: int = 100, start: float = 0.7, decrement: float = 0.1, n_quarters: int = 4
) -> np.ndarray:
    """Piecewise-constant target: start for the first quarter, stepped down per quarter."""
    return hold_levels(start - decrement * np.arange(n_quarters), n_steps)


@dataclass
class ClosedLoopLog:
    targets: np.ndarray
    y_measured: np.ndarray
    y_true: np.ndarray
    y_model: np.ndarray
    u: np.ndarray  # (m, n)
    x_hat: np.ndarray  # (s, n)
    mpc_cost: np.ndarray
    mpc_converged: np.ndarray  # bool
    mpc_iterations: np.ndarray  # int
    y_full: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return self.targets.shape[0]

    def head(self, k: int) -> "ClosedLoopLog":
        """The log of the first ``k`` steps."""
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return ClosedLoopLog(**{name: None if v is None else v[..., :k] for name, v in columns.items()})

    def to_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["k", "y_target", "y", "y_true", "y_model", "u"]
            header += [f"x_hat_{i + 1}" for i in range(self.x_hat.shape[0])]
            header += ["mpc_cost", "mpc_converged", "mpc_iterations"]
            if self.y_full is not None:
                header.append("y_full_model")
            writer.writerow(header)
            for k in range(self.n_steps):
                row = [
                    k,
                    repr(float(self.targets[k])),
                    repr(float(self.y_measured[k])),
                    repr(float(self.y_true[k])),
                    repr(float(self.y_model[k])),
                    repr(float(self.u[0, k])),
                ]
                row += [repr(float(v)) for v in self.x_hat[:, k]]
                row += [repr(float(self.mpc_cost[k])), int(self.mpc_converged[k]),
                        int(self.mpc_iterations[k])]
                if self.y_full is not None:
                    row.append(repr(float(self.y_full[k])))
                writer.writerow(row)


def closed_loop_run(
    params: CstrParams,
    sim: SimConfig,
    model,
    ekf_cfg: EkfConfig,
    mpc_cfg: MpcConfig,
    targets: np.ndarray | None = None,
    full_model: SsnnModel | None = None,
) -> ClosedLoopLog:
    """Receding-horizon loop on the true plant.

    Each step: filter the plant measurement, resolve (cached) steady-state
    references for the current target, solve the MPC problem warm-started
    from the previous shifted solution, and apply the first move to the
    plant.  When ``full_model`` is given it is simulated open loop with the
    applied inputs and its output prediction is logged alongside.
    """
    net = _unwrap(model)
    s, m = net.state_dim, net.input_dim
    if targets is None:
        targets = quarterly_targets()
    targets = np.asarray(targets, dtype=float)
    n = targets.shape[0]

    noise_rng = np.random.default_rng([int(sim.seed), 2])
    log = ClosedLoopLog(
        targets=targets,
        y_measured=np.empty(n),
        y_true=np.empty(n),
        y_model=np.empty(n),
        u=np.empty((m, n)),
        x_hat=np.empty((s, n)),
        mpc_cost=np.empty(n),
        mpc_converged=np.empty(n, dtype=bool),
        mpc_iterations=np.empty(n, dtype=int),
        y_full=np.empty(n) if full_model is not None else None,
    )

    x_plant = np.asarray(sim.x0, dtype=float)
    x_full = full_model.x0 if full_model is not None else None
    ekf = EkfState(estimate=np.zeros(s), covariance=ekf_cfg.initial_cov)
    u_prev = np.zeros(m)
    refs_cache: dict[float, ReferencePair] = {}
    warm = None
    bounds = (mpc_cfg.u_min, mpc_cfg.u_max)

    for k in range(n):
        try:
            y_true = float(x_plant[1])
            y_meas = y_true + sim.noise_std * float(noise_rng.standard_normal())
            ekf = ekf_step(net, ekf, ekf_cfg, u_prev, y_meas)

            y_t = float(targets[k])
            if y_t not in refs_cache:
                refs_cache[y_t] = solve_steady_state(net, y_t, u_bounds=bounds)
            refs = refs_cache[y_t]

            sol = mpc_solve(net, ekf.estimate, refs, mpc_cfg, initial_sequence=warm)
            u_k = sol.first_move

            log.y_true[k] = y_true
            log.y_measured[k] = y_meas
            log.y_model[k] = float(output_map(net, ekf.estimate)[0])
            log.u[:, k] = u_k
            log.x_hat[:, k] = ekf.estimate
            log.mpc_cost[k] = sol.cost
            log.mpc_converged[k] = sol.converged
            log.mpc_iterations[k] = sol.iterations
            if full_model is not None:
                log.y_full[k] = float(output_map(full_model, x_full)[0])
                x_full = state_step(full_model, x_full, u_k)

            x_plant = plant_step(x_plant, float(u_k[0]), params, sim.sample_period, sim.substeps)
            warm = np.hstack([sol.sequence[:, 1:], sol.sequence[:, -1:]])
            u_prev = u_k
        except Exception as exc:
            raise ClosedLoopError(k, f"closed loop failed at step {k}: {exc}", log.head(k)) from exc

    return log
