import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssnno as s
import ssnno.estimation_control as ec

from conftest import random_architecture


def scalar_linear_model(a, b, c, x0=0.0):
    arch = s.SsnnArchitecture(1, 1, 1, (1,), (1,))
    return s.SsnnModel(
        arch=arch,
        state_layers=(s.LayerParams(np.array([[a, b]]), np.zeros(1), s.ActivationKind.LINEAR),),
        output_layers=(s.LayerParams(np.array([[c]]), np.zeros(1), s.ActivationKind.LINEAR),),
        x0=np.array([x0]),
    )


def small_random_model(rng, max_state=3):
    arch = random_architecture(rng)
    while arch.state_dim > max_state:
        arch = random_architecture(rng)
    return s.random_model(arch, rng)


# --- jacobians -------------------------------------------------------------------


def test_jacobian_of_linear_layer_is_weight_block():
    model = scalar_linear_model(0.8, 0.5, 1.5)
    F, Gu, H = s.model_jacobians(model, np.array([0.3]), np.array([-0.2]))
    assert F[0, 0] == pytest.approx(0.8, abs=1e-15)
    assert Gu[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert H[0, 0] == pytest.approx(1.5, abs=1e-15)


def test_jacobians_match_finite_differences_random_models():
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(50):
        model = small_random_model(rng)
        d, m = model.state_dim, model.input_dim
        x = rng.standard_normal(d)
        u = rng.standard_normal(m)
        F, Gu, H = s.model_jacobians(model, x, u)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd = (s.state_step(model, x + e, u) - s.state_step(model, x - e, u)) / (2 * h)
            assert np.abs(F[:, i] - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5
            fd_h = (s.output_map(model, x + e) - s.output_map(model, x - e)) / (2 * h)
            assert np.abs(H[:, i] - fd_h).max() / max(1.0, np.abs(fd_h).max()) < 1e-5
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            fd = (s.state_step(model, x, u + e) - s.state_step(model, x, u - e)) / (2 * h)
            assert np.abs(Gu[:, j] - fd).max() / max(1.0, np.abs(fd).max()) < 1e-5


def test_saturated_activation_gives_vanishing_rows():
    arch = s.SsnnArchitecture(1, 1, 1, (1, 1), (1,))
    model = s.SsnnModel(
        arch=arch,
        state_layers=(
            s.LayerParams(np.array([[1.0, 0.0]]), np.zeros(1), s.ActivationKind.TANH),
            s.LayerParams(np.array([[1.0]]), np.zeros(1), s.ActivationKind.LINEAR),
        ),
        output_layers=(s.LayerParams(np.array([[1.0]]), np.zeros(1), s.ActivationKind.LINEAR),),
        x0=np.zeros(1),
    )
    F, _, _ = s.model_jacobians(model, np.array([30.0]), np.zeros(1))
    assert np.abs(F).max() < 1e-12


# --- EKF -------------------------------------------------------------------------


def test_huge_measurement_covariance_keeps_prior():
    model = scalar_linear_model(0.9, 0.3, 1.0)
    cfg = s.EkfConfig(process_cov=np.eye(1) * 0.01, measurement_cov=np.eye(1) * 1e12,
                      initial_cov=np.eye(1))
    state = s.EkfState(estimate=np.array([0.4]), covariance=np.eye(1) * 0.5)
    new = s.ekf_step(model, state, cfg, np.array([0.1]), np.array([25.0]))
    predicted = s.state_step(model, state.estimate, np.array([0.1]))
    assert np.abs(new.estimate - predicted).max() < 1e-9


def test_matches_hand_computed_scalar_kalman_filter():
    a, b, c = 0.85, 0.4, 1.2
    q, r = 0.01, 0.05
    model = scalar_linear_model(a, b, c)
    cfg = s.EkfConfig(process_cov=np.array([[q]]), measurement_cov=np.array([[r]]),
                      initial_cov=np.array([[1.0]]))
    rng = np.random.default_rng(7)
    us = rng.uniform(-1, 1, 10)
    ys = rng.standard_normal(10)

    state = s.EkfState(estimate=np.array([0.0]), covariance=np.array([[1.0]]))
    x_hat, p = 0.0, 1.0
    for k in range(10):
        state = s.ekf_step(model, state, cfg, np.array([us[k]]), np.array([ys[k]]))
        # scalar recursion with Joseph-form covariance update
        x_pred = a * x_hat + b * us[k]
        p_pred = a * a * p + q
        gain = p_pred * c / (c * c * p_pred + r)
        x_hat = x_pred + gain * (ys[k] - c * x_pred)
        p = (1 - gain * c) ** 2 * p_pred + gain * gain * r
        assert abs(state.estimate[0] - x_hat) < 1e-10
        assert abs(state.covariance[0, 0] - p) < 1e-10


def test_estimate_converges_on_perfect_linear_model():
    arch = s.SsnnArchitecture(2, 1, 1, (2,), (1,))
    A = np.array([[0.9, 0.1, 0.4], [0.0, 0.8, 0.3]])
    model = s.SsnnModel(
        arch=arch,
        state_layers=(s.LayerParams(A, np.zeros(2), s.ActivationKind.LINEAR),),
        output_layers=(s.LayerParams(np.array([[1.0, 0.3]]), np.zeros(1), s.ActivationKind.LINEAR),),
        x0=np.array([0.5, -0.5]),
    )
    rng = np.random.default_rng(11)
    U = rng.uniform(-1, 1, (1, 60))
    traj = s.simulate(model, U)
    cfg = s.EkfConfig(process_cov=np.eye(2) * 1e-8, measurement_cov=np.eye(1) * 1e-6,
                      initial_cov=np.eye(2))
    state = s.EkfState(estimate=np.zeros(2), covariance=np.eye(2))
    for k in range(1, 60):
        state = s.ekf_step(model, state, cfg, U[:, k - 1], traj.outputs[:, k])
        if k >= 50:
            assert np.abs(state.estimate - traj.states[:, k]).max() < 1e-3


def test_covariance_stays_symmetric_psd(reduced_order_two):
    rng = np.random.default_rng(13)
    cfg = s.default_ekf_config(reduced_order_two.order)
    state = s.EkfState(estimate=np.zeros(2), covariance=cfg.initial_cov)
    for _ in range(300):
        u = rng.uniform(-1, 0, 1)
        y = rng.uniform(0, 1, 1)
        state = s.ekf_step(reduced_order_two, state, cfg, u, y)
        P = state.covariance
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-10


# --- steady state ------------------------------------------------------------------


def test_recovers_constructed_fixed_point():
    rng = np.random.default_rng(17)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    model = s.random_model(arch, rng, init_scale=0.4)
    u_star = np.array([-0.3])
    x_star = np.zeros(2)
    for _ in range(300):
        x_star = s.state_step(model, x_star, u_star)
    assert np.abs(s.state_step(model, x_star, u_star) - x_star).max() < 1e-13
    y_t = s.output_map(model, x_star)
    ref = s.solve_steady_state(model, y_t, u_bounds=(-1.0, 0.0))
    assert ref.residual_norm <= 1e-8
    assert np.abs(ref.x_ref - x_star).max() < 1e-5
    assert np.abs(ref.u_ref - u_star).max() < 1e-5


def test_affine_model_converges_in_one_newton_step():
    model = scalar_linear_model(0.5, 1.0, 2.0)
    ref = s.solve_steady_state(model, np.array([1.0]), u_bounds=(-5.0, 5.0),
                               max_iterations=1, n_starts=1)
    assert ref.residual_norm <= 1e-12
    # closed form: x = y/c, u = x(1-a)/b
    assert ref.x_ref[0] == pytest.approx(0.5, abs=1e-9)
    assert ref.u_ref[0] == pytest.approx(0.25, abs=1e-9)


def test_infeasible_target_raises():
    # outputs of this model live in (-1, 1): a target of 5 has no steady state
    arch = s.SsnnArchitecture(1, 1, 1, (1,), (1, 1))
    model = s.SsnnModel(
        arch=arch,
        state_layers=(s.LayerParams(np.array([[0.5, 0.5]]), np.zeros(1), s.ActivationKind.LINEAR),),
        output_layers=(
            s.LayerParams(np.array([[1.0]]), np.zeros(1), s.ActivationKind.TANH),
            s.LayerParams(np.array([[1.0]]), np.zeros(1), s.ActivationKind.LINEAR),
        ),
        x0=np.zeros(1),
    )
    with pytest.raises(ec.SteadyStateError):
        s.solve_steady_state(model, np.array([5.0]))


def test_reference_pair_rejects_large_residual():
    with pytest.raises(ValueError):
        s.ReferencePair(x_ref=np.zeros(2), u_ref=np.zeros(1), target=np.array([0.5]),
                        residual_norm=1e-5)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), init_scale=st.floats(0.4, 0.8),
       target=st.floats(-0.99, 0.99), reachable=st.booleans())
def test_steady_state_returns_a_converged_pair_or_raises_steady_state_error(seed, d, init_scale, target,
                                                                             reachable):
    rng = np.random.default_rng(seed)
    net = s.random_model(s.SsnnArchitecture(d, 1, 1, (3, d), (2, 1)), rng, init_scale=init_scale)
    if reachable:
        # most random targets have no steady state; the output where a constant input settles has one
        x, u = np.zeros(d), rng.uniform(-1, 0, 1)
        for _ in range(200):
            x = s.state_step(net, x, u)
        target = float(np.clip(s.output_map(net, x)[0], -0.99, 0.99))
    try:
        ref = s.solve_steady_state(net, target)
    except ec.SteadyStateError:
        return
    assert ref.residual_norm <= ec.STEADY_STATE_TOL


def two_input_model():
    """x+ = 0.5 x + 0.25 (u1 + u2), y = x: steady state at y_t needs u1 + u2 = 2 y_t."""
    arch = s.SsnnArchitecture(1, 2, 1, (1,), (1,))
    return s.SsnnModel(
        arch=arch,
        state_layers=(s.LayerParams(np.array([[0.5, 0.25, 0.25]]), np.zeros(1), s.ActivationKind.LINEAR),),
        output_layers=(s.LayerParams(np.array([[1.0]]), np.zeros(1), s.ActivationKind.LINEAR),),
        x0=np.zeros(1),
    )


def test_closed_loop_references_lie_in_every_input_box(monkeypatch):
    lo, hi = np.array([-1.0, 1.0]), np.array([0.0, 2.0])
    picked = []
    original = ec.solve_steady_state

    def recording(*args, **kwargs):
        picked.append(original(*args, **kwargs))
        return picked[-1]

    monkeypatch.setattr(ec, "solve_steady_state", recording)
    cfg = s.MpcConfig(horizon=3, state_weight=np.eye(1), input_weight=0.5 * np.eye(2),
                      u_min=lo, u_max=hi)
    with pytest.warns(UserWarning, match="least-squares"):
        log = s.closed_loop_run(
            s.CstrParams(), s.SimConfig(horizon=4, noise_std=0.0, seed=0),
            two_input_model(), s.default_ekf_config(1), cfg, targets=np.full(4, 0.75),
        )
    assert len(picked) == 1
    assert np.all(picked[0].u_ref >= lo) and np.all(picked[0].u_ref <= hi)
    assert np.all(log.u >= lo[:, None]) and np.all(log.u <= hi[:, None])


# --- MPC -------------------------------------------------------------------------


def test_mpc_config_accepts_rank_one_state_weights():
    # B Bᵀ has zero eigenvalues that roundoff leaves slightly negative
    rng = np.random.default_rng(67)
    for _ in range(200):
        B = rng.standard_normal((3, 1))
        cfg = s.MpcConfig(horizon=2, state_weight=B @ B.T)
        assert np.array_equal(cfg.state_weight, B @ B.T)


def test_mpc_config_rejects_non_square_state_weight_as_usage_error():
    # the CLI maps LinAlgError (a ValueError subclass) to the numerical-failure exit code
    with pytest.raises(ValueError, match="square") as exc:
        s.MpcConfig(state_weight=np.ones((1, 3)))
    assert not isinstance(exc.value, np.linalg.LinAlgError)


def test_configs_reject_non_finite_weights():
    # eigvalsh maps an infinite entry to inf or nan eigenvalues, which a sign test lets through
    inf = np.diag([np.inf, 1.0])
    with pytest.raises(ValueError, match="finite"):
        s.MpcConfig(state_weight=inf)
    with pytest.raises(ValueError, match="finite"):
        s.EkfConfig(process_cov=inf, measurement_cov=np.eye(1), initial_cov=np.eye(2))


def test_mpc_at_reference_fixed_point_costs_nothing():
    rng = np.random.default_rng(19)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    model = s.random_model(arch, rng, init_scale=0.4)
    u_star = np.array([-0.4])
    x_star = np.zeros(2)
    for _ in range(300):
        x_star = s.state_step(model, x_star, u_star)
    ref = s.ReferencePair(x_ref=x_star, u_ref=u_star, target=s.output_map(model, x_star),
                          residual_norm=0.0)
    cfg = s.default_mpc_config(2)
    sol = s.mpc_solve(model, x_star, ref, cfg)
    assert sol.cost < 1e-12
    assert np.abs(sol.sequence - u_star[:, None]).max() < 1e-6


def test_single_step_unconstrained_matches_closed_form():
    a, b, c = 0.7, 0.6, 1.0
    model = scalar_linear_model(a, b, c)
    q, r = 2.0, 0.5
    x_ref, u_ref, x_hat = 0.8, 0.1, -0.3
    cfg = s.MpcConfig(horizon=1, state_weight=np.array([[q]]), input_weight=np.array([[r]]),
                      u_min=np.array([-100.0]), u_max=np.array([100.0]))
    ref = s.ReferencePair(x_ref=np.array([x_ref]), u_ref=np.array([u_ref]),
                          target=np.array([c * x_ref]), residual_norm=0.0)
    sol = s.mpc_solve(model, np.array([x_hat]), ref, cfg)
    expected = (q * b * (x_ref - a * x_hat) + r * u_ref) / (q * b * b + r)
    assert sol.first_move[0] == pytest.approx(expected, abs=1e-6)


def test_mpc_respects_bounds_exactly():
    rng = np.random.default_rng(23)
    for _ in range(20):
        model = small_random_model(rng)
        m = model.input_dim
        cfg = s.MpcConfig(horizon=int(rng.integers(1, 6)),
                          state_weight=np.eye(model.state_dim),
                          input_weight=np.eye(m) * 0.5,
                          u_min=-np.ones(m), u_max=np.zeros(m))
        ref = s.ReferencePair(x_ref=rng.standard_normal(model.state_dim),
                              u_ref=rng.uniform(-1, 0, m),
                              target=np.zeros(model.output_dim), residual_norm=0.0)
        sol = s.mpc_solve(model, rng.standard_normal(model.state_dim), ref, cfg)
        assert np.all(sol.sequence >= cfg.u_min[:, None])
        assert np.all(sol.sequence <= cfg.u_max[:, None])


def test_nominal_receding_horizon_cost_nonincreasing_and_tracking():
    # plant replaced by the model itself: applying the first move repeatedly
    # from the reference fixed point drives the tracking error to zero
    rng = np.random.default_rng(29)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    model = s.random_model(arch, rng, init_scale=0.4)
    u_star = np.array([-0.5])
    x_star = np.zeros(2)
    for _ in range(400):
        x_star = s.state_step(model, x_star, u_star)
    ref = s.ReferencePair(x_ref=x_star, u_ref=u_star, target=s.output_map(model, x_star),
                          residual_norm=0.0)
    cfg = s.default_mpc_config(2)
    x = x_star + np.array([0.2, -0.1])
    costs = []
    warm = None
    for _ in range(30):
        sol = s.mpc_solve(model, x, ref, cfg, initial_sequence=warm)
        costs.append(sol.cost)
        x = s.state_step(model, x, sol.first_move)
        warm = np.hstack([sol.sequence[:, 1:], sol.sequence[:, -1:]])
    assert np.abs(x - x_star).max() < 1e-4
    assert all(b <= a + 1e-9 for a, b in zip(costs, costs[1:]))


# --- closed loop -------------------------------------------------------------------


def test_constant_target_resolves_references_once(reduced_order_two, monkeypatch):
    calls = {"n": 0}
    original = ec.solve_steady_state

    def counting(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(ec, "solve_steady_state", counting)
    log = s.closed_loop_run(
        s.CstrParams(), s.SimConfig(horizon=10, noise_std=0.0, seed=0),
        reduced_order_two, s.default_ekf_config(2), s.default_mpc_config(2),
        targets=np.full(10, 0.6),
    )
    assert calls["n"] == 1
    assert log.n_steps == 10


def test_closed_loop_failure_carries_partial_log(reduced_order_two):
    cfg = s.default_mpc_config(2)
    targets = np.concatenate([np.full(5, 0.6), np.full(5, np.nan)])  # NaN target breaks refs
    with pytest.raises(ec.ClosedLoopError) as err:
        s.closed_loop_run(
            s.CstrParams(), s.SimConfig(horizon=10, noise_std=0.0, seed=0),
            reduced_order_two, s.default_ekf_config(2), cfg, targets=targets,
        )
    assert err.value.step == 5
    assert err.value.partial_log.n_steps == 5


def test_quarterly_target_schedule_shape():
    t = s.quarterly_targets(100, 0.7, 0.1, 4)
    assert t.shape == (100,)
    assert np.allclose(np.unique(t), [0.4, 0.5, 0.6, 0.7], atol=1e-12)
    assert t[0] == 0.7 and t[24] == 0.7 and t[25] == pytest.approx(0.6) and t[-1] == pytest.approx(0.4)


# --- MPC shooting gradient ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(3, 7),
       hidden=st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_mpc_cost_gradient_matches_central_differences(seed, horizon, hidden):
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    arch = s.SsnnArchitecture(d, m, 1, tuple(hidden) + (d,), (2, 1))
    net = s.random_model(arch, rng, init_scale=0.8)
    A = rng.standard_normal((d, d))
    Q = A @ A.T
    R = np.diag(rng.uniform(0.1, 1.0, m))
    refs = ec.ReferencePair(x_ref=rng.standard_normal(d), u_ref=rng.uniform(-1, 0, m),
                            target=np.zeros(1), residual_norm=0.0)
    x0 = rng.standard_normal(d)
    useq = rng.uniform(-1, 0, (m, horizon))
    cost, grad = ec._mpc_cost_grad(net, x0, useq, refs, Q, R)
    h = 1e-6
    fd = np.empty_like(useq)
    for idx in np.ndindex(useq.shape):
        e = np.zeros_like(useq)
        e[idx] = h
        fd[idx] = (ec._mpc_cost_grad(net, x0, useq + e, refs, Q, R)[0]
                   - ec._mpc_cost_grad(net, x0, useq - e, refs, Q, R)[0]) / (2 * h)
    assert np.abs(grad - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


# --- projected Gauss–Newton ---------------------------------------------------------


def random_linear_model(rng, d, m):
    arch = s.SsnnArchitecture(d, m, 1, (d,), (1,))
    return s.SsnnModel(
        arch=arch,
        state_layers=(s.LayerParams(rng.uniform(-0.8, 0.8, (d, d + m)), rng.uniform(-0.5, 0.5, d),
                                    s.ActivationKind.LINEAR),),
        output_layers=(s.LayerParams(rng.standard_normal((1, d)), np.zeros(1), s.ActivationKind.LINEAR),),
        x0=np.zeros(d),
    )


def random_tracking_problem(rng, d, m):
    """Weights, references and a start state."""
    B = rng.standard_normal((d, d))
    Q = B @ B.T + 0.1 * np.eye(d)
    R = np.diag(rng.uniform(0.1, 1.0, m))
    refs = ec.ReferencePair(x_ref=rng.standard_normal(d), u_ref=rng.uniform(-1.5, 0.5, m),
                            target=np.zeros(1), residual_norm=0.0)
    return Q, R, refs, rng.standard_normal(d)


def flat_hessian_by_central_differences(net, x0, useq, refs, Q, R, h=1e-5):
    """Columns over the time-major moves ``useq.T.ravel()``, like the Gauss–Newton Hessian."""
    m, horizon = useq.shape
    fd = np.empty((m * horizon, m * horizon))
    for j in range(m * horizon):
        e = np.zeros(m * horizon)
        e[j] = h
        e = e.reshape(horizon, m).T
        g_plus = ec._mpc_cost_grad(net, x0, useq + e, refs, Q, R)[1]
        g_minus = ec._mpc_cost_grad(net, x0, useq - e, refs, Q, R)[1]
        fd[:, j] = ((g_plus - g_minus) / (2 * h)).T.ravel()
    return fd


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), m=st.integers(1, 2),
       horizon=st.integers(1, 6))
def test_mpc_meets_box_kkt_conditions_on_linear_models(seed, d, m, horizon):
    # linear model: the problem is a convex box QP, so KKT is sufficient for optimality
    rng = np.random.default_rng(seed)
    net = random_linear_model(rng, d, m)
    Q, R, refs, x0 = random_tracking_problem(rng, d, m)
    lo = rng.uniform(-1.0, 0.0, m)
    hi = lo + rng.uniform(0.05, 1.0, m)
    cfg = s.MpcConfig(horizon=horizon, state_weight=Q, input_weight=R, u_min=lo, u_max=hi)
    sol = s.mpc_solve(net, x0, refs, cfg)
    assert sol.converged
    useq = sol.sequence
    _, grad = ec._mpc_cost_grad(net, x0, useq, refs, Q, R)
    at_lo, at_hi = useq == lo[:, None], useq == hi[:, None]
    free = ~(at_lo | at_hi)
    assert np.all(useq >= lo[:, None]) and np.all(useq <= hi[:, None])
    assert np.all(np.abs(grad[free]) <= 1e-7)
    assert np.all(grad[at_lo] >= -1e-7)
    assert np.all(grad[at_hi] <= 1e-7)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), m=st.integers(1, 2),
       horizon=st.integers(1, 6))
def test_gauss_newton_hessian_is_exact_for_linear_models(seed, d, m, horizon):
    rng = np.random.default_rng(seed)
    net = random_linear_model(rng, d, m)
    Q, R, refs, x0 = random_tracking_problem(rng, d, m)
    useq = rng.uniform(-1, 0, (m, horizon))
    cost, grad, hess = ec._mpc_sensitivities(net, x0, useq, refs, Q, R)
    cost_only, grad_only = ec._mpc_cost_grad(net, x0, useq, refs, Q, R)
    assert cost_only == cost and np.array_equal(grad_only, grad)
    fd = flat_hessian_by_central_differences(net, x0, useq, refs, Q, R)
    assert np.abs(hess - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 7),
       hidden=st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_gauss_newton_hessian_is_symmetric_positive_definite(seed, horizon, hidden):
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    net = s.random_model(s.SsnnArchitecture(d, m, 1, tuple(hidden) + (d,), (2, 1)), rng, init_scale=0.8)
    Q, R, refs, x0 = random_tracking_problem(rng, d, m)
    _, _, hess = ec._mpc_sensitivities(net, x0, rng.uniform(-1, 0, (m, horizon)), refs, Q, R)
    scale = max(1.0, np.abs(hess).max())
    assert hess.shape == (m * horizon, m * horizon)
    assert np.abs(hess - hess.T).max() <= 1e-12 * scale
    # 2(SᵀQ̄S + R̄) is at least 2R̄, whatever the sensitivities
    assert np.linalg.eigvalsh(hess).min() >= 2 * np.diag(R).min() - 1e-9 * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 7),
       hidden=st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_mpc_never_returns_a_costlier_sequence_than_its_start(seed, horizon, hidden):
    rng = np.random.default_rng(seed)
    d, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    net = s.random_model(s.SsnnArchitecture(d, m, 1, tuple(hidden) + (d,), (2, 1)), rng, init_scale=0.8)
    Q, R, refs, x0 = random_tracking_problem(rng, d, m)
    cfg = s.MpcConfig(horizon=horizon, state_weight=Q, input_weight=R,
                      u_min=-np.ones(m), u_max=np.zeros(m))
    start = rng.uniform(-1, 0, (m, horizon))
    sol = s.mpc_solve(net, x0, refs, cfg, initial_sequence=start)
    assert sol.cost <= ec._mpc_cost_grad(net, x0, start, refs, Q, R)[0]
    assert sol.cost == ec._mpc_cost_grad(net, x0, sol.sequence, refs, Q, R)[0]
    assert 0 <= sol.iterations <= 150
