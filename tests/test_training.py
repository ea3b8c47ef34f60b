from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ssnno as s

from conftest import random_architecture


def make_instance(rng, d=None, n=None):
    """Random model plus a dataset whose outputs are perturbed model outputs."""
    arch = random_architecture(rng)
    if d is not None:
        while arch.state_dim != d:
            arch = random_architecture(rng)
    model = s.random_model(arch, rng)
    n = n or int(rng.integers(5, 21))
    U = rng.standard_normal((arch.input_dim, n))
    Y = s.simulate(model, U).outputs + 0.1 * rng.standard_normal((arch.output_dim, n))
    data = s.Dataset.from_arrays(U, Y)
    weights = s.LossWeights(
        alpha=float(rng.uniform(0.001, 0.5)),
        beta=float(rng.uniform(0.001, 0.5)),
        w=np.sort(rng.uniform(0.1, 3.0, arch.state_dim)) + np.arange(arch.state_dim),
    )
    return model, data, weights


def fd_gradient(model, data, weights, h=1e-6):
    theta = s.flatten_params(model)
    arch = model.arch
    grad = np.empty_like(theta)
    for i in range(theta.shape[0]):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += h
        minus[i] -= h
        f_plus = s.loss(s.unflatten_params(arch, plus), data, weights).total
        f_minus = s.loss(s.unflatten_params(arch, minus), data, weights).total
        grad[i] = (f_plus - f_minus) / (2 * h)
    return grad


# --- loss -----------------------------------------------------------------------


def test_loss_zero_for_exact_fit_with_zero_output_params():
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    model = s.unflatten_params(arch, np.zeros(arch.n_params))
    data = s.Dataset.from_arrays(np.ones((1, 10)), np.zeros((1, 10)))
    weights = s.LossWeights.default(2, 0.1, 0.1)
    bd = s.loss(model, data, weights)
    assert bd.total == 0.0
    assert bd.spe == 0.0 and bd.variance_term == 0.0 and bd.param_term == 0.0


def test_loss_reduces_to_prediction_error_as_terms_vanish():
    rng = np.random.default_rng(2)
    model, data, _ = make_instance(rng)
    weights = s.LossWeights.default(model.state_dim, 1e-14, 1e-14)
    bd = s.loss(model, data, weights)
    spe = float(((data.Y_train - s.simulate(model, data.U_train).outputs) ** 2).sum())
    assert bd.spe == pytest.approx(spe, rel=1e-12)
    assert bd.total == pytest.approx(spe, rel=1e-9)


def test_variance_term_matches_weighted_variance_identity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        model, data, weights = make_instance(rng)
        bd = s.loss(model, data, weights)
        X = s.simulate(model, data.U_train).states
        n = X.shape[1]
        oracle = (n - 1) * float((weights.w * X.var(axis=1, ddof=1)).sum())
        assert bd.variance_term == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_loss_decomposition_recomputed_independently():
    rng = np.random.default_rng(6)
    model, data, weights = make_instance(rng)
    bd = s.loss(model, data, weights)
    traj = s.simulate(model, data.U_train)
    spe = float(((data.Y_train - traj.outputs) ** 2).sum())
    centered = traj.states - traj.states.mean(axis=1, keepdims=True)
    jv = float((weights.w[:, None] * centered ** 2).sum())
    jg = float(sum((l.weights ** 2).sum() + (l.bias ** 2).sum() for l in model.output_layers))
    assert bd.total == pytest.approx(spe + weights.alpha * jv + weights.beta * jg, rel=1e-10)
    assert bd.spe == pytest.approx(spe, rel=1e-10)
    assert bd.variance_term == pytest.approx(jv, rel=1e-10)
    assert bd.param_term == pytest.approx(jg, rel=1e-10)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        s.LossWeights(alpha=0.0, beta=1.0, w=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        s.LossWeights(alpha=1.0, beta=1.0, w=np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        s.LossWeights(alpha=1.0, beta=1.0, w=np.array([1.0, 1.0]))


def test_loss_propagates_divergence():
    arch = s.SsnnArchitecture(1, 1, 1, (1,), (1,))
    model = s.SsnnModel(
        arch=arch,
        state_layers=(s.LayerParams(np.array([[1e200, 0.0]]), np.zeros(1), s.ActivationKind.LINEAR),),
        output_layers=(s.LayerParams(np.eye(1), np.zeros(1), s.ActivationKind.LINEAR),),
        x0=np.array([1.0]),
    )
    data = s.Dataset.from_arrays(np.ones((1, 10)), np.zeros((1, 10)))
    with pytest.raises(s.DivergenceError):
        s.loss(model, data, s.LossWeights.default(1, 0.1, 0.1))


# --- gradient ---------------------------------------------------------------------


def test_gradient_vanishes_at_perfect_zero_fit():
    arch = s.SsnnArchitecture(2, 1, 1, (2, 2), (2, 1))
    model = s.unflatten_params(arch, np.zeros(arch.n_params))
    data = s.Dataset.from_arrays(np.ones((1, 8)), np.zeros((1, 8)))
    grad = s.loss_gradient(model, data, s.LossWeights.default(2, 0.2, 0.3))
    assert np.allclose(grad, 0.0, atol=1e-14)


def test_gradient_matches_finite_differences_small_instance():
    rng = np.random.default_rng(13)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    model = s.random_model(arch, rng)
    U = rng.standard_normal((1, 10))
    Y = s.simulate(model, U).outputs + 0.2 * rng.standard_normal((1, 10))
    data = s.Dataset.from_arrays(U, Y)
    weights = s.LossWeights.default(2, 0.05, 0.1)
    grad = s.loss_gradient(model, data, weights)
    fd = fd_gradient(model, data, weights)
    rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
    assert rel.max() < 1e-6


def test_gradient_wrt_initial_state_matches_finite_differences():
    rng = np.random.default_rng(17)
    model, data, weights = make_instance(rng)
    d = model.state_dim
    grad = s.loss_gradient(model, data, weights)[-d:]
    theta = s.flatten_params(model)
    h = 1e-6
    for i in range(d):
        plus, minus = theta.copy(), theta.copy()
        plus[-d + i] += h
        minus[-d + i] -= h
        fd = (
            s.loss(s.unflatten_params(model.arch, plus), data, weights).total
            - s.loss(s.unflatten_params(model.arch, minus), data, weights).total
        ) / (2 * h)
        assert abs(grad[i] - fd) / max(1.0, abs(fd)) < 1e-6


def test_gradient_correctness_random_sweep():
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(10):
        model, data, weights = make_instance(rng)
        grad = s.loss_gradient(model, data, weights)
        fd = fd_gradient(model, data, weights)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        worst = max(worst, float(rel.max()))
    assert worst < 1e-5


# --- train ------------------------------------------------------------------------


def linear_scalar_model(a, b, c, bias_out=0.0, x0=0.0):
    arch = s.SsnnArchitecture(1, 1, 1, (1,), (1,))
    return s.SsnnModel(
        arch=arch,
        state_layers=(s.LayerParams(np.array([[a, b]]), np.zeros(1), s.ActivationKind.LINEAR),),
        output_layers=(s.LayerParams(np.array([[c]]), np.array([bias_out]), s.ActivationKind.LINEAR),),
        x0=np.array([x0]),
    )


def test_train_recovers_linear_generator():
    rng = np.random.default_rng(23)
    true = linear_scalar_model(0.7, 0.4, 1.3, bias_out=0.2, x0=0.5)
    U = rng.uniform(-1, 1, (1, 80))
    data = s.Dataset.from_arrays(U, s.simulate(true, U).outputs)
    weights = s.LossWeights(alpha=1e-9, beta=1e-9, w=np.array([1.0]))
    report = s.train(data, true.arch, weights, s.TrainConfig(max_iterations=400, seed=1))
    assert report.loss_history[-1].spe / 80 < 1e-6


def test_train_zero_iterations_returns_initial_unchanged():
    rng = np.random.default_rng(29)
    arch = s.SsnnArchitecture(2, 1, 1, (2, 2), (2, 1))
    initial = s.random_model(arch, rng)
    data = s.Dataset.from_arrays(rng.standard_normal((1, 10)), rng.standard_normal((1, 10)))
    cfg = s.TrainConfig(max_iterations=0)
    report = s.train(data, arch, s.LossWeights.default(2, 0.1, 0.1), cfg, initial=initial)
    assert not report.converged
    assert report.iterations == 0
    assert np.array_equal(s.flatten_params(report.model), s.flatten_params(initial))


def test_train_history_is_monotone():
    rng = np.random.default_rng(31)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    U = rng.uniform(-1, 1, (1, 40))
    Y = np.sin(np.cumsum(U, axis=1))
    data = s.Dataset.from_arrays(U, Y)
    report = s.train(data, arch, s.LossWeights.default(2, 0.01, 0.05),
                     s.TrainConfig(max_iterations=150, seed=2))
    totals = [bd.total for bd in report.loss_history]
    assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
    assert len(report.gradient_norms) == len(totals)


def test_spe_only_baseline_fits_tighter_than_regularized():
    rng = np.random.default_rng(37)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    generator = s.random_model(arch, rng)
    U = rng.uniform(-1, 1, (1, 60))
    data = s.Dataset.from_arrays(U, s.simulate(generator, U).outputs)
    weights = s.LossWeights.default(2, 0.5, 0.5)
    ssnn = s.train(data, arch, weights,
                   s.TrainConfig(max_iterations=300, seed=3, baseline_mode=s.BaselineMode.SSNN_SPE_ONLY))
    ssnno = s.train(data, arch, weights, s.TrainConfig(max_iterations=300, seed=3))
    assert ssnn.loss_history[-1].spe <= s.loss(ssnno.model, data, weights).spe


def test_spe_only_history_total_equals_spe():
    rng = np.random.default_rng(41)
    arch = s.SsnnArchitecture(2, 1, 1, (2,), (1,))
    data = s.Dataset.from_arrays(rng.uniform(-1, 1, (1, 30)), rng.standard_normal((1, 30)))
    report = s.train(data, arch, s.LossWeights.default(2, 0.3, 0.3),
                     s.TrainConfig(max_iterations=60, seed=0, baseline_mode=s.BaselineMode.SSNN_SPE_ONLY))
    for bd in report.loss_history:
        assert bd.total == bd.spe


# --- ordered-variance repair ---------------------------------------------------------


def test_repair_on_single_state_is_single_pass():
    rng = np.random.default_rng(43)
    true = linear_scalar_model(0.6, 0.5, 1.0)
    U = rng.uniform(-1, 1, (1, 50))
    data = s.Dataset.from_arrays(U, s.simulate(true, U).outputs)
    weights = s.LossWeights(alpha=0.01, beta=0.01, w=np.array([1.0]))
    cfg = s.TrainConfig(max_iterations=100, seed=0)
    initial = s.random_model(true.arch, np.random.default_rng(0))
    report = s.repair_variance_ordering(data, weights, cfg, initial)
    assert report.outer_passes == 1
    assert s.is_variance_ordered(report.stats, 1e-12)
    # permutation entry equals the trained loss exactly (identity permutation)
    assert report.loss_history[-1].total == report.loss_history[-2].total


def test_repair_orders_and_never_increases_loss():
    rng = np.random.default_rng(47)
    arch = s.SsnnArchitecture(3, 1, 1, (3, 3), (3, 1))
    U = rng.uniform(-1, 1, (1, 60))
    Y = np.sin(1.5 * np.cumsum(U, axis=1)) + 0.05 * rng.standard_normal((1, 60))
    data = s.Dataset.from_arrays(U, Y)
    weights = s.LossWeights.default(3, 0.05, 0.1)
    for seed in range(3):
        cfg = s.TrainConfig(max_iterations=120, seed=seed)
        initial = s.random_model(arch, np.random.default_rng(seed))
        report = s.repair_variance_ordering(data, weights, cfg, initial)
        assert s.is_variance_ordered(report.stats, 1e-12)
        totals = [bd.total for bd in report.loss_history]
        assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:]))


@pytest.fixture(scope="module")
def two_pass_repair():
    """A repair run on a short CSTR data set that needs a second training pass."""
    U = s.generate_input(seed=7, n_samples=360, n_steps=18, train_window=200)
    data = s.generate_dataset(s.CstrParams(), s.SimConfig(horizon=360, seed=7), U, split_index=200)
    arch = s.SsnnArchitecture(3, 1, 1, (3, 3), (3, 1))
    weights = s.LossWeights.default(3, 0.0025, 0.25)
    cfg = s.TrainConfig(max_iterations=40, seed=7)
    initial = s.random_model(arch, np.random.default_rng(7), cfg.init_scale)
    return data, weights, cfg, initial, s.repair_variance_ordering(data, weights, cfg, initial)


def test_repair_report_describes_its_returned_model(two_pass_repair):
    data, weights, _, _, report = two_pass_repair
    assert report.outer_passes >= 2
    assert report.loss_history[-1] == s.loss(report.model, data, weights)
    stats = s.variance_stats(s.simulate(report.model, data.U_train).states)
    for field in ("mean", "covariance", "variances"):
        assert np.array_equal(getattr(report.stats, field), getattr(stats, field))
    assert len(report.gradient_norms) == len(report.loss_history)


def test_repair_of_a_divergent_twin_is_a_divergence_error(two_pass_repair, monkeypatch):
    data, weights, cfg, initial, _ = two_pass_repair
    permute = s.training._perm.permute_model

    def blown_up(model, index):
        twin = permute(model, index)
        layers = tuple(replace(l, weights=1e300 * l.weights) for l in twin.output_layers)
        return replace(twin, output_layers=layers)

    monkeypatch.setattr(s.training._perm, "permute_model", blown_up)
    with pytest.raises(s.DivergenceError):
        s.repair_variance_ordering(data, weights, cfg, initial)


def test_starved_line_search_returns_best_iterate():
    # one backtrack is rarely enough for a strong-Wolfe step; the trainer must
    # still hand back its best iterate with converged=False rather than raise
    rng = np.random.default_rng(59)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    data = s.Dataset.from_arrays(rng.uniform(-1, 1, (1, 30)), rng.standard_normal((1, 30)))
    cfg = s.TrainConfig(max_iterations=200, max_backtracks=1, seed=0)
    report = s.train(data, arch, s.LossWeights.default(2, 0.1, 0.1), cfg)
    assert not report.converged
    totals = [bd.total for bd in report.loss_history]
    assert totals[-1] <= totals[0]


def test_rejects_mismatched_initial_model():
    rng = np.random.default_rng(61)
    arch = s.SsnnArchitecture(2, 1, 1, (2,), (1,))
    other = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    data = s.Dataset.from_arrays(rng.uniform(-1, 1, (1, 10)), rng.standard_normal((1, 10)))
    with pytest.raises(ValueError, match="architecture"):
        s.train(data, arch, s.LossWeights.default(2, 0.1, 0.1), s.TrainConfig(),
                initial=s.random_model(other, rng))


def test_history_csv_export(tmp_path):
    rng = np.random.default_rng(53)
    arch = s.SsnnArchitecture(1, 1, 1, (1,), (1,))
    data = s.Dataset.from_arrays(rng.uniform(-1, 1, (1, 20)), rng.standard_normal((1, 20)))
    report = s.train(data, arch, s.LossWeights(alpha=0.1, beta=0.1, w=np.array([1.0])),
                     s.TrainConfig(max_iterations=20, seed=0))
    path = tmp_path / "history.csv"
    s.training.export_history_csv(report, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,total,spe,variance_term,param_term,grad_norm"
    assert len(lines) == len(report.loss_history) + 1


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_objective_treats_non_finite_parameters_as_divergent(bad):
    rng = np.random.default_rng(67)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    U, Y = rng.uniform(-1, 1, (1, 12)), rng.standard_normal((1, 12))
    fg = s.training._make_objective(arch, U, Y, np.array([1.0, 2.0]), 0.1, 0.1, None, None)
    theta = s.flatten_params(s.random_model(arch, rng))
    assert np.isfinite(fg(theta)[0])
    theta[3] = bad
    assert fg(theta) == (np.inf, None, None)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 4), max_size=2),
       tanh_last=st.booleans(), d=st.integers(1, 3))
def test_loss_gradient_matches_central_differences_on_random_architectures(seed, hidden, tanh_last, d):
    rng = np.random.default_rng(seed)
    m, p, n = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(2, 16))
    arch = s.SsnnArchitecture(d, m, p, tuple(hidden) + (d,), (3, p))
    acts = s.core_model.default_activations(len(arch.state_layer_widths))
    if tanh_last:
        acts = acts[:-1] + (s.ActivationKind.TANH,)
    theta = rng.uniform(-0.8, 0.8, arch.n_params)
    model = s.unflatten_params(arch, theta, state_activations=acts)
    U = rng.standard_normal((m, n))
    data = s.Dataset.from_arrays(U, rng.standard_normal((p, n)))
    weights = s.LossWeights(alpha=float(rng.uniform(0.01, 0.5)), beta=float(rng.uniform(0.01, 0.5)),
                            w=np.arange(1.0, d + 1.0))
    grad = s.loss_gradient(model, data, weights)

    def total(th):
        return s.loss(s.unflatten_params(arch, th, state_activations=acts), data, weights).total

    h = 1e-6
    fd = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        fd[i] = (total(theta + e) - total(theta - e)) / (2 * h)
    assert np.allclose(grad, fd, rtol=1e-6, atol=1e-6)


# --- the deferred gradient and the accepted evaluation's states -----------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 4), max_size=2),
       tanh_last=st.booleans(), d=st.integers(1, 3), max_iterations=st.sampled_from([0, 1, 5]),
       max_backtracks=st.sampled_from([1, 30]))
def test_train_stats_are_those_of_the_returned_model(seed, hidden, tanh_last, d, max_iterations,
                                                     max_backtracks):
    # one backtrack often ends the line search on a rejected trial, whose states
    # must not reach the report
    rng = np.random.default_rng(seed)
    m, p, n = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(2, 30))
    arch = s.SsnnArchitecture(d, m, p, tuple(hidden) + (d,), (3, p))
    acts = s.core_model.default_activations(len(arch.state_layer_widths))
    if tanh_last:
        acts = acts[:-1] + (s.ActivationKind.TANH,)
    initial = s.unflatten_params(arch, rng.uniform(-0.8, 0.8, arch.n_params), state_activations=acts)
    U = rng.standard_normal((m, n))
    data = s.Dataset.from_arrays(U, rng.standard_normal((p, n)))
    cfg = s.TrainConfig(max_iterations=max_iterations, max_backtracks=max_backtracks)
    report = s.train(data, arch, s.LossWeights.default(d, 0.1, 0.1), cfg, initial=initial)
    stats = s.variance_stats(s.simulate(report.model, U).states)
    for field in ("mean", "covariance", "variances"):
        assert np.array_equal(getattr(report.stats, field), getattr(stats, field))


def test_deferred_gradient_equals_loss_gradient_bitwise():
    rng = np.random.default_rng(71)
    arch = s.SsnnArchitecture(3, 1, 1, (3, 3), (3, 1))
    U, Y = rng.uniform(-1, 1, (1, 40)), rng.standard_normal((1, 40))
    weights = s.LossWeights.default(3, 0.1, 0.1)
    fg = s.training._make_objective(arch, U, Y, weights.w, weights.alpha, weights.beta, None, None)
    theta = s.flatten_params(s.random_model(arch, rng))
    f, bd, (X, gradient) = fg(theta)
    assert np.isfinite(fg(theta + 0.1)[0])  # a later evaluation must leave this one's values alone
    deferred = gradient()
    model = s.unflatten_params(arch, theta)
    data = s.Dataset.from_arrays(U, Y)
    assert bd == s.loss(model, data, weights) and f == bd.total
    assert np.array_equal(X, s.simulate(model, U).states)
    assert np.array_equal(deferred, s.loss_gradient(model, data, weights))


def test_line_search_computes_gradients_only_for_trials_it_uses(monkeypatch):
    evaluated, differentiated = [], []
    forward = s.training._loss_and_gradient

    def counted(*args):
        bd, X, gradient = forward(*args)
        evaluated.append(bd.total)

        def counted_gradient():
            differentiated.append(bd.total)
            return gradient()
        return bd, X, counted_gradient

    monkeypatch.setattr(s.training, "_loss_and_gradient", counted)
    rng = np.random.default_rng(31)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    U = rng.uniform(-1, 1, (1, 40))
    data = s.Dataset.from_arrays(U, np.sin(np.cumsum(U, axis=1)))
    report = s.train(data, arch, s.LossWeights.default(2, 0.01, 0.05),
                     s.TrainConfig(max_iterations=40, seed=2))
    # every accepted point has its gradient, and at least one rejected trial had none
    assert report.iterations == 40
    assert {bd.total for bd in report.loss_history} <= set(differentiated)
    assert report.iterations + 1 <= len(differentiated) < len(evaluated)


def _plain_loss_gradient(model, data, weights):
    """The training gradient with the costate recursion as a plain out-of-place loop.

    A step is the one product ``[lam_{k+1}, 1] [J_k; G_X[:, k]ᵀ]``.  Also returns
    the costates, every ``G_X`` column and every state Jacobian ``J_k``.
    """
    cm = s.core_model
    U, Y, d = data.U_train, data.Y_train, model.state_dim
    X = cm.rollout(model, U)
    g_cache = cm.output_values(model, X)
    with np.errstate(over="ignore", invalid="ignore"):  # an expansive model's costates overflow
        G_X = 2.0 * weights.alpha * (weights.w[:, None] * (X - X.mean(axis=1)[:, None]))
        g_grads = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.output_layers]
        G_X += cm.chain_vjp(model.output_layers, g_cache, 2.0 * (g_cache[-1] - Y), g_grads)
        for (gw, gb), layer in zip(g_grads, model.output_layers):
            gw += 2.0 * weights.beta * layer.weights
            gb += 2.0 * weights.beta * layer.bias
        f_cache = cm.chain_forward(model.state_layers, np.vstack([X[:, :-1], U[:, :-1]]))
        J = cm.chain_jacobian(model.state_layers, f_cache[0], f_cache)[1][:, :, :d]
        Lam_rows = G_X.T.copy()
        for k in reversed(range(X.shape[1] - 1)):
            Lam_rows[k] = np.dot(np.append(Lam_rows[k + 1], 1.0), np.vstack([J[k], G_X[:, k]]))
        f_grads = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.state_layers]
        cm.chain_vjp(model.state_layers, f_cache, Lam_rows.T[:, 1:], f_grads)
    grad = np.concatenate([part for gw, gb in f_grads + g_grads for part in (gw.ravel(), gb)] + [Lam_rows[0]])
    return grad, Lam_rows.T, G_X, J


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), hidden=st.lists(st.integers(1, 5), max_size=2),
       tanh=st.lists(st.booleans(), min_size=3, max_size=3), n=st.integers(2, 300))
def test_loss_gradient_matches_plain_costate_loop_bitwise(seed, d, hidden, tanh, n):
    # m = 2 makes each state Jacobian J_k a strided slice of the (d, d + m) step Jacobian
    rng = np.random.default_rng(seed)
    arch = s.SsnnArchitecture(d, 2, 1, tuple(hidden) + (d,), (3, 1))
    acts = tuple(s.ActivationKind.TANH if t else s.ActivationKind.LINEAR for t in tanh)
    model = s.unflatten_params(arch, rng.uniform(-1, 1, arch.n_params), state_activations=acts[: len(hidden) + 1])
    U = rng.uniform(-1, 1, (2, n))
    data = s.Dataset.from_arrays(U, np.sin(np.cumsum(U, axis=1))[:1])
    weights = s.LossWeights.default(d, 0.1, 0.1)
    plain, Lam, G_X, J = _plain_loss_gradient(model, data, weights)
    assert np.array_equal(s.loss_gradient(model, data, weights), plain,
                          equal_nan=True)  # bit for bit, NaN where the costates overflowed included
    if np.isfinite(Lam).all():
        # each costate against one plain step G_X[:, k] + J_kᵀ lam_{k+1} from the costate after it
        steps = np.column_stack([G_X[:, k] + J[k].T @ Lam[:, k + 1] for k in range(n - 1)])
        assert np.abs(Lam[:, :-1] - steps).max() <= 1e-12 * np.abs(Lam).max()


def _plain_two_loop(grad, mem):
    """The L-BFGS two-loop recursion with its inner products written ``s @ q``."""
    q = grad.copy()
    alphas = []
    for s_k, y, rho in reversed(mem):
        a = rho * float(s_k @ q)
        alphas.append(a)
        q -= a * y
    if mem:
        s_k, y, _ = mem[-1]
        q *= float(s_k @ y) / float(y @ y)
    for (s_k, y, rho), a in zip(mem, reversed(alphas)):
        b = rho * float(y @ q)
        q += (a - b) * s_k
    return q


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(0, 10), n=st.integers(1, 80))
def test_two_loop_matches_plain_formula_bitwise(seed, pairs, n):
    rng = np.random.default_rng(seed)
    mem = deque(maxlen=s.training.LBFGS_MEMORY)
    for _ in range(pairs):
        mem.append((rng.standard_normal(n), rng.standard_normal(n), float(rng.uniform(0.1, 2.0))))
    grad = rng.standard_normal(n)
    assert np.array_equal(s.training._two_loop(grad, mem), _plain_two_loop(grad, mem))


def _repair_evaluating_every_twin(data, weights, config, initial):
    """The repair loop that evaluates every twin, the identity sort's too, by a zero-iteration train."""
    evaluate_only = replace(config, max_iterations=0)
    history, grad_norms, iterations = (), (), 0
    for passes in range(1, s.training.MAX_OUTER_PASSES + 1):
        report = s.training.train(data, initial.arch, weights, config, initial=initial)
        initial = s.training._perm.permute_model(report.model, s.training._perm.variance_sort_index(report.stats))
        twin = s.training.train(data, initial.arch, weights, evaluate_only, initial=initial)
        history += report.loss_history + twin.loss_history
        grad_norms += report.gradient_norms + twin.gradient_norms
        iterations += report.iterations
        if not (report.loss_history[-1].total - twin.loss_history[0].total > 0.0):
            break
    return replace(
        twin, loss_history=history, gradient_norms=grad_norms, iterations=iterations,
        converged=report.converged, gradient_norm=report.gradient_norm, outer_passes=passes,
    )


@pytest.mark.parametrize("d, max_iterations, seed, max_passes, ends_on_identity", [
    (1, 30, 0, 10, True),
    (2, 3, 2, 10, True),
    (3, 3, 4, 10, True),
    (3, 3, 4, 2, False),  # the pass cap ends the loop on a permuting sort
    (3, 0, 1, 10, True),
])
def test_repair_reuses_the_last_evaluation_for_an_identity_twin(monkeypatch, d, max_iterations, seed, max_passes,
                                                                ends_on_identity):
    rng = np.random.default_rng(5)
    U = rng.uniform(-1, 1, (1, 60))
    data = s.Dataset.from_arrays(U, np.sin(1.5 * np.cumsum(U, axis=1)) + 0.05 * rng.standard_normal((1, 60)))
    arch = s.SsnnArchitecture(d, 1, 1, (3, d), (3, 1))
    weights = s.LossWeights.default(d, 0.05, 0.1)
    cfg = s.TrainConfig(max_iterations=max_iterations, seed=seed)
    initial = s.random_model(arch, np.random.default_rng(seed))
    monkeypatch.setattr(s.training, "MAX_OUTER_PASSES", max_passes)

    counts = {"unflatten": 0, "train": 0, "identity": 0}
    unflatten, train, sort = s.training.unflatten_params, s.training.train, s.training._perm.variance_sort_index

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def sort_noting_identities(stats):
        index = sort(stats)
        counts["identity"] += index.is_identity()
        return index

    monkeypatch.setattr(s.training, "unflatten_params", counted("unflatten", unflatten))
    monkeypatch.setattr(s.training, "train", counted("train", train))
    monkeypatch.setattr(s.training._perm, "variance_sort_index", sort_noting_identities)
    want = _repair_evaluating_every_twin(data, weights, cfg, initial)
    old = dict(counts)
    counts.update(unflatten=0, train=0, identity=0)
    got = s.repair_variance_ordering(data, weights, cfg, initial)

    assert np.array_equal(s.flatten_params(got.model), s.flatten_params(want.model))
    for field in ("mean", "covariance", "variances"):
        assert np.array_equal(getattr(got.stats, field), getattr(want.stats, field))
    assert got.loss_history == want.loss_history
    assert got.gradient_norms == want.gradient_norms
    for field in ("iterations", "converged", "gradient_norm", "outer_passes"):
        assert getattr(got, field) == getattr(want, field)
    # objective evaluations are the unflatten calls less one per train call (its returned model)
    assert counts["identity"] == old["identity"] == int(ends_on_identity)
    assert old["train"] - counts["train"] == counts["identity"]
    assert (old["unflatten"] - old["train"]) - (counts["unflatten"] - counts["train"]) == counts["identity"]


@settings(max_examples=100, deadline=None)
@example(seed=0, d=1, n=40, other_n=41, hidden=[], m=1, tanh_last=False)
@example(seed=1, d=3, n=40, other_n=7, hidden=[3], m=2, tanh_last=True)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), n=st.integers(1, 300), other_n=st.integers(1, 300),
       hidden=st.lists(st.integers(1, 4), max_size=2), m=st.integers(1, 2), tanh_last=st.booleans())
def test_no_scratch_buffer_escapes_an_evaluation(seed, d, n, other_n, hidden, m, tanh_last):
    # rollout and the gradient reuse per-use buffers across calls; what one
    # evaluation returns must survive the next evaluations, of any shape
    rng = np.random.default_rng(seed)
    arch = s.SsnnArchitecture(d, m, 1, tuple(hidden) + (d,), (3, 1))
    acts = s.core_model.default_activations(len(arch.state_layer_widths))
    if tanh_last:
        acts = acts[:-1] + (s.ActivationKind.TANH,)
    weights = s.LossWeights.default(d, 0.1, 0.1)

    def draw(columns):
        model = s.unflatten_params(arch, rng.uniform(-0.8, 0.8, arch.n_params), state_activations=acts)
        U = rng.uniform(-1, 1, (m, columns))
        return model, U, np.sin(np.cumsum(U, axis=1))[:1]

    def evaluate(model, U, Y):
        _, X, gradient = s.training._loss_and_gradient(model, U, Y, weights.w, weights.alpha, weights.beta)
        return X, s.simulate(model, U), (gradient() if U.shape[1] >= 2 else None), gradient

    model1, U, Y = draw(n)
    X1, traj1, g1, gradient1 = evaluate(model1, U, Y)
    kept = {"X": X1, "states": traj1.states, "outputs": traj1.outputs, "gradient": g1}
    want = {key: value.copy() for key, value in kept.items() if value is not None}

    model2 = draw(n)[0]  # same shapes: every buffer is reused
    evaluate(model2, U, Y)
    with pytest.raises(s.DivergenceError):
        s.rollout(replace(model2, x0=np.full(d, np.inf)), U)
    other = other_n if other_n != n else n + 1  # a new shape: every buffer is rebuilt
    evaluate(*draw(other))

    for key, value in want.items():  # checked before any evaluation can refill a buffer
        assert np.array_equal(kept[key], value), key
    if n >= 2:  # the deferred gradient, run only now
        assert np.array_equal(gradient1(), want["gradient"])
    X1_fresh, traj1_fresh, g1_fresh, _ = evaluate(model1, U, Y)
    fresh = {"X": X1_fresh, "states": traj1_fresh.states, "outputs": traj1_fresh.outputs, "gradient": g1_fresh}
    for key, value in want.items():
        assert np.array_equal(fresh[key], value), key
