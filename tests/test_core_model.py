import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ssnno as s
from ssnno.core_model import ModelDimensionError

from conftest import random_architecture


def linear_layer(weights, bias=None):
    weights = np.asarray(weights, dtype=float)
    if bias is None:
        bias = np.zeros(weights.shape[0])
    return s.LayerParams(weights=weights, bias=bias, activation=s.ActivationKind.LINEAR)


def tanh_layer(weights, bias=None):
    weights = np.asarray(weights, dtype=float)
    if bias is None:
        bias = np.zeros(weights.shape[0])
    return s.LayerParams(weights=weights, bias=bias, activation=s.ActivationKind.TANH)


def zero_model(arch: s.SsnnArchitecture) -> s.SsnnModel:
    return s.unflatten_params(arch, np.zeros(arch.n_params))


# --- layer_forward ----------------------------------------------------------------


def test_layer_forward_linear_identity():
    layer = linear_layer(np.eye(2))
    out = s.layer_forward(layer, np.array([3.0, -1.0]))
    assert np.array_equal(out, [3.0, -1.0])


def test_layer_forward_tanh_zero_weights():
    layer = tanh_layer(np.zeros((3, 2)))
    out = s.layer_forward(layer, np.array([5.0, -7.0]))
    assert np.array_equal(out, np.zeros(3))


def test_layer_forward_tanh_matches_scalar_oracle():
    layer = tanh_layer(np.eye(2), bias=np.array([0.5, 0.0]))
    out = s.layer_forward(layer, np.array([0.5, 0.0]))
    assert out[0] == pytest.approx(math.tanh(1.0), abs=1e-15)
    assert out[1] == pytest.approx(0.0, abs=1e-15)


def test_layer_forward_dimension_error_names_layer_and_sizes():
    layer = linear_layer(np.zeros((2, 3)))
    with pytest.raises(ModelDimensionError, match=r"layer 4.*2 rows.*expect 3"):
        s.layer_forward(layer, np.zeros(2), index=4)


# --- state_step / output_map --------------------------------------------------------


def test_state_step_zero_model_gives_zero_state():
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (1,))
    model = zero_model(arch)
    out = s.state_step(model, np.array([0.4, -0.2]), np.array([1.0]))
    assert np.array_equal(out, np.zeros(2))


def test_state_step_single_linear_layer_is_dense_affine():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((2, 3))
    b = rng.standard_normal(2)
    arch = s.SsnnArchitecture(2, 1, 1, (2,), (1,))
    model = s.SsnnModel(
        arch=arch,
        state_layers=(linear_layer(A, b),),
        output_layers=(linear_layer(np.zeros((1, 2))),),
        x0=np.zeros(2),
    )
    x = rng.standard_normal(2)
    u = rng.standard_normal(1)
    expected = A[:, :2] @ x + A[:, 2:] @ u + b
    assert np.allclose(s.state_step(model, x, u), expected, atol=1e-14)


def test_experiment_architecture_shapes():
    arch = s.SsnnArchitecture(3, 1, 1, (3, 3), (3, 1))
    model = s.random_model(arch, np.random.default_rng(0))
    x = np.zeros(3)
    assert s.state_step(model, x, np.zeros(1)).shape == (3,)
    assert s.output_map(model, x).shape == (1,)


def test_output_map_single_linear_layer_oracle():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((2, 3))
    b = rng.standard_normal(2)
    arch = s.SsnnArchitecture(3, 1, 2, (3,), (2,))
    model = s.SsnnModel(
        arch=arch,
        state_layers=(linear_layer(rng.standard_normal((3, 4)) * 0.1),),
        output_layers=(linear_layer(A, b),),
        x0=np.zeros(3),
    )
    x = rng.standard_normal(3)
    assert np.allclose(s.output_map(model, x), A @ x + b, atol=1e-14)


def test_state_step_dimension_mismatch():
    arch = s.SsnnArchitecture(2, 1, 1, (2,), (1,))
    model = zero_model(arch)
    with pytest.raises(ModelDimensionError):
        s.state_step(model, np.zeros(3), np.zeros(1))
    with pytest.raises(ModelDimensionError):
        s.output_map(model, np.zeros(1))


# --- simulate ---------------------------------------------------------------------


def test_simulate_single_column_is_initial_state_only():
    arch = s.SsnnArchitecture(2, 1, 1, (2,), (1,))
    rng = np.random.default_rng(3)
    model = s.random_model(arch, rng)
    traj = s.simulate(model, np.zeros((1, 1)))
    assert np.array_equal(traj.states[:, 0], model.x0)
    assert np.array_equal(traj.outputs[:, 0], s.output_map(model, model.x0))


def test_simulate_zero_model_is_zero_trajectory():
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    model = zero_model(arch)
    traj = s.simulate(model, np.random.default_rng(0).standard_normal((1, 8)))
    assert np.array_equal(traj.states, np.zeros((2, 8)))
    assert np.array_equal(traj.outputs, np.zeros((1, 8)))


def test_simulate_matches_hand_unrolled_composition():
    rng = np.random.default_rng(5)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    model = s.random_model(arch, rng)
    U = rng.standard_normal((1, 5))
    traj = s.simulate(model, U)
    x = model.x0
    for k in range(5):
        assert np.allclose(traj.states[:, k], x, atol=1e-12)
        assert np.allclose(traj.outputs[:, k], s.output_map(model, x), atol=1e-12)
        if k < 4:
            x = s.state_step(model, x, U[:, k])


def test_simulate_deterministic():
    rng = np.random.default_rng(9)
    arch = s.SsnnArchitecture(3, 2, 2, (4, 3), (3, 2))
    model = s.random_model(arch, rng)
    U = rng.standard_normal((2, 50))
    a = s.simulate(model, U)
    b = s.simulate(model, U)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.outputs, b.outputs)


def test_simulate_divergence_carries_step_index():
    # purely linear state map with spectral radius > 1 blows up
    arch = s.SsnnArchitecture(1, 1, 1, (1,), (1,))
    model = s.SsnnModel(
        arch=arch,
        state_layers=(linear_layer(np.array([[1e200, 1e200]])),),
        output_layers=(linear_layer(np.array([[1.0]])),),
        x0=np.array([1.0]),
    )
    with pytest.raises(s.DivergenceError) as err:
        s.simulate(model, np.ones((1, 10)))
    assert err.value.step >= 1


# --- variance statistics -------------------------------------------------------------


def test_variance_stats_constant_columns():
    X = np.tile(np.array([[1.5], [-2.0]]), (1, 6))
    stats = s.variance_stats(X)
    assert np.allclose(stats.covariance, 0.0, atol=1e-15)
    assert np.array_equal(stats.mean, [1.5, -2.0])


def test_variance_stats_two_samples_hand_computed():
    stats = s.variance_stats(np.array([[1.0, -1.0]]))
    assert stats.mean[0] == 0.0
    assert stats.variances[0] == pytest.approx(2.0, abs=1e-15)


def test_variance_stats_two_state_hand_computed():
    X = np.array([[0.0, 2.0], [0.0, 0.0]])
    stats = s.variance_stats(X)
    assert stats.variances[0] == pytest.approx(2.0, abs=1e-15)
    assert stats.variances[1] == 0.0


def test_variance_stats_needs_two_samples():
    with pytest.raises(ValueError):
        s.variance_stats(np.zeros((2, 1)))


def test_covariance_psd_on_random_trajectories():
    rng = np.random.default_rng(21)
    for _ in range(20):
        arch = random_architecture(rng)
        model = s.random_model(arch, rng)
        U = rng.standard_normal((arch.input_dim, 30))
        stats = s.variance_stats(s.simulate(model, U).states)
        assert np.linalg.eigvalsh(stats.covariance).min() >= -1e-10


def test_is_variance_ordered_reference_profiles():
    ordered = s.VarianceStats(np.zeros(3), np.diag([0.1353, 0.0006, 0.0001]),
                              np.array([0.1353, 0.0006, 0.0001]))
    unordered = s.VarianceStats(np.zeros(3), np.diag([0.0029, 0.0010, 0.0264]),
                                np.array([0.0029, 0.0010, 0.0264]))
    ties = s.VarianceStats(np.zeros(3), np.eye(3), np.ones(3))
    assert s.is_variance_ordered(ordered, 0.0)
    assert not s.is_variance_ordered(unordered, 0.0)
    assert s.is_variance_ordered(ties, 0.0)


# --- flatten / unflatten -------------------------------------------------------------


def test_flatten_roundtrip_exact_random_architectures():
    rng = np.random.default_rng(33)
    for _ in range(100):
        arch = random_architecture(rng)
        model = s.random_model(arch, rng)
        theta = s.flatten_params(model)
        back = s.unflatten_params(arch, theta)
        for a, b in zip(model.state_layers + model.output_layers,
                        back.state_layers + back.output_layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert a.activation is b.activation
        assert np.array_equal(model.x0, back.x0)
        assert np.array_equal(s.flatten_params(back), theta)


def test_flatten_length_for_experiment_architecture():
    arch = s.SsnnArchitecture(3, 1, 1, (3, 3), (3, 1))
    # (3*4+3) + (3*3+3) + (3*3+3) + (1*3+1) + 3
    assert arch.n_params == 46
    model = s.random_model(arch, np.random.default_rng(0))
    assert s.flatten_params(model).shape == (46,)


def test_flatten_perturbation_is_local():
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    model = s.random_model(arch, np.random.default_rng(1))
    theta = s.flatten_params(model)
    for i in (0, 11, len(theta) - 1):
        bumped = theta.copy()
        bumped[i] += 1.0
        other = s.unflatten_params(arch, bumped)
        changed = 0
        for a, b in zip(model.state_layers + model.output_layers,
                        other.state_layers + other.output_layers):
            changed += int((a.weights != b.weights).sum()) + int((a.bias != b.bias).sum())
        changed += int((model.x0 != other.x0).sum())
        assert changed == 1


def test_unflatten_rejects_wrong_length():
    arch = s.SsnnArchitecture(2, 1, 1, (2,), (1,))
    with pytest.raises(ValueError):
        s.unflatten_params(arch, np.zeros(arch.n_params + 1))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), tanh=st.lists(st.booleans(), min_size=4, max_size=4))
def test_unflatten_matches_the_validating_constructors(seed, tanh):
    rng = np.random.default_rng(seed)
    arch = random_architecture(rng)
    n_state = len(arch.state_layer_widths)
    acts = [s.ActivationKind.TANH if t else s.ActivationKind.LINEAR for t in tanh]
    state_acts, output_acts = tuple(acts[:n_state]), tuple(acts[2:2 + len(arch.output_layer_widths)])
    theta = rng.uniform(-1.0, 1.0, arch.n_params)
    got = s.unflatten_params(arch, theta, state_acts, output_acts)
    layers, pos = [], 0
    for width, fan_in, act in zip(arch.state_layer_widths + arch.output_layer_widths,
                                  arch.state_fan_ins + arch.output_fan_ins, state_acts + output_acts):
        end = pos + width * fan_in
        layers.append(s.LayerParams(theta[pos:end].reshape(width, fan_in), theta[end:end + width], act))
        pos = end + width
    want = s.SsnnModel(arch, tuple(layers[:n_state]), tuple(layers[n_state:]), theta[pos:])
    assert got.arch == want.arch
    assert len(got.state_layers) == n_state and len(got.output_layers) == len(layers) - n_state
    for a, b in zip(got.state_layers + got.output_layers, want.state_layers + want.output_layers):
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
        assert a.activation is b.activation
        assert a.weights.flags.c_contiguous and np.shares_memory(a.weights, theta)
    assert np.array_equal(got.x0, want.x0)


def test_unflatten_checks_the_layer_part_for_finiteness_only():
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    theta = np.zeros(arch.n_params)
    theta[-1] = np.nan  # an entry of x0
    assert np.isnan(s.unflatten_params(arch, theta).x0[-1])
    theta[-1], theta[arch.n_params - arch.state_dim - 1] = 0.0, np.inf  # the last output bias
    with pytest.raises(ValueError, match="layer parameters must be finite"):
        s.unflatten_params(arch, theta)


# --- serialization -------------------------------------------------------------------


def test_model_json_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    arch = s.SsnnArchitecture(3, 1, 2, (4, 3), (3, 2))
    model = s.random_model(arch, rng)
    path = tmp_path / "model.json"
    s.save_model(model, path)
    back = s.load_model(path)
    assert back.arch == model.arch
    assert np.array_equal(s.flatten_params(back), s.flatten_params(model))
    assert all(a.activation is b.activation
               for a, b in zip(model.state_layers, back.state_layers))


def test_model_json_rejects_unknown_version(tmp_path):
    import json
    rng = np.random.default_rng(12)
    arch = s.SsnnArchitecture(1, 1, 1, (1,), (1,))
    model = s.random_model(arch, rng)
    doc = s.core_model.model_to_dict(model)
    doc["version"] = "something-else/9"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="version"):
        s.load_model(path)


# --- architecture validation ---------------------------------------------------------


def test_architecture_rejects_inconsistent_widths():
    with pytest.raises(ValueError):
        s.SsnnArchitecture(3, 1, 1, (3, 2), (3, 1))  # last state width != d
    with pytest.raises(ValueError):
        s.SsnnArchitecture(3, 1, 1, (3, 3), (3, 2))  # last output width != p
    with pytest.raises(ValueError):
        s.SsnnArchitecture(0, 1, 1, (1,), (1,))


def test_model_rejects_broken_layer_chain():
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    good = s.random_model(arch, np.random.default_rng(0))
    bad_layers = (good.state_layers[0],) + (linear_layer(np.zeros((2, 4))),)
    with pytest.raises(ModelDimensionError):
        s.SsnnModel(arch=arch, state_layers=bad_layers,
                    output_layers=good.output_layers, x0=good.x0)


# --- layer-chain kernel ----------------------------------------------------------------


def test_chain_forward_batch_matches_columns():
    rng = np.random.default_rng(71)
    arch = s.SsnnArchitecture(2, 1, 1, (4, 3, 2), (3, 1))
    model = s.random_model(arch, rng)
    V = rng.standard_normal((3, 6))
    batch = s.core_model.chain_forward(model.state_layers, V)
    assert [v.shape for v in batch] == [(3, 6), (4, 6), (3, 6), (2, 6)]
    for k in range(V.shape[1]):
        column = s.core_model.chain_forward(model.state_layers, V[:, k])
        for b, c in zip(batch, column):
            assert np.allclose(b[:, k], c, rtol=0, atol=1e-15)


def test_chain_vjp_is_transposed_jacobian_and_accumulates_parameter_gradients():
    rng = np.random.default_rng(73)
    h = 1e-6
    for _ in range(20):
        arch = random_architecture(rng)
        layers = s.random_model(arch, rng).state_layers
        v = rng.standard_normal(layers[0].fan_in)
        values = s.core_model.chain_forward(layers, v)
        out, jac = s.core_model.chain_jacobian(layers, v)
        assert np.array_equal(out, values[-1])
        cot = rng.standard_normal(out.shape[0])
        grads = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in layers]
        pulled = s.core_model.chain_vjp(layers, values, cot, grads)
        assert np.allclose(pulled, jac.T @ cot, rtol=1e-12, atol=1e-14)
        # weight gradient of cot . f against central differences, first layer
        first = layers[0]

        def f_of(w):
            stack = (s.LayerParams(w, first.bias, first.activation),) + layers[1:]
            return cot @ s.core_model.chain_forward(stack, v)[-1]

        for idx in np.ndindex(first.weights.shape):
            e = np.zeros_like(first.weights)
            e[idx] = h
            fd = (f_of(first.weights + e) - f_of(first.weights - e)) / (2 * h)
            assert grads[0][0][idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


# --- state selection ------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 4), max_size=2),
       tanh_last=st.booleans())
def test_select_states_matches_full_model_with_held_states(seed, hidden, tanh_last):
    rng = np.random.default_rng(seed)
    d, m, p = int(rng.integers(1, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
    arch = s.SsnnArchitecture(d, m, p, tuple(hidden) + (d,), (3, p))
    acts = s.core_model.default_activations(len(arch.state_layer_widths))
    if tanh_last:
        acts = acts[:-1] + (s.ActivationKind.TANH,)
    theta = rng.uniform(-1.0, 1.0, arch.n_params)
    model = s.unflatten_params(arch, theta, state_activations=acts)
    keep = rng.permutation(d)[: int(rng.integers(1, d + 1))]
    held = np.setdiff1d(np.arange(d), keep)
    frozen = rng.standard_normal(held.size)
    sel = s.core_model.select_states(model, keep, frozen)
    assert sel.state_dim == keep.size

    x, u = rng.standard_normal(keep.size), rng.standard_normal(m)
    x_full = np.empty(d)
    x_full[keep] = x
    x_full[held] = frozen
    assert np.allclose(s.state_step(sel, x, u), s.state_step(model, x_full, u)[keep], rtol=0, atol=1e-12)
    assert np.allclose(s.output_map(sel, x), s.output_map(model, x_full), rtol=0, atol=1e-12)
    assert np.array_equal(sel.x0, model.x0[keep])


def test_select_states_rejects_bad_keep_and_frozen():
    model = s.random_model(s.SsnnArchitecture(3, 1, 1, (2, 3), (1,)), np.random.default_rng(2))
    for keep in ([0, 0, 1], [0, 3], [[0, 1, 2]]):
        with pytest.raises(ValueError, match="keep"):
            s.core_model.select_states(model, keep)
    with pytest.raises(ValueError, match="frozen"):
        s.core_model.select_states(model, [0, 1])
    with pytest.raises(ValueError, match="frozen"):
        s.core_model.select_states(model, [2, 1, 0], [0.5])


# --- rollout and simulate ----------------------------------------------------------------


def test_chain_jacobian_batch_stacks_column_jacobians():
    rng = np.random.default_rng(79)
    for _ in range(10):
        layers = s.random_model(random_architecture(rng), rng).state_layers
        V = rng.standard_normal((layers[0].fan_in, 7))
        out, jac = s.core_model.chain_jacobian(layers, V)
        assert jac.shape == (7, layers[-1].width, layers[0].fan_in)
        for k in range(7):
            out_k, jac_k = s.core_model.chain_jacobian(layers, V[:, k])
            assert np.allclose(out[:, k], out_k, rtol=0, atol=1e-15)
            assert np.allclose(jac[k], jac_k, rtol=0, atol=1e-14)


# The kernel's formulas written plainly: an out-of-place forward pass, a Jacobian
# started from the identity, and every layer's derivative multiplied in, ones
# for a linear layer.  The kernel skips the exact steps and must match bitwise.


def _plain_derivative(layer, out):
    return 1.0 - out * out if layer.activation is s.ActivationKind.TANH else np.ones_like(out)


def _plain_forward(layers, value):
    values = [value]
    for layer in layers:
        bias = layer.bias if value.ndim == 1 else layer.bias[:, None]
        z = layer.weights @ value + bias
        value = np.tanh(z) if layer.activation is s.ActivationKind.TANH else z
        values.append(value)
    return values


def _plain_jacobian(layers, value):
    values = _plain_forward(layers, value)
    jac = np.eye(value.shape[0])
    for layer, out in zip(layers, values[1:]):
        jac = _plain_derivative(layer, out).T[..., None] * (layer.weights @ jac)
    return values[-1], jac


def _plain_vjp(layers, values, cotangent, grads):
    delta = cotangent
    for i in reversed(range(len(layers))):
        dpre = delta * _plain_derivative(layers[i], values[i + 1])
        weight_grad, bias_grad = grads[i]
        if dpre.ndim == 1:
            weight_grad += np.outer(dpre, values[i])
            bias_grad += dpre
        else:
            weight_grad += dpre @ values[i].T
            bias_grad += dpre.sum(axis=1)
        delta = layers[i].weights.T @ dpre
    return delta


@settings(max_examples=200, deadline=None)
# a linear first layer, then a width-1 layer: the stacked Jacobian's memory layout decides its sums
@example(seed=0, widths=[3, 5, 1], tanh=[False, True, True], columns=50, transposed_cotangent=False)
@given(seed=st.integers(0, 2**32 - 1), widths=st.lists(st.integers(1, 5), min_size=2, max_size=4),
       tanh=st.lists(st.booleans(), min_size=3, max_size=3),
       columns=st.one_of(st.none(), st.integers(1, 300)), transposed_cotangent=st.booleans())
def test_chain_kernel_matches_plain_formulas_bitwise(seed, widths, tanh, columns, transposed_cotangent):
    rng = np.random.default_rng(seed)
    layers = tuple(
        s.LayerParams(rng.uniform(-1, 1, (w, f)), rng.uniform(-1, 1, w),
                      s.ActivationKind.TANH if t else s.ActivationKind.LINEAR)
        for f, w, t in zip(widths, widths[1:], tanh)
    )
    shape = (widths[0],) if columns is None else (widths[0], columns)
    value = rng.standard_normal(shape)
    out_shape = (widths[-1],) + shape[1:]
    if columns is not None and transposed_cotangent:  # a row-major costate array, as training passes
        cotangent = rng.standard_normal((columns + 1, widths[-1])).T[:, 1:]
    else:
        cotangent = rng.standard_normal(out_shape)

    values = s.core_model.chain_forward(layers, value)
    plain_values = _plain_forward(layers, value)
    assert all(np.array_equal(a, b) for a, b in zip(values, plain_values))
    for got, want in zip(s.core_model.chain_jacobian(layers, value), _plain_jacobian(layers, value)):
        assert got.shape == want.shape and np.array_equal(got, want)
    grads, plain_grads = ([(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in layers]
                          for _ in range(2))
    delta = s.core_model.chain_vjp(layers, values, cotangent, grads)
    assert np.array_equal(delta, _plain_vjp(layers, plain_values, cotangent, plain_grads))
    for got, want in zip(grads, plain_grads):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), widths=st.lists(st.integers(1, 6), min_size=2, max_size=4),
       tanh=st.lists(st.booleans(), min_size=3, max_size=3), columns=st.integers(1, 300))
def test_chain_kernel_matches_plain_formulas_bitwise_on_an_f_ordered_batch(seed, widths, tanh, columns):
    # the kernel's products call ``ndarray.dot``, which must give ``@``'s bits on
    # F-ordered operands too: here the batch and the cotangent are transposes of C arrays
    rng = np.random.default_rng(seed)
    layers = tuple(
        s.LayerParams(rng.uniform(-1, 1, (w, f)), rng.uniform(-1, 1, w),
                      s.ActivationKind.TANH if t else s.ActivationKind.LINEAR)
        for f, w, t in zip(widths, widths[1:], tanh)
    )
    value = rng.standard_normal((columns, widths[0])).T
    cotangent = rng.standard_normal((columns, widths[-1])).T
    assert value.flags.f_contiguous and cotangent.flags.f_contiguous

    values = s.core_model.chain_forward(layers, value)
    plain_values = _plain_forward(layers, value)
    assert all(np.array_equal(a, b) for a, b in zip(values, plain_values))
    grads, plain_grads = ([(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in layers]
                          for _ in range(2))
    delta = s.core_model.chain_vjp(layers, values, cotangent, grads)
    assert np.array_equal(delta, _plain_vjp(layers, plain_values, cotangent, plain_grads))
    for got, want in zip(grads, plain_grads):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), hidden=st.lists(st.integers(1, 4), max_size=2),
       tanh=st.lists(st.booleans(), min_size=3, max_size=3), n=st.integers(1, 40))
def test_simulate_matches_state_step_output_map_loop(seed, hidden, tanh, n):
    rng = np.random.default_rng(seed)
    d, m, p = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
    arch = s.SsnnArchitecture(d, m, p, tuple(hidden) + (d,), (3, p))
    acts = tuple(s.ActivationKind.TANH if t else s.ActivationKind.LINEAR for t in tanh)
    theta = rng.uniform(-1.0, 1.0, arch.n_params)
    model = s.unflatten_params(arch, theta, state_activations=acts[: len(hidden) + 1])
    U = rng.standard_normal((m, n))
    traj = s.simulate(model, U)
    assert np.array_equal(s.core_model.rollout(model, U), traj.states)
    x = model.x0
    for k in range(n):
        assert np.allclose(traj.states[:, k], x, rtol=1e-12, atol=1e-12)
        assert np.allclose(traj.outputs[:, k], s.output_map(model, x), rtol=1e-12, atol=1e-12)
        x = s.state_step(model, x, U[:, k])


def test_state_overflow_squashed_back_still_diverges_at_its_step():
    # x_1 = 1e308 (tanh 20 + tanh 20) overflows; at step 2 the hidden units
    # saturate at +1 and -1 and the two halves cancel, so x_2 = 0 is finite again
    arch = s.SsnnArchitecture(1, 1, 1, (2, 1), (1,))
    model = s.SsnnModel(
        arch=arch,
        state_layers=(tanh_layer([[1.0, 0.0], [-1.0, 0.0]], [20.0, 20.0]),
                      linear_layer([[1e308, 1e308]])),
        output_layers=(linear_layer([[1.0]]),),
        x0=np.zeros(1),
    )
    U = np.zeros((1, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        x1 = s.state_step(model, model.x0, U[:, 0])
        assert not np.isfinite(x1).any()
        assert np.array_equal(s.state_step(model, x1, U[:, 1]), [0.0])
    for evaluate in (s.core_model.rollout, s.simulate):
        with pytest.raises(s.DivergenceError) as err:
            evaluate(model, U)
        assert err.value.step == 1
    data = s.Dataset.from_arrays(U, np.zeros((1, 4)))
    with pytest.raises(s.DivergenceError) as err:
        s.loss(model, data, s.LossWeights.default(1, 0.1, 0.1))
    assert err.value.step == 1


def _plain_affine(weights, bias, v):
    """``weights @ v + bias`` as the one out-of-place product ``[W | b] [v; 1]``."""
    return np.dot(np.hstack([weights, bias[:, None]]), np.append(v, 1.0))


def _plain_rollout(model, U):
    """The state recursion as an out-of-place loop that stores each new state by setitem.

    Each layer is one product ``[W | b] [v; 1]``; the first layer's bias column
    at step ``k`` is the input term ``drive_k = W_{1,u} u_k + b_1``.
    """
    d, n = model.state_dim, U.shape[1]
    first = model.state_layers[0]
    state_weights = first.weights[:, :d]
    drive = (first.weights[:, d:] @ U[:, :-1] + first.bias[:, None]).T.copy()
    X = np.empty((n, d))
    X[0] = x = model.x0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n - 1):
            for i, layer in enumerate(model.state_layers):
                x = _plain_affine(state_weights, drive[k], x) if i == 0 else \
                    _plain_affine(layer.weights, layer.bias, x)
                if layer.activation is s.ActivationKind.TANH:
                    x = np.tanh(x)
            X[k + 1] = x
    X = np.ascontiguousarray(X.T)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
    if bad.size:
        raise s.DivergenceError(int(bad[0]), f"non-finite state at step {int(bad[0])}")
    return X


def _plain_folded_rollout(model, U):
    """The folded recursion as an out-of-place loop, or None where ``rollout`` does not fold.

    With a linear last state layer after a tanh one, the loop carries the last
    hidden value: ``h_k`` is the chain of every layer but the last on
    ``[A | c_k] [h_{k-1}; 1]`` with ``A = W_{1,x} W_L``, ``c_k = drive_k + W_{1,x} b_L``,
    ``c_0 = drive_0 + W_{1,x} x_0`` and ``h_{-1} = 0``, and the states
    ``X[:, 1:] = [W_L | b_L] [H; 1]`` come from one product after the loop.
    """
    d, n = model.state_dim, U.shape[1]
    layers = model.state_layers
    first, last = layers[0], layers[-1]
    if n < 2 or len(layers) < 2 or last.activation is not s.ActivationKind.LINEAR \
            or layers[-2].activation is not s.ActivationKind.TANH:
        return None
    state_weights = np.ascontiguousarray(first.weights[:, :d])
    drive = (first.weights[:, d:] @ U[:, :-1] + first.bias[:, None]).T.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        A = state_weights @ last.weights
        c = drive + state_weights @ last.bias
        c[0] = drive[0] + state_weights @ model.x0
        if not (np.isfinite(A).all() and np.isfinite(c).all()):
            return None
        H = np.empty((n - 1, layers[-2].width))
        h = np.zeros(layers[-2].width)
        for k in range(n - 1):
            for i, layer in enumerate(layers[:-1]):
                h = _plain_affine(A, c[k], h) if i == 0 else _plain_affine(layer.weights, layer.bias, h)
                if layer.activation is s.ActivationKind.TANH:
                    h = np.tanh(h)
            H[k] = h
        X = np.empty((n, d))
        X[0] = model.x0
        X[1:] = np.dot(np.hstack([H, np.ones((n - 1, 1))]), np.hstack([last.weights, last.bias[:, None]]).T)
    X = np.ascontiguousarray(X.T)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
    if bad.size:
        raise s.DivergenceError(int(bad[0]), f"non-finite state at step {int(bad[0])}")
    return X


def _plain_steps(model, X, U):
    """``f(X[:, k], U[:, k])`` for every column but the last, through every state layer."""
    v = np.vstack([X[:, :-1], U[:, :-1]])
    for layer in model.state_layers:
        v = layer.weights @ v + layer.bias[:, None]
        if layer.activation is s.ActivationKind.TANH:
            v = np.tanh(v)
    return v


def _states_or_divergence_step(evaluate, model, U):
    try:
        return evaluate(model, U)
    except s.DivergenceError as err:
        return err.step


@settings(max_examples=300, deadline=None)
# three linear layers at scale 6: the state overflows within the horizon
@example(seed=1, d=2, m=1, hidden=[5, 4], tanh=[False, False, False], n=300, scale=6.0)
@example(seed=2, d=1, m=2, hidden=[], tanh=[True, True, True], n=1, scale=1.0)
# the default architecture: rollout carries the hidden layer
@example(seed=3, d=3, m=1, hidden=[3], tanh=[True, False, False], n=200, scale=1.0)
# W_{1,x} W_L overflows, so rollout carries the state
@example(seed=4, d=3, m=1, hidden=[3], tanh=[True, False, False], n=50, scale=1e200)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), m=st.integers(1, 2),
       hidden=st.lists(st.integers(1, 5), max_size=2), tanh=st.lists(st.booleans(), min_size=3, max_size=3),
       n=st.integers(1, 300), scale=st.floats(0.3, 6.0))
def test_rollout_matches_plain_loop_bitwise(seed, d, m, hidden, tanh, n, scale):
    # the bitwise reference is the augmented loop rollout runs (folded where rollout folds), and the
    # plain W v + b recursion must agree to roundoff: the folded loop must diverge where the unfolded
    # one does, and every state must match one plain step from the state before it
    rng = np.random.default_rng(seed)
    arch = s.SsnnArchitecture(d, m, 1, tuple(hidden) + (d,), (1,))
    acts = tuple(s.ActivationKind.TANH if t else s.ActivationKind.LINEAR for t in tanh)
    model = s.unflatten_params(arch, scale * rng.uniform(-1.0, 1.0, arch.n_params),
                               state_activations=acts[: len(hidden) + 1])
    U = rng.standard_normal((m, n))
    got = _states_or_divergence_step(s.core_model.rollout, model, U)
    plain = _states_or_divergence_step(_plain_rollout, model, U)
    folded = _states_or_divergence_step(_plain_folded_rollout, model, U)
    want = plain if folded is None else folded
    if isinstance(want, int):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    if isinstance(plain, int):
        assert got == plain
    elif n > 1:
        # each state against one plain step from the state before it: over the whole
        # horizon the recursion can amplify the roundoff between the two float orders
        assert isinstance(got, np.ndarray)
        steps = _plain_steps(model, got, U)
        assert np.abs(got[:, 1:] - steps).max() <= 1e-12 * np.abs(got).max()
