import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssnno as s
from ssnno.reduction import VarianceOrderingError


def designed_variance_model(variances):
    """Passthrough model whose state sample variances over the crafted data are exact.

    With x0 = a, u0 = 0, u1 = -a the state rows are (a_i, 0, -a_i), whose
    sample variance is a_i^2.
    """
    v = np.asarray(variances, dtype=float)
    d = v.shape[0]
    arch = s.SsnnArchitecture(d, d, 1, (d,), (1,))
    state = s.LayerParams(
        weights=np.hstack([np.zeros((d, d)), np.eye(d)]), bias=np.zeros(d),
        activation=s.ActivationKind.LINEAR,
    )
    out = s.LayerParams(weights=np.ones((1, d)), bias=np.zeros(1), activation=s.ActivationKind.LINEAR)
    a = np.sqrt(v)
    model = s.SsnnModel(arch=arch, state_layers=(state,), output_layers=(out,), x0=a)
    U = np.column_stack([np.zeros(d), -a, np.zeros(d)])
    data = s.Dataset.from_arrays(U, np.zeros((1, 3)))
    return model, data


def constant_residual_model(c=0.7, residual_scale=0.0, seed=0):
    """Two-state model whose second state stays exactly at ``c`` (or drifts by
    ``residual_scale`` around it) while the first state carries the dynamics."""
    rng = np.random.default_rng(seed)
    arch = s.SsnnArchitecture(2, 1, 1, (2,), (1,))
    A = np.array([
        [0.6, 0.3, 0.5],
        [residual_scale, 0.0, residual_scale],
    ])
    b = np.array([0.1, c * (1.0 - residual_scale)])
    state = s.LayerParams(weights=A, bias=b, activation=s.ActivationKind.LINEAR)
    out = s.LayerParams(weights=rng.uniform(0.5, 1.5, (1, 2)), bias=np.array([0.2]),
                        activation=s.ActivationKind.LINEAR)
    return s.SsnnModel(arch=arch, state_layers=(state,), output_layers=(out,), x0=np.array([0.0, c]))


# --- classify_states ------------------------------------------------------------------


def test_classify_counts_with_reference_like_profile():
    model, data = designed_variance_model([0.1368, 0.0006, 1e-9])
    report = s.classify_states(model, data, 0.0005)
    assert report.significant_count == 2
    assert np.allclose(report.residual_mean, [0.0], atol=1e-12)

    report = s.classify_states(model, data, 0.001)
    assert report.significant_count == 1


def test_classify_zero_threshold_keeps_every_active_state():
    model, data = designed_variance_model([0.5, 0.3, 0.01])
    report = s.classify_states(model, data, 0.0)
    assert report.significant_count == 3


def test_classify_equality_goes_to_residual():
    model, data = designed_variance_model([1.0, 0.25])
    report = s.classify_states(model, data, 0.25)
    assert report.significant_count == 1


def test_classify_rejects_unordered_model():
    model, data = designed_variance_model([0.0029, 0.0010, 0.0264])
    with pytest.raises(VarianceOrderingError, match="repair"):
        s.classify_states(model, data, 0.0005)


# --- reduce ----------------------------------------------------------------------------


def test_reduce_full_order_returns_equal_parameters():
    model, data = designed_variance_model([0.5, 0.3, 0.1])
    report = s.classify_states(model, data, 0.0)
    rm = s.reduce(model, report)
    assert rm.order == 3
    assert np.array_equal(s.flatten_params(rm.model), s.flatten_params(model))
    full = s.simulate(model, data.U)
    red = s.reduced_simulate(rm, data.U)
    assert np.array_equal(full.outputs, red.outputs)
    assert np.array_equal(full.states, red.states)


def test_reduce_exact_for_constant_residual_state():
    model = constant_residual_model(c=0.7)
    rng = np.random.default_rng(1)
    U = rng.uniform(-1, 1, (1, 50))
    data = s.Dataset.from_arrays(U, s.simulate(model, U).outputs)
    report = s.classify_states(model, data, 1e-9)
    assert report.significant_count == 1
    assert report.residual_mean[0] == pytest.approx(0.7, abs=1e-12)
    rm = s.reduce(model, report)
    for _ in range(20):
        U2 = rng.uniform(-2, 2, (1, 40))
        full = s.simulate(model, U2)
        red = s.reduced_simulate(rm, U2)
        assert np.abs(full.outputs - red.outputs).max() < 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4), hidden=st.lists(st.integers(1, 5), max_size=2),
       tanh_last=st.booleans(), scale=st.floats(0.1, 1.0))
def test_reduce_exact_for_random_constant_residual_states(seed, d, hidden, tanh_last, scale):
    # the trailing states have zero rows in the last state layer and start at the value their
    # row gives (the bias entry, or its tanh), so they are constant by construction.  A linear
    # last layer after a tanh one is the case rollout folds; the other draws run the unfolded loop
    rng = np.random.default_rng(seed)
    m, p, kept = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, d + 1))
    arch = s.SsnnArchitecture(d, m, p, tuple(hidden) + (d,), (3, p))
    last_act = s.ActivationKind.TANH if tanh_last else s.ActivationKind.LINEAR
    model = s.unflatten_params(arch, scale * rng.uniform(-1.0, 1.0, arch.n_params),
                               state_activations=(s.ActivationKind.TANH,) * len(hidden) + (last_act,))
    last = model.state_layers[-1]
    weights = last.weights.copy()
    weights[kept:] = 0.0
    constant = np.tanh(last.bias[kept:]) if tanh_last else last.bias[kept:]
    model = s.SsnnModel(arch, model.state_layers[:-1] + (s.LayerParams(weights, last.bias, last_act),),
                        model.output_layers, np.concatenate([rng.uniform(-1.0, 1.0, kept), constant]))
    U = rng.standard_normal((m, int(rng.integers(2, 301))))
    full = s.simulate(model, U)
    assert np.array_equal(full.states[kept:], np.repeat(constant[:, None], U.shape[1], axis=1))
    stats = s.variance_stats(full.states)
    report = s.SignificanceReport(delta=0.0, variances=stats.variances, significant_count=kept,
                                  residual_mean=stats.mean[kept:])
    red = s.simulate(s.reduce(model, report).model, U)
    assert np.abs(red.outputs - full.outputs).max() <= 1e-12 * np.abs(full.outputs).max()
    assert np.abs(red.states - full.states[:kept]).max() <= 1e-12 * np.abs(full.states).max()


def test_reduce_touches_only_boundary_layers():
    rng = np.random.default_rng(5)
    arch = s.SsnnArchitecture(3, 1, 1, (4, 2, 3), (2, 2, 1))
    model = s.random_model(arch, rng, init_scale=0.2)
    U = rng.uniform(-1, 1, (1, 60))
    data = s.Dataset.from_arrays(U, s.simulate(model, U).outputs)
    stats = s.variance_stats(s.simulate(model, U).states)
    z = s.variance_sort_index(stats)
    model = s.permute_model(model, z)
    report = s.classify_states(model, data, float(np.sort(stats.variances)[0] * 1.5))
    assert 1 <= report.significant_count < 3
    rm = s.reduce(model, report)
    # middle layers and the tail of the output subnetwork are bitwise identical
    for a, b in zip(model.state_layers[1:-1], rm.model.state_layers[1:-1]):
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
    for a, b in zip(model.output_layers[1:], rm.model.output_layers[1:]):
        assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
    # last state layer keeps the leading rows
    assert np.array_equal(rm.model.state_layers[-1].weights,
                          model.state_layers[-1].weights[:report.significant_count, :])
    assert np.array_equal(rm.model.x0, model.x0[:report.significant_count])


def test_reduce_rejects_empty_significant_set():
    model, data = designed_variance_model([0.01, 0.001])
    report = s.classify_states(model, data, 1.0)
    assert report.significant_count == 0
    with pytest.raises(ValueError, match="delta"):
        s.reduce(model, report)


def test_order_monotone_in_threshold():
    model, data = designed_variance_model([0.5, 0.05, 0.005, 0.0005])
    orders = [
        s.classify_states(model, data, delta).significant_count
        for delta in (0.0, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    ]
    assert orders == sorted(orders, reverse=True)


def test_prediction_gap_shrinks_with_residual_variance():
    rng = np.random.default_rng(9)
    U = rng.uniform(-1, 1, (1, 80))
    gaps = []
    for scale in (1e-2, 1e-4, 1e-6):
        model = constant_residual_model(c=0.5, residual_scale=scale)
        data = s.Dataset.from_arrays(U, s.simulate(model, U).outputs)
        report = s.classify_states(model, data, 1e-3)
        assert report.significant_count == 1
        rm = s.reduce(model, report)
        full = s.simulate(model, U)
        red = s.reduced_simulate(rm, U)
        spe_gap = float(((full.outputs - red.outputs) ** 2).sum())
        gaps.append(spe_gap)
    assert gaps[0] > gaps[1] > gaps[2]


# --- serialization -----------------------------------------------------------------------


def test_reduced_model_json_roundtrip(tmp_path):
    model = constant_residual_model()
    rng = np.random.default_rng(2)
    U = rng.uniform(-1, 1, (1, 30))
    data = s.Dataset.from_arrays(U, s.simulate(model, U).outputs)
    rm = s.reduce(model, s.classify_states(model, data, 1e-9))
    path = tmp_path / "reduced.json"
    s.save_reduced(rm, path)
    back = s.load_reduced(path)
    assert back.order == rm.order
    assert back.delta == rm.delta
    assert back.source_order == 2
    assert np.array_equal(back.residual_mean, rm.residual_mean)
    assert np.array_equal(s.flatten_params(back.model), s.flatten_params(rm.model))


def test_reduced_loader_rejects_full_model_document(tmp_path):
    model = constant_residual_model()
    path = tmp_path / "full.json"
    s.save_model(model, path)
    with pytest.raises(ValueError, match="version"):
        s.load_reduced(path)


# --- behavior on the trained benchmark model ----------------------------------------------


def test_trained_model_threshold_profile(best_of_five, cstr_dataset):
    report5 = s.classify_states(best_of_five.model, cstr_dataset, 0.0005)
    report10 = s.classify_states(best_of_five.model, cstr_dataset, 0.001)
    assert report5.significant_count == 2
    assert report10.significant_count == 1
    # larger threshold removes more states and costs more prediction accuracy
    rm5 = s.reduce(best_of_five.model, report5)
    rm10 = s.reduce(best_of_five.model, report10)
    full = s.simulate(best_of_five.model, cstr_dataset.U_train)
    gap5 = float(((full.outputs - s.reduced_simulate(rm5, cstr_dataset.U_train).outputs) ** 2).sum())
    gap10 = float(((full.outputs - s.reduced_simulate(rm10, cstr_dataset.U_train).outputs) ** 2).sum())
    assert gap5 <= gap10
