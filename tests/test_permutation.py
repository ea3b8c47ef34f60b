import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssnno as s

from conftest import random_architecture


def stats_from_variances(values):
    v = np.asarray(values, dtype=float)
    return s.VarianceStats(mean=np.zeros(v.shape[0]), covariance=np.diag(v), variances=v)


def random_permutation(rng, d):
    return s.PermutationIndex(rng.permutation(d))


def params_equal(a: s.SsnnModel, b: s.SsnnModel) -> bool:
    return bool(
        np.array_equal(s.flatten_params(a), s.flatten_params(b))
        and all(x.activation is y.activation
                for x, y in zip(a.state_layers + a.output_layers, b.state_layers + b.output_layers))
    )


# --- variance_sort_index --------------------------------------------------------------


def test_sort_index_for_unordered_reference_profile():
    z = s.variance_sort_index(stats_from_variances([0.0029, 0.0010, 0.0264]))
    assert np.array_equal(z.z, [2, 0, 1])


def test_sort_index_identity_when_ordered():
    z = s.variance_sort_index(stats_from_variances([3.0, 2.0, 1.0]))
    assert z.is_identity()


def test_sort_index_stable_on_ties():
    z = s.variance_sort_index(stats_from_variances([1.0, 1.0, 1.0]))
    assert z.is_identity()
    z = s.variance_sort_index(stats_from_variances([2.0, 5.0, 5.0]))
    assert np.array_equal(z.z, [1, 2, 0])


def test_permutation_index_validation():
    with pytest.raises(ValueError):
        s.PermutationIndex(np.array([0, 0, 2]))


# --- permute_model ---------------------------------------------------------------------


def test_identity_permutation_leaves_model_unchanged():
    rng = np.random.default_rng(3)
    arch = s.SsnnArchitecture(3, 2, 1, (4, 3), (2, 1))
    model = s.random_model(arch, rng)
    same = s.permute_model(model, s.PermutationIndex(np.arange(3)))
    assert params_equal(model, same)


def test_state_step_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(25):
        arch = random_architecture(rng)
        model = s.random_model(arch, rng)
        z = random_permutation(rng, arch.state_dim)
        permuted = s.permute_model(model, z)
        x = rng.standard_normal(arch.state_dim)
        u = rng.standard_normal(arch.input_dim)
        lhs = s.state_step(permuted, x[z.z], u)
        rhs = s.state_step(model, x, u)[z.z]
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_simulation_outputs_invariant_under_permutation():
    rng = np.random.default_rng(7)
    for _ in range(10):
        arch = random_architecture(rng)
        model = s.random_model(arch, rng)
        z = random_permutation(rng, arch.state_dim)
        permuted = s.permute_model(model, z)
        U = rng.standard_normal((arch.input_dim, 100))
        a = s.simulate(model, U)
        b = s.simulate(permuted, U)
        assert np.abs(a.outputs - b.outputs).max() < 1e-10
        assert np.abs(b.states - a.states[z.z, :]).max() < 1e-10


def test_permutation_involution_restores_model():
    rng = np.random.default_rng(11)
    for _ in range(10):
        arch = random_architecture(rng)
        model = s.random_model(arch, rng)
        z = random_permutation(rng, arch.state_dim)
        back = s.permute_model(s.permute_model(model, z), z.inverse())
        assert params_equal(model, back)


def _model_and_permutation(seed, d, hidden, tanh_last, scale):
    """A random model with tanh hidden state layers and the given last layer, a permutation and inputs.

    A linear last state layer after a tanh one is the case ``rollout`` folds into
    the next step; a tanh last layer, or no hidden layer, runs the unfolded loop.
    """
    rng = np.random.default_rng(seed)
    m, p = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    arch = s.SsnnArchitecture(d, m, p, tuple(hidden) + (d,), (3, p))
    acts = (s.ActivationKind.TANH,) * len(hidden) + (s.ActivationKind.TANH if tanh_last else s.ActivationKind.LINEAR,)
    model = s.unflatten_params(arch, scale * rng.uniform(-1.0, 1.0, arch.n_params), state_activations=acts)
    U = rng.standard_normal((m, int(rng.integers(1, 301))))
    return model, random_permutation(rng, d), U


transform_draws = dict(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
                       hidden=st.lists(st.integers(1, 5), max_size=2), tanh_last=st.booleans(),
                       scale=st.floats(0.1, 1.0))


@settings(max_examples=100, deadline=None)
@given(**transform_draws)
def test_permutation_then_inverse_gives_back_the_model_bitwise(seed, d, hidden, tanh_last, scale):
    model, z, U = _model_and_permutation(seed, d, hidden, tanh_last, scale)
    back = s.permute_model(s.permute_model(model, z), z.inverse())
    assert back.arch == model.arch and params_equal(model, back)
    assert np.array_equal(s.simulate(back, U).outputs, s.simulate(model, U).outputs)


@settings(max_examples=100, deadline=None)
@given(**transform_draws)
def test_permuted_twin_reproduces_the_outputs(seed, d, hidden, tanh_last, scale):
    # not bit for bit: where rollout folds the last state layer, W_{1,x} W_L sums in the
    # permuted order.  At weight scales well above 1 the recursion can amplify that roundoff
    # past this bound over the horizon; training starts at 0.5.
    model, z, U = _model_and_permutation(seed, d, hidden, tanh_last, scale)
    a, b = s.simulate(model, U), s.simulate(s.permute_model(model, z), U)
    assert np.abs(b.outputs - a.outputs).max() <= 1e-12 * np.abs(a.outputs).max()
    assert np.abs(b.states - a.states[z.z]).max() <= 1e-12 * np.abs(a.states).max()


def test_permutation_matrix_matches_indexing():
    z = s.PermutationIndex(np.array([2, 0, 1]))
    x = np.array([10.0, 20.0, 30.0])
    assert np.array_equal(z.matrix() @ x, x[z.z])


# --- permuted loss ----------------------------------------------------------------------


def passthrough_two_state_model():
    """States copy the previous input exactly; output is identically zero."""
    arch = s.SsnnArchitecture(2, 2, 1, (2,), (1,))
    state = s.LayerParams(
        weights=np.hstack([np.zeros((2, 2)), np.eye(2)]), bias=np.zeros(2),
        activation=s.ActivationKind.LINEAR,
    )
    out = s.LayerParams(weights=np.zeros((1, 2)), bias=np.zeros(1), activation=s.ActivationKind.LINEAR)
    return s.SsnnModel(arch=arch, state_layers=(state,), output_layers=(out,), x0=np.zeros(2))


def test_permuted_loss_hand_computed_rearrangement():
    # state rows (0, 1, 2) and (0, sqrt2, 2*sqrt2) have sample variances exactly (1, 2)
    model = passthrough_two_state_model()
    r2 = np.sqrt(2.0)
    U = np.array([[1.0, 2.0, 99.0], [r2, 2 * r2, 99.0]])  # last column never used
    data = s.Dataset.from_arrays(U, np.zeros((1, 3)))
    weights = s.LossWeights(alpha=1.0, beta=1.0, w=np.array([1.0, 2.0]))
    stats = s.variance_stats(s.simulate(model, U).states)
    assert np.allclose(stats.variances, [1.0, 2.0], atol=1e-12)
    z = s.variance_sort_index(stats)
    original, permuted = s.permuted_loss_check(model, data, weights, z)
    assert original.variance_term == pytest.approx(2 * (1 * 1 + 2 * 2), abs=1e-10)
    assert permuted.variance_term == pytest.approx(2 * (1 * 2 + 2 * 1), abs=1e-10)
    assert permuted.variance_term <= original.variance_term


def test_permuted_loss_equal_for_ordered_model():
    rng = np.random.default_rng(13)
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (2, 1))
    model = s.random_model(arch, rng)
    U = rng.standard_normal((1, 40))
    data = s.Dataset.from_arrays(U, rng.standard_normal((1, 40)))
    stats = s.variance_stats(s.simulate(model, U).states)
    z = s.variance_sort_index(stats)
    if not z.is_identity():
        model = s.permute_model(model, z)
        z = s.variance_sort_index(s.variance_stats(s.simulate(model, U).states))
    assert z.is_identity()
    original, permuted = s.permuted_loss_check(model, data, s.LossWeights.default(2, 0.1, 0.1), z)
    assert original == permuted


def test_permuted_loss_dominance_random_sweep():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        arch = random_architecture(rng)
        if arch.state_dim < 2:
            continue
        model = s.random_model(arch, rng)
        U = rng.standard_normal((arch.input_dim, 30))
        Y = rng.standard_normal((arch.output_dim, 30))
        data = s.Dataset.from_arrays(U, Y)
        weights = s.LossWeights.default(arch.state_dim, 0.1, 0.1)
        z = s.variance_sort_index(s.variance_stats(s.simulate(model, U).states))
        original, permuted = s.permuted_loss_check(model, data, weights, z)
        assert abs(permuted.spe - original.spe) < 1e-10 * max(1.0, original.spe)
        assert abs(permuted.param_term - original.param_term) < 1e-10
        assert permuted.variance_term <= original.variance_term + 1e-12
        assert permuted.total <= original.total + 1e-9 * max(1.0, original.total)
        checked += 1


def test_permuted_model_evaluates_like_its_saved_copy():
    # sliced weights are stored C-ordered, so BLAS sums them as it does a loaded model's
    rng = np.random.default_rng(17)
    for _ in range(30):
        arch = random_architecture(rng)
        model = s.random_model(arch, rng, init_scale=1.0)
        permuted = s.permute_model(model, random_permutation(rng, arch.state_dim))
        reloaded = s.core_model.model_from_dict(s.core_model.model_to_dict(permuted))
        U = rng.standard_normal((arch.input_dim, 9))
        assert np.array_equal(s.simulate(permuted, U).outputs, s.simulate(reloaded, U).outputs)
