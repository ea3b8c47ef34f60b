import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssnno as s
from ssnno import cli
from ssnno.benchmark import _cstr_rates, dataset_from_csv, dataset_to_csv, sidecar_path


def test_derivative_at_origin_matches_hand_evaluation():
    out = s.cstr_derivative(np.zeros(2), 0.0)
    assert out[0] == pytest.approx(0.082, abs=1e-15)
    assert out[1] == pytest.approx(22.0 * 0.082, abs=1e-12)


def test_derivative_with_full_conversion_drops_reaction_terms():
    params = s.CstrParams()
    for x2 in (-0.5, 0.0, 1.3):
        for u in (-0.6, 0.0):
            out = s.cstr_derivative(np.array([1.0, x2]), u, params)
            assert out[0] == pytest.approx(-1.0, abs=1e-12)
            assert out[1] == pytest.approx(-x2 - params.Db * (x2 - u), abs=1e-12)


def test_derivative_matches_independent_expression():
    rng = np.random.default_rng(0)
    p = s.CstrParams()
    for _ in range(50):
        x1, x2 = rng.uniform(0, 1), rng.uniform(-1, 2)
        u = rng.uniform(-1, 0)
        got = s.cstr_derivative(np.array([x1, x2]), u, p)
        e = math.exp(x2)
        want1 = p.Da * e - x1 * (1.0 + p.Da * e)
        want2 = p.B * p.Da * e * (1.0 - x1) - (1.0 + p.Db) * x2 + p.Db * u
        assert abs(got[0] - want1) < 1e-14
        assert abs(got[1] - want2) < 1e-13


def test_plant_step_fixed_point_of_zero_derivative():
    frozen = s.CstrParams(B=0.0, Da=0.0, Db=0.0)
    # with those parameters the derivative is (-x1, -x2); the origin is an equilibrium
    assert np.array_equal(s.cstr_derivative(np.zeros(2), 0.0, frozen), np.zeros(2))
    out = s.plant_step(np.zeros(2), 0.0, frozen, dt=1.0, substeps=8)
    assert np.array_equal(out, np.zeros(2))


def _rk4_over_rates(x, u, params, dt, substeps):
    """The plant's RK4 step written over :func:`_cstr_rates`, one call per stage."""
    h = dt / substeps
    x1, x2 = (float(v) for v in x)
    for _ in range(substeps):
        k1a, k1b = _cstr_rates(x1, x2, u, params)
        k2a, k2b = _cstr_rates(x1 + 0.5 * h * k1a, x2 + 0.5 * h * k1b, u, params)
        k3a, k3b = _cstr_rates(x1 + 0.5 * h * k2a, x2 + 0.5 * h * k2b, u, params)
        k4a, k4b = _cstr_rates(x1 + h * k3a, x2 + h * k3b, u, params)
        x1 = x1 + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        x2 = x2 + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    return np.array([x1, x2])


@settings(max_examples=300, deadline=None)
@given(x=st.tuples(st.floats(-1, 0), st.floats(-1, 0)), u=st.floats(-1, 0), substeps=st.integers(1, 32),
       dt=st.floats(0.1, 2.0), B=st.floats(0.1, 30.0), Da=st.floats(0.001, 0.3), Db=st.floats(0.1, 5.0))
def test_plant_step_matches_rk4_over_rates_bitwise(x, u, substeps, dt, B, Da, Db):
    params = s.CstrParams(B=B, Da=Da, Db=Db)
    with np.errstate(over="ignore", invalid="ignore"):  # a stiff draw may blow up within the period
        want = _rk4_over_rates(x, u, params, dt, substeps)
        if not np.isfinite(want).all():
            with pytest.raises(s.DivergenceError):
                s.plant_step(np.array(x), u, params, dt, substeps)
            return
        assert np.array_equal(s.plant_step(np.array(x), u, params, dt, substeps), want)


def test_rk4_richardson_convergence_single_step():
    params = s.CstrParams()
    x0 = np.zeros(2)
    results = [s.plant_step(x0, 0.0, params, dt=1.0, substeps=n) for n in (1, 2, 4, 8, 16)]
    diffs = [np.abs(results[i + 1] - results[i]).max() for i in range(len(results) - 1)]
    for a, b in zip(diffs, diffs[1:]):
        assert a / b >= 8.0  # fourth-order scheme: halving the step cuts error ~16x


def test_rk4_global_error_scales_fourth_order():
    params = s.CstrParams()
    rng = np.random.default_rng(1)
    U = rng.uniform(-0.6, 0.0, (1, 50))
    sims = {
        n: s.simulate_plant(params, s.SimConfig(horizon=50, substeps=n, noise_std=0.0), U)
        for n in (2, 4, 64)
    }
    err2 = np.abs(sims[2] - sims[64]).max()
    err4 = np.abs(sims[4] - sims[64]).max()
    assert err2 / err4 >= 8.0


def test_trajectory_insensitive_to_substep_refinement():
    # measured gap is ~4e-8 across seeds, six orders below the measurement noise
    params = s.CstrParams()
    U = s.generate_input(seed=3)
    x32 = s.simulate_plant(params, s.SimConfig(substeps=32, noise_std=0.0), U)
    x64 = s.simulate_plant(params, s.SimConfig(substeps=64, noise_std=0.0), U)
    assert np.abs(x64 - x32).max() < 1e-7


def test_conversion_stays_physical_over_horizon():
    X = s.simulate_plant(s.CstrParams(), s.SimConfig(noise_std=0.0), s.generate_input(seed=0))
    assert X[0].min() >= 0.0
    assert X[0].max() <= 1.0


# --- excitation signal -----------------------------------------------------------------


def test_input_levels_within_range():
    U = s.generate_input(seed=5)
    assert U.min() >= -0.6
    assert U.max() <= 0.0


def test_input_has_expected_level_changes_in_training_window():
    for seed in range(5):
        U = s.generate_input(seed=seed, n_samples=900, n_steps=45, train_window=500)
        changes = int((np.diff(U[0, :500]) != 0).sum())
        assert changes == 45


def test_input_deterministic_in_seed():
    assert np.array_equal(s.generate_input(seed=7), s.generate_input(seed=7))
    assert not np.array_equal(s.generate_input(seed=7), s.generate_input(seed=8))


def test_input_rejects_too_many_changes():
    with pytest.raises(ValueError):
        s.generate_input(seed=0, n_samples=20, n_steps=30, train_window=10)


# --- dataset synthesis -----------------------------------------------------------------


def test_noiseless_dataset_equals_true_temperature():
    params = s.CstrParams()
    sim = s.SimConfig(noise_std=0.0, seed=2, substeps=4)
    U = s.generate_input(seed=2)
    ds = s.generate_dataset(params, sim, U)
    X = s.simulate_plant(params, sim, U)
    assert np.array_equal(ds.Y[0], X[1])
    assert ds.split_index == 500
    assert ds.U_train.shape == (1, 500) and ds.Y_test.shape == (1, 400)


def test_noise_level_matches_request():
    params = s.CstrParams()
    sim = s.SimConfig(noise_std=0.05, seed=4, substeps=4)
    U = s.generate_input(seed=4)
    ds = s.generate_dataset(params, sim, U)
    X = s.simulate_plant(params, sim, U)
    residual = ds.Y[0] - X[1]
    assert abs(residual.std() - 0.05) / 0.05 < 0.15


def test_dataset_generation_covers_noise_sweep_grid():
    params = s.CstrParams()
    U = s.generate_input(seed=1)
    for i, level in enumerate(np.arange(0.01, 0.061, 0.01)):
        sim = s.SimConfig(noise_std=float(level), seed=10 + i, substeps=2)
        ds = s.generate_dataset(params, sim, U)
        assert ds.meta["noise_std"] == pytest.approx(level)


def test_dataset_deterministic_in_seed():
    params = s.CstrParams()
    sim = s.SimConfig(noise_std=0.05, seed=6, substeps=2)
    U = s.generate_input(seed=6)
    a = s.generate_dataset(params, sim, U)
    b = s.generate_dataset(params, sim, U)
    assert np.array_equal(a.Y, b.Y)


def test_dataset_csv_roundtrip(tmp_path):
    params = s.CstrParams()
    sim = s.SimConfig(noise_std=0.05, seed=8, substeps=2)
    U = s.generate_input(seed=8)
    ds = s.generate_dataset(params, sim, U)
    path = tmp_path / "data.csv"
    dataset_to_csv(ds, path)
    assert sidecar_path(path).exists()
    back = dataset_from_csv(path)
    assert np.array_equal(back.U, ds.U)
    assert np.array_equal(back.Y, ds.Y)
    assert back.split_index == ds.split_index
    assert back.meta["seed"] == 8


def test_dataset_validation():
    with pytest.raises(ValueError):
        s.Dataset(U=np.zeros((1, 5)), Y=np.zeros((1, 4)), split_index=3)
    with pytest.raises(ValueError):
        s.Dataset(U=np.zeros((1, 5)), Y=np.zeros((1, 5)), split_index=9)


@pytest.mark.parametrize("header, rows, complaint", [
    ("k,u,split", ["0,-0.1,train", "1,-0.2,test"], "missing column y"),
    ("k,u,y,split", [], "no data rows"),
    ("k,u,y,split", ["0,-0.1,0.2,train", "1,-0.2,0.3,train", "2,-0.3,0.4,train", "5,0,0,test"], "column k"),
    ("k,u,y,split", ["1,-0.1,0.2,train", "2,-0.2,0.3,test"], "column k"),
    ("k,u,y,split", ["0,-0.1,0.2,train", "1,-0.2,0.3,validate"], "train or test"),
    ("k,u,y,split", ["0,-0.1,0.2,test", "1,-0.2,0.3,train", "2,-0.3,0.4,train"], "train row follows"),
    ("k,u,y,split", ["0,-0.1,nan,train", "1,-0.2,0.3,test"], "finite"),
])
def test_malformed_dataset_csv_is_rejected_naming_the_file(tmp_path, header, rows, complaint):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ValueError, match=complaint) as err:
        dataset_from_csv(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("header, rows, complaint", [
    ("k,u,y,split", ["0,-0.1,0.2,train", "1.5,-0.2,0.3,test"], "data row 1: k must be an integer, got '1.5'"),
    ("k,u,y,split", ["0,-0.1,0.2,train", "1,-0.2,0.3,train", "2,x,0.4,test"],
     "data row 2: u must be a number, got 'x'"),
    ("k,u,y,split", ["0,-0.1,0.2,train", "1,-0.2,,test"], "data row 1: y must be a number, got ''"),
    ("k,u,split,y", ["0,-0.1,train,0.2", "1,-0.2,test"], "data row 1: y must be a number, got ''"),  # short row
])
def test_unparsable_dataset_csv_entry_is_rejected_naming_the_file_and_row(tmp_path, capsys, header, rows,
                                                                           complaint):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ValueError, match=complaint) as err:
        dataset_from_csv(path)
    assert str(path) in str(err.value)
    assert cli.main(["train", "--data", str(path), "--out", str(tmp_path / "model.json")]) == 1
    assert complaint in capsys.readouterr().err


def test_dataset_csv_reads_as_a_dict_reader_does(tmp_path):
    # blank rows are skipped, extra fields ignored, and the last of two equal names counts
    path = tmp_path / "odd.csv"
    path.write_text("k,u,y,split,u\n\n0,9,0.5,train,-0.1,extra\n1,9,0.25,test,-0.2\n\n")
    ds = dataset_from_csv(path)
    assert np.array_equal(ds.U, [[-0.1, -0.2]]) and np.array_equal(ds.Y, [[0.5, 0.25]])
    assert ds.split_index == 1
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="missing column k"):
        dataset_from_csv(empty)
