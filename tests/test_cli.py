import copy
import csv
import hashlib
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ssnno as s
from ssnno import cli
from ssnno.benchmark import dataset_from_csv


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(argv):
    return cli.main(argv)


@pytest.fixture()
def dataset_file(tmp_path):
    out = tmp_path / "ds.csv"
    assert run(["generate", "--seed", "0", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def quick_model_dir(tmp_path_factory):
    """A small-budget trained model + dataset for command plumbing tests."""
    root = tmp_path_factory.mktemp("cli_model")
    ds = root / "ds.csv"
    model = root / "model.json"
    assert run(["generate", "--seed", "0", "--out", str(ds)]) == 0
    assert run(["train", "--data", str(ds), "--max-iter", "60", "--out", str(model)]) == 0
    return root


def test_generate_defaults_match_benchmark_setup(dataset_file):
    ds = dataset_from_csv(dataset_file)
    assert ds.n_samples == 900
    assert ds.split_index == 500
    assert ds.meta["noise_std"] == 0.05
    assert ds.U_test.shape == (1, 400)


def test_generate_noise_free_equals_true_temperature(tmp_path):
    out = tmp_path / "clean.csv"
    assert run(["generate", "--seed", "3", "--noise-std", "0", "--out", str(out)]) == 0
    ds = dataset_from_csv(out)
    X = s.simulate_plant(s.CstrParams(), s.SimConfig(seed=3, noise_std=0.0), ds.U)
    assert np.array_equal(ds.Y[0], X[1])


def test_generate_deterministic_hashes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["generate", "--seed", "5", "--out", str(a)]) == 0
    assert run(["generate", "--seed", "5", "--out", str(b)]) == 0
    assert sha(a) == sha(b)


def test_manifest_lists_every_output(dataset_file):
    manifest = json.loads((dataset_file.parent / "ds.csv.manifest.json").read_text())
    assert manifest["command"] == "generate"
    listed = {entry["path"] for entry in manifest["outputs"]}
    assert str(dataset_file) in listed
    assert str(dataset_file) + ".meta.json" in listed
    for entry in manifest["outputs"]:
        assert sha(dataset_file.parent / entry["path"].split("/")[-1]) == entry["sha256"]


def test_train_writes_model_report_history(quick_model_dir):
    model_path = quick_model_dir / "model.json"
    assert model_path.exists()
    report = json.loads((quick_model_dir / "model.report.json").read_text())
    assert report["mode"] == "ssnno"
    assert report["iterations"] <= 60
    history = (quick_model_dir / "model.history.csv").read_text().splitlines()
    assert history[0].startswith("iteration,total")
    model = s.load_model(model_path)
    assert model.state_dim == 3


def test_train_deterministic(tmp_path, dataset_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["train", "--data", str(dataset_file), "--max-iter", "30", "--out", str(out)]) == 0
    assert sha(a) == sha(b)


def test_train_spe_only_mode(tmp_path, dataset_file):
    out = tmp_path / "ssnn.json"
    assert run(["train", "--data", str(dataset_file), "--mode", "ssnn",
                "--max-iter", "40", "--out", str(out)]) == 0
    report = json.loads((tmp_path / "ssnn.report.json").read_text())
    assert report["mode"] == "ssnn"
    assert report["final_loss"]["total"] == pytest.approx(report["final_loss"]["spe"])


def test_train_repair_guarantees_ordering(tmp_path, dataset_file):
    out = tmp_path / "repaired.json"
    assert run(["train", "--data", str(dataset_file), "--repair", "--seed", "1",
                "--max-iter", "120", "--out", str(out)]) == 0
    model = s.load_model(out)
    data = dataset_from_csv(dataset_file)
    stats = s.variance_stats(s.simulate(model, data.U_train).states)
    assert s.is_variance_ordered(stats, 1e-12)


def test_reduce_zero_threshold_is_identity_order(quick_model_dir, tmp_path):
    out = tmp_path / "r.json"
    code = run(["reduce", "--model", str(quick_model_dir / "model.json"),
                "--data", str(quick_model_dir / "ds.csv"), "--delta", "0", "--out", str(out)])
    if code == 0:
        assert s.load_reduced(out).order == 3
    else:
        # the quick model may converge unordered at this budget; then the
        # command must fail with the numerical exit code
        assert code == 2


def test_evaluate_emits_measure_rows(quick_model_dir, tmp_path):
    out = tmp_path / "metrics.csv"
    assert run(["evaluate", "--model", str(quick_model_dir / "model.json"),
                "--data", str(quick_model_dir / "ds.csv"), "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    measures = [r["measure"] for r in rows]
    assert measures == ["V_x1", "V_x2", "V_x3", "MSE_tr", "MSE_ts"]


def test_evaluate_perfect_model_scores_zero(tmp_path):
    # dataset generated by the model itself, no noise
    rng = np.random.default_rng(1)
    arch = s.SsnnArchitecture(3, 1, 1, (3, 3), (3, 1))
    model = s.random_model(arch, rng)
    U = rng.uniform(-1, 1, (1, 40))
    traj = s.simulate(model, U)
    ds = s.Dataset(U=U, Y=traj.outputs, split_index=30)
    data_path = tmp_path / "self.csv"
    s.benchmark.dataset_to_csv(ds, data_path)
    model_path = tmp_path / "model.json"
    s.save_model(model, model_path)
    out = tmp_path / "m.csv"
    assert run(["evaluate", "--model", str(model_path), "--data", str(data_path),
                "--out", str(out)]) == 0
    rows = {r["measure"]: float(r["value"]) for r in csv.DictReader(out.open())}
    assert rows["MSE_tr"] == 0.0
    assert rows["MSE_ts"] == 0.0


def test_evaluate_matches_direct_recomputation(quick_model_dir, tmp_path):
    out = tmp_path / "m.csv"
    assert run(["evaluate", "--model", str(quick_model_dir / "model.json"),
                "--data", str(quick_model_dir / "ds.csv"), "--out", str(out)]) == 0
    rows = {r["measure"]: float(r["value"]) for r in csv.DictReader(out.open())}
    model = s.load_model(quick_model_dir / "model.json")
    data = dataset_from_csv(quick_model_dir / "ds.csv")
    traj = s.simulate(model, data.U)
    spe_tr = float(((data.Y_train - traj.outputs[:, :500]) ** 2).sum())
    spe_ts = float(((data.Y_test - traj.outputs[:, 500:]) ** 2).sum())
    assert rows["MSE_tr"] == pytest.approx(spe_tr / 500, rel=1e-12)
    assert rows["MSE_ts"] == pytest.approx(spe_ts / 400, rel=1e-12)


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SSNNO_OUT_DIR", str(tmp_path / "outputs"))
    assert run(["generate", "--seed", "0"]) == 0
    assert (tmp_path / "outputs" / "dataset.csv").exists()


def test_evaluate_reduced_model_file(tmp_path, reduced_order_two, quick_model_dir):
    rm_path = tmp_path / "rm.json"
    s.save_reduced(reduced_order_two, rm_path)
    out = tmp_path / "m.csv"
    assert run(["evaluate", "--model", str(rm_path),
                "--data", str(quick_model_dir / "ds.csv"), "--out", str(out)]) == 0
    measures = [r["measure"] for r in csv.DictReader(out.open())]
    assert measures == ["V_x1", "V_x2", "MSE_tr", "MSE_ts"]


def test_montecarlo_worker_pool_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    args = ["montecarlo", "--noise-levels", "0.05", "--seeds", "1", "--max-iter", "25"]
    assert run(args + ["--workers", "1", "--out", str(serial)]) == 0
    assert run(args + ["--workers", "2", "--out", str(pooled)]) == 0
    assert serial.read_text() == pooled.read_text()


def test_montecarlo_single_cell_equals_pipeline(tmp_path):
    mc_out = tmp_path / "mc.csv"
    assert run(["montecarlo", "--noise-levels", "0.05", "--seeds", "1",
                "--max-iter", "50", "--out", str(mc_out)]) == 0
    cells = list(csv.DictReader((tmp_path / "mc_cells.csv").open()))
    cell = {(r["mode"]): r for r in cells}["ssnno"]

    ds = tmp_path / "pipe.csv"
    model = tmp_path / "pipe_model.json"
    metrics = tmp_path / "pipe_metrics.csv"
    assert run(["generate", "--seed", "0", "--noise-std", "0.05", "--out", str(ds)]) == 0
    assert run(["train", "--data", str(ds), "--seed", "0", "--max-iter", "50",
                "--out", str(model)]) == 0
    assert run(["evaluate", "--model", str(model), "--data", str(ds), "--out", str(metrics)]) == 0
    rows = {r["measure"]: float(r["value"]) for r in csv.DictReader(metrics.open())}
    assert float(cell["MSE_tr"]) == pytest.approx(rows["MSE_tr"], rel=1e-12)
    assert float(cell["V_x1"]) == pytest.approx(rows["V_x1"], rel=1e-12)


def test_mpc_command_runs_quarterly_schedule(tmp_path, reduced_order_two, best_of_five):
    rm_path = tmp_path / "rm.json"
    s.save_reduced(reduced_order_two, rm_path)
    full_path = tmp_path / "full.json"
    s.save_model(best_of_five.model, full_path)
    out = tmp_path / "log.csv"
    assert run(["mpc", "--reduced-model", str(rm_path), "--full-model", str(full_path),
                "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 100
    header = rows[0].keys()
    for column in ("y_target", "y", "y_model", "u", "mpc_cost", "y_full_model"):
        assert column in header
    targets = np.array([float(r["y_target"]) for r in rows])
    assert targets[0] == 0.7 and abs(targets[-1] - 0.4) < 1e-9
    u = np.array([float(r["u"]) for r in rows])
    assert u.min() >= -1.0 and u.max() <= 0.0


def test_mpc_single_step_horizon_is_feasible(tmp_path, reduced_order_two):
    rm_path = tmp_path / "rm.json"
    s.save_reduced(reduced_order_two, rm_path)
    out = tmp_path / "log.csv"
    assert run(["mpc", "--reduced-model", str(rm_path), "--horizon", "1",
                "--steps", "20", "--targets", "0.6", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    u = np.array([float(r["u"]) for r in rows])
    assert len(rows) == 20
    assert u.min() >= -1.0 and u.max() <= 0.0


def test_mpc_rejects_full_model_file(tmp_path, best_of_five):
    full_path = tmp_path / "full.json"
    s.save_model(best_of_five.model, full_path)
    assert run(["mpc", "--reduced-model", str(full_path)]) == cli.USAGE_EXIT


def test_montecarlo_measures_follow_state_dimension(tmp_path):
    out = tmp_path / "mc.csv"
    assert run(["montecarlo", "--fast", "--d", "2", "--max-iter", "5", "--n-samples", "120",
                "--split", "80", "--out", str(out)]) == 0
    with (tmp_path / "mc_cells.csv").open() as fh:
        header = next(csv.reader(fh))
    assert header[6:] == ["V_x1", "V_x2", "MSE_tr", "MSE_ts"]
    rows = list(csv.DictReader(out.open()))
    assert {r["measure"] for r in rows} == {"V_x1", "V_x2", "MSE_tr", "MSE_ts"}
    assert all(np.isfinite(float(r["mean"])) and np.isfinite(float(r["variance"])) for r in rows)


# --- exit codes -----------------------------------------------------------------------


def test_training_failure_saves_partial_report(tmp_path, dataset_file):
    out = tmp_path / "model.json"
    # an absurd initialization scale overflows the first forward pass
    code = run(["train", "--data", str(dataset_file), "--init-scale", "1e200",
                "--max-iter", "5", "--out", str(out)])
    assert code == cli.NUMERIC_EXIT
    assert not out.exists()
    report = json.loads((tmp_path / "model.report.json").read_text())
    assert report["status"] == "error"
    assert report["failed_seeds"][0]["seed"] == 0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run(["train"])  # missing required --data
    assert err.value.code == cli.USAGE_EXIT


def test_missing_file_is_usage_error(tmp_path):
    assert run(["train", "--data", str(tmp_path / "nope.csv")]) == cli.USAGE_EXIT


def test_unordered_model_reduce_is_numerical_failure(tmp_path):
    # states copy (u, 2u): variances come out as (v, 4v), deliberately unordered
    arch = s.SsnnArchitecture(2, 1, 1, (2,), (1,))
    state = s.LayerParams(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]), np.zeros(2),
                          s.ActivationKind.LINEAR)
    out_layer = s.LayerParams(np.zeros((1, 2)), np.zeros(1), s.ActivationKind.LINEAR)
    model = s.SsnnModel(arch=arch, state_layers=(state,), output_layers=(out_layer,),
                        x0=np.zeros(2))
    U = np.array([[1.0, -1.0, 0.0]])
    ds = s.Dataset.from_arrays(U, np.zeros((1, 3)))
    data_path = tmp_path / "d.csv"
    model_path = tmp_path / "m.json"
    s.benchmark.dataset_to_csv(ds, data_path)
    s.save_model(model, model_path)
    code = run(["reduce", "--model", str(model_path), "--data", str(data_path),
                "--delta", "0.1", "--out", str(tmp_path / "r.json")])
    assert code == cli.NUMERIC_EXIT


def test_mpc_state_weight_of_wrong_length_is_usage_error(tmp_path):
    arch = s.SsnnArchitecture(2, 1, 1, (3, 2), (3, 1))
    net = s.random_model(arch, np.random.default_rng(5))
    rm = s.ReducedModel(model=net, delta=0.0005, residual_mean=np.zeros(1), source_order=3)
    rm_path = tmp_path / "rm.json"
    s.save_reduced(rm, rm_path)
    code = run(["mpc", "--reduced-model", str(rm_path), "--q", "0.5,1.0,2.0",
                "--steps", "4", "--out", str(tmp_path / "log.csv")])
    assert code == cli.USAGE_EXIT


def test_mpc_empty_target_list_is_usage_error(tmp_path):
    rm_path = Path(__file__).parents[1] / "benchmarks" / "fixture" / "reduced_model.json"
    code = run(["mpc", "--reduced-model", str(rm_path), "--targets", "",
                "--steps", "4", "--out", str(tmp_path / "log.csv")])
    assert code == cli.USAGE_EXIT


def test_mpc_fewer_steps_than_target_levels_is_usage_error(tmp_path, capsys):
    rm_path = Path(__file__).parents[1] / "benchmarks" / "fixture" / "reduced_model.json"
    code = run(["mpc", "--reduced-model", str(rm_path), "--targets", "0.5,0.6,0.7",
                "--steps", "2", "--out", str(tmp_path / "log.csv")])
    assert code == cli.USAGE_EXIT
    assert "3 target levels" in capsys.readouterr().err


def test_mpc_log_records_every_solve_converged(tmp_path):
    rm_path = Path(__file__).parents[1] / "benchmarks" / "fixture" / "reduced_model.json"
    out = tmp_path / "log.csv"
    assert run(["mpc", "--reduced-model", str(rm_path), "--targets", "0.5,0.65",
                "--steps", "40", "--plant-noise-std", "0.02", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    header = list(rows[0].keys())
    assert header.index("mpc_converged") == header.index("mpc_cost") + 1
    assert header.index("mpc_iterations") == header.index("mpc_cost") + 2
    assert all(r["mpc_converged"] == "1" for r in rows)
    iterations = np.array([int(r["mpc_iterations"]) for r in rows])
    assert iterations.min() >= 0 and iterations.max() <= 150


def test_evaluate_dataset_without_output_column_is_usage_error(quick_model_dir, tmp_path, capsys):
    data = tmp_path / "no_y.csv"
    data.write_text("k,u,split\n0,-0.1,train\n1,-0.2,test\n")
    code = run(["evaluate", "--model", str(quick_model_dir / "model.json"),
                "--data", str(data), "--out", str(tmp_path / "m.csv")])
    assert code == cli.USAGE_EXIT
    assert "missing column y" in capsys.readouterr().err


def test_montecarlo_split_below_level_changes_names_the_flag(tmp_path, capsys):
    code = run(["montecarlo", "--fast", "--n-samples", "60", "--split", "40",
                "--out", str(tmp_path / "mc.csv")])
    assert code == cli.USAGE_EXIT
    assert "--split" in capsys.readouterr().err
    assert not (tmp_path / "mc_cells.csv").exists()


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_train_without_seeds_is_usage_error(tmp_path, dataset_file, capsys, seeds):
    out = tmp_path / "model.json"
    code = run(["train", "--data", str(dataset_file), "--seeds", seeds, "--out", str(out)])
    assert code == cli.USAGE_EXIT
    assert "--seeds" in capsys.readouterr().err
    assert list(tmp_path.glob("model*")) == []


def test_montecarlo_without_seeds_is_usage_error(tmp_path, capsys):
    code = run(["montecarlo", "--seeds", "0", "--out", str(tmp_path / "mc.csv")])
    assert code == cli.USAGE_EXIT
    assert "--seeds" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_montecarlo_without_noise_levels_is_usage_error(tmp_path, capsys):
    code = run(["montecarlo", "--noise-levels", "", "--out", str(tmp_path / "mc.csv")])
    assert code == cli.USAGE_EXIT
    assert "--noise-levels" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_model_file_without_arch_is_usage_error(quick_model_dir, tmp_path, capsys):
    doc = json.loads((quick_model_dir / "model.json").read_text())
    del doc["arch"]
    broken = tmp_path / "model.json"
    broken.write_text(json.dumps(doc))
    code = run(["evaluate", "--model", str(broken), "--data", str(quick_model_dir / "ds.csv"),
                "--out", str(tmp_path / "metrics.csv")])
    assert code == cli.USAGE_EXIT
    assert "'arch'" in capsys.readouterr().err


def test_reduced_file_without_reduction_is_usage_error(tmp_path, capsys):
    rm_path = Path(__file__).parents[1] / "benchmarks" / "fixture" / "reduced_model.json"
    doc = json.loads(rm_path.read_text())
    del doc["reduction"]
    broken = tmp_path / "rm.json"
    broken.write_text(json.dumps(doc))
    code = run(["mpc", "--reduced-model", str(broken), "--steps", "4", "--out", str(tmp_path / "log.csv")])
    assert code == cli.USAGE_EXIT
    assert "'reduction'" in capsys.readouterr().err


def test_model_file_with_a_list_for_arch_is_usage_error(quick_model_dir, tmp_path, capsys):
    doc = json.loads((quick_model_dir / "model.json").read_text())
    doc["arch"] = []
    broken = tmp_path / "model.json"
    broken.write_text(json.dumps(doc))
    code = run(["evaluate", "--model", str(broken), "--data", str(quick_model_dir / "ds.csv"),
                "--out", str(tmp_path / "metrics.csv")])
    assert code == cli.USAGE_EXIT
    assert "'arch' entry must be an object, not list" in capsys.readouterr().err


def test_reduced_file_with_a_list_for_reduction_is_usage_error(tmp_path, capsys):
    rm_path = Path(__file__).parents[1] / "benchmarks" / "fixture" / "reduced_model.json"
    doc = json.loads(rm_path.read_text())
    doc["reduction"] = []
    broken = tmp_path / "rm.json"
    broken.write_text(json.dumps(doc))
    code = run(["mpc", "--reduced-model", str(broken), "--steps", "4", "--out", str(tmp_path / "log.csv")])
    assert code == cli.USAGE_EXIT
    assert "'reduction' entry must be an object, not list" in capsys.readouterr().err


@pytest.mark.parametrize("entry, value", [
    ("delta", -1),
    ("significant_count", "x"),
    ("residual_mean", None),
    ("residual_mean", [0.5, 0.5]),  # source_order 3 - significant_count 2 = 1 entry
], ids=["delta_negative", "significant_count_a_string", "residual_mean_null", "residual_mean_too_long"])
def test_reduced_file_with_a_malformed_reduction_entry_is_usage_error(entry, value, tmp_path, capsys):
    doc = json.loads((Path(__file__).parents[1] / "benchmarks" / "fixture" / "reduced_model.json").read_text())
    doc["reduction"][entry] = value
    broken = tmp_path / "rm.json"
    broken.write_text(json.dumps(doc))
    code = run(["mpc", "--reduced-model", str(broken), "--steps", "4", "--out", str(tmp_path / "log.csv")])
    assert code == cli.USAGE_EXIT
    assert f"'reduction' entry {entry!r} must be" in capsys.readouterr().err
    assert not (tmp_path / "log.csv").exists()


@pytest.mark.parametrize("path, value", [
    (("state_layers",), 5),
    (("state_layers",), [[]]),
    (("arch", "state_dim"), "2"),
    (("arch", "state_layer_widths", 0), float("inf")),  # json writes and reads it as Infinity
], ids=["state_layers_a_number", "layer_a_list", "state_dim_a_string", "width_infinity"])
def test_model_file_with_a_nested_wrong_type_is_usage_error(path, value, quick_model_dir, tmp_path, capsys):
    doc = json.loads((Path(__file__).parents[1] / "benchmarks" / "fixture" / "full_model.json").read_text())
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = value
    broken = tmp_path / "model.json"
    broken.write_text(json.dumps(doc))
    code = run(["evaluate", "--model", str(broken), "--data", str(quick_model_dir / "ds.csv"),
                "--out", str(tmp_path / "metrics.csv")])
    assert code == cli.USAGE_EXIT
    assert "model document has an entry of the wrong type" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


def test_failed_closed_loop_keeps_the_completed_steps(tmp_path, capsys):
    # the second level cannot be reached from the input box, so the loop fails when it starts
    rm_path = Path(__file__).parents[1] / "benchmarks" / "fixture" / "reduced_model.json"
    out = tmp_path / "log.csv"
    code = run(["mpc", "--reduced-model", str(rm_path), "--steps", "20", "--targets", "0.5,5.0",
                "--out", str(out)])
    assert code == cli.NUMERIC_EXIT
    assert "closed loop failed at step 10" in capsys.readouterr().err
    rows = list(csv.DictReader(out.open()))
    assert [int(r["k"]) for r in rows] == list(range(10))
    manifest = json.loads((tmp_path / "log.csv.manifest.json").read_text())
    assert [o["path"] for o in manifest["outputs"]] == [str(out)]
    assert manifest["outputs"][0]["sha256"] == sha(out)


def test_model_file_with_a_nan_x0_is_usage_error(quick_model_dir, tmp_path, capsys):
    doc = json.loads((Path(__file__).parents[1] / "benchmarks" / "fixture" / "full_model.json").read_text())
    doc["x0"] = [float("nan")] * 3  # json writes and reads it as NaN
    broken = tmp_path / "model.json"
    broken.write_text(json.dumps(doc))
    code = run(["evaluate", "--model", str(broken), "--data", str(quick_model_dir / "ds.csv"),
                "--out", str(tmp_path / "metrics.csv")])
    assert code == cli.USAGE_EXIT
    assert "'x0'" in capsys.readouterr().err
    assert not (tmp_path / "metrics.csv").exists()


def test_reduced_file_with_an_infinite_x0_entry_is_usage_error(tmp_path, capsys):
    doc = json.loads((Path(__file__).parents[1] / "benchmarks" / "fixture" / "reduced_model.json").read_text())
    doc["x0"][1] = float("inf")  # json writes and reads it as Infinity
    broken = tmp_path / "rm.json"
    broken.write_text(json.dumps(doc))
    code = run(["mpc", "--reduced-model", str(broken), "--steps", "4", "--out", str(tmp_path / "log.csv")])
    assert code == cli.USAGE_EXIT
    assert "'x0'" in capsys.readouterr().err
    assert not (tmp_path / "log.csv").exists()


@pytest.mark.parametrize("top", ["null", "[]", '"s"', "5", "-1", "Infinity", "[[1]]"])
def test_model_file_whose_top_level_is_not_an_object_is_usage_error(top, quick_model_dir, tmp_path, capsys):
    broken = tmp_path / "model.json"
    broken.write_text(top)
    code = run(["evaluate", "--model", str(broken), "--data", str(quick_model_dir / "ds.csv"),
                "--out", str(tmp_path / "metrics.csv")])
    assert code == cli.USAGE_EXIT
    assert "model document must be a JSON object" in capsys.readouterr().err
    code = run(["mpc", "--reduced-model", str(broken), "--steps", "4", "--out", str(tmp_path / "log.csv")])
    assert code == cli.USAGE_EXIT
    assert "reduced-model document must be a JSON object" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


FIXTURE = Path(__file__).parents[1] / "benchmarks" / "fixture"
DELETE = object()
# one entry at a time: deleted, or replaced by a value of another type or out of range
MUTATIONS = (DELETE, None, [], {}, "s", 5, -1, float("inf"), [[1]])


def _paths(doc, prefix=()):
    """Every path into a JSON document, the root ``()`` first."""
    yield prefix
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _paths(value, prefix + (key,))


@lru_cache(maxsize=None)
def _fixture_paths(name):
    return tuple(_paths(json.loads((FIXTURE / name).read_text())))


def _mutated_text(name, path, mutation):
    """The fixture file ``name`` with the entry at ``path`` mutated (deleting the root empties the file)."""
    doc = json.loads((FIXTURE / name).read_text())
    if not path:
        return "" if mutation is DELETE else json.dumps(mutation)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if mutation is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(mutation)
    return json.dumps(doc)  # json writes inf as Infinity


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(["full_model.json", "reduced_model.json"]),
       mutation=st.sampled_from(MUTATIONS))
def test_mutated_model_files_end_in_an_exit_code_not_a_traceback(data, name, mutation, quick_model_dir):
    # evaluate reads the full model and mpc the reduced one; every outcome is an exit code:
    # 0 where the mutation leaves a usable model, 1 for a malformed file, 2 for a numerical failure
    path = data.draw(st.sampled_from(_fixture_paths(name)), label="path")
    with tempfile.TemporaryDirectory() as tmp:
        broken = Path(tmp) / name
        broken.write_text(_mutated_text(name, path, mutation))
        if name == "full_model.json":
            argv = ["evaluate", "--model", str(broken), "--data", str(quick_model_dir / "ds.csv"),
                    "--out", str(Path(tmp) / "metrics.csv")]
        else:
            argv = ["mpc", "--reduced-model", str(broken), "--steps", "4", "--out", str(Path(tmp) / "log.csv")]
        assert run(argv) in (0, cli.USAGE_EXIT, cli.NUMERIC_EXIT)
