"""End-to-end tests of the command-line interface."""

import json
import math

import pytest

from gifilter.cli import cli_main
from gifilter.harness import (
    build_scenario,
    config_from_dict,
    run_filters,
    simulate_sde,
    trajectory_rng,
    write_trajectory_csv,
)


LINEAR = {"a_mat": [[-1]], "sigma_mat": [[1]], "j_mat": [[1]], "b_mat": [[1]]}


@pytest.fixture
def cubic_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "model": "cubic1d",
        "model_params": {"p_crit": 0.1, "alpha": 0.01, "beta": 0.001},
        "delta": 1.0,
        "n_obs": 40,
        "seed": 42,
    }))
    return path


def test_simulate_writes_trajectory(tmp_path, cubic_config, capsys):
    out = tmp_path / "sim"
    assert cli_main(["simulate", "--config", str(cubic_config), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 41
    assert lines[0].startswith("run,time,x_true_0,y_0")


def test_filter_completes_record(tmp_path, cubic_config):
    out = tmp_path / "flt"
    assert cli_main(["filter", "--config", str(cubic_config), "--out", str(out)]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert "est_gif_0" in header and "err_ekf" in header


@pytest.mark.parametrize("command", ["simulate", "filter"])
def test_simulate_and_filter_write_the_hand_assembled_csv(tmp_path, cubic_config, command):
    # the commands' former pipeline: build, simulate run 0 over all n_obs
    # cycles whatever n_runs says, filter, write
    raw = dict(json.loads(cubic_config.read_text()), n_runs=2)
    cubic_config.write_text(json.dumps(raw))
    config = config_from_dict(raw)
    scenario = build_scenario(config)
    record = simulate_sde(scenario, trajectory_rng(config.seed, 0))
    filters = ()
    if command == "filter":
        record = run_filters(scenario, record)
        filters = config.filters
    write_trajectory_csv([record], filters, tmp_path / "expected.csv")
    out = tmp_path / command
    assert cli_main([command, "--config", str(cubic_config), "--out", str(out)]) == 0
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert sorted(p.name for p in out.iterdir()) == ["trajectory.csv"]


def test_benchmark_deterministic_outputs(tmp_path, cubic_config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["benchmark", "--config", str(cubic_config), "--out", str(out_a)]) == 0
    assert cli_main(["benchmark", "--config", str(cubic_config), "--out", str(out_b)]) == 0
    for name in ("trajectory.csv", "summary.json", "histogram.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_outputs(tmp_path, cubic_config):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli_main(["benchmark", "--config", str(cubic_config), "--out", str(out_a)])
    cli_main(["benchmark", "--config", str(cubic_config), "--seed", "43",
              "--out", str(out_b)])
    assert (out_a / "trajectory.csv").read_bytes() != (out_b / "trajectory.csv").read_bytes()


def test_flag_overrides_recorded_in_summary(tmp_path, cubic_config):
    out = tmp_path / "o"
    assert cli_main(["benchmark", "--config", str(cubic_config), "--no-quadratic",
                     "--no-collar", "--substeps", "4", "--filters", "gif",
                     "--out", str(out)]) == 0
    meta = json.loads((out / "summary.json").read_text())["metadata"]["config"]
    assert meta["quadratic_enabled"] is False
    assert meta["collar_enabled"] is False
    assert meta["n_substeps"] == 4
    assert meta["filters"] == ["gif"]


def test_missing_config_field_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": "cubic1d"}))
    assert cli_main(["benchmark", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "n_obs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["filter", "simulate"])
def test_out_of_range_config_number_exits_one(tmp_path, cubic_config, capsys, command):
    # max_refinements -1 used to abort every cycle and exit 0
    raw = dict(json.loads(cubic_config.read_text()), max_refinements=-1, n_obs=5)
    cubic_config.write_text(json.dumps(raw))
    assert cli_main([command, "--config", str(cubic_config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "max_refinements must be >= 0" in err


def test_zero_substeps_flag_exits_one(tmp_path, cubic_config, capsys):
    assert cli_main(["filter", "--config", str(cubic_config), "--out", str(tmp_path),
                     "--substeps", "0"]) == 1
    assert "n_substeps must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("change, named", [
    ({"n_obs": "5"}, "n_obs must be an integer, got '5'"),
    ({"model_params": {"bogus": 1}}, "unknown cubic1d parameter 'bogus'"),
    ({"mu0": ["abc"]}, "mu0 must be an array of numbers, got ['abc']"),
    ({"sigma0": [["abc"]]}, "sigma0 must be an array of numbers, got [['abc']]"),
    ({"x0": ["abc"]}, "x0 must be an array of numbers, got ['abc']"),
    ({"model": "linear", "model_params": {"sigma_mat": [[1.0]], "j_mat": [[1.0]],
                                          "b_mat": [[1.0]]}},
     "missing linear parameter: a_mat"),
    ({"model_params": {"p_crit": math.inf}}, "model parameter p_crit must be finite, got inf"),
    ({"model_params": {"alpha": math.nan}}, "model parameter alpha must be finite, got nan"),
    ({"x0": [math.nan], "mu0": [0.3]}, "x0 must be finite, got [nan]"),
    ({"mu0": [math.inf]}, "mu0 must be finite, got [inf]"),
    # malformed shapes and inconsistent configs: each used to end in a
    # traceback or an error naming no field, or to run and exit 0
    ({"model": "linear", "model_params": dict(LINEAR, sigma_mat=[1])},
     "sigma_mat must have shape (p, m) = (1, 1), got (1,)"),
    ({"model": "linear", "model_params": dict(LINEAR, a_mat=[-1])},
     "a_mat must have shape (p, p) = (1, 1), got (1,)"),
    ({"model": "linear", "model_params": dict(LINEAR, j_mat=[[1, 2]])},
     "j_mat must have shape (q, p) = (1, 1), got (1, 2)"),
    ({"x0": [0.3, 0.1]}, "x0 of shape (2,) does not match state dimension 1"),
    ({"model": "tracking9d", "model_params": {}, "n_obs": 2, "x0": [0.0] * 10},
     "x0 of shape (10,) does not match state dimension 9"),
    ({"model": "tracking9d", "model_params": {"missile_p0": [1, 2]}, "n_obs": 2},
     "missile_p0 must be a vector of 3 numbers, got shape (2,)"),
    ({"sigma0": [-0.01]}, "sigma0 must be positive semi-definite, has eigenvalue -0.01"),
    ({"filters": ["gif", "gif"]}, "filters must name each filter once, got ['gif', 'gif']"),
    # a tracking9d start without speed: the simulation used to exit 2 with
    # a numpy RuntimeWarning, and the filters to abort every cycle
    ({"model": "tracking9d", "model_params": {}, "n_obs": 2,
      "x0": [9000, 2000, 3000, 0, 0, 0, 0, 0, 0]},
     "x0 has speed 0, below the tracking9d speed floor 1e-06"),
    ({"model": "tracking9d", "model_params": {}, "n_obs": 2,
      "mu0": [9000, 2000, 3000, 0, 0, 0, 0, 0, 20]},
     "mu0 has speed 0, below the tracking9d speed floor 1e-06"),
])
def test_mistyped_config_exits_one_naming_the_field(tmp_path, cubic_config, capsys, change,
                                                    named):
    # the first two used to end in a TypeError traceback; the next four in
    # a message that did not name the field ("could not convert string to
    # float: 'abc'", or the bare "'a_mat'" of a KeyError); the non-finite
    # numbers JSON accepts as NaN and Infinity used to run, aborting every
    # cycle, filtering none, or exiting 2 as a numerical failure
    cubic_config.write_text(json.dumps(dict(json.loads(cubic_config.read_text()), **change)))
    assert cli_main(["filter", "--config", str(cubic_config), "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]


def test_simulate_from_a_tracking_start_without_speed_exits_one(tmp_path, cubic_config, capsys):
    # used to exit 2 as "speed collapsed during flow evaluation", after a
    # numpy RuntimeWarning
    cubic_config.write_text(json.dumps({"model": "tracking9d", "n_obs": 3,
                                        "x0": [9000, 2000, 3000, 0, 0, 0, 0, 0, 0]}))
    assert cli_main(["simulate", "--config", str(cubic_config), "--out", str(tmp_path)]) == 1
    assert "x0 has speed 0, below the tracking9d speed floor" in capsys.readouterr().err


def test_non_finite_observation_of_a_finite_truth_exits_two(tmp_path, cubic_config, capsys):
    # the truth stays at 1e308, but psi = 10 x overflows: a numerical
    # failure, which used to exit 1 as "error: observation has non-finite
    # coordinates", as if the config were malformed
    cubic_config.write_text(json.dumps({
        "model": "linear", "n_obs": 3, "x0": [1e308],
        "model_params": {"a_mat": [[0]], "sigma_mat": [[1]], "j_mat": [[10]],
                         "b_mat": [[1]]}}))
    assert cli_main(["simulate", "--config", str(cubic_config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: observation has non-finite coordinates\n")


def test_type_error_after_loading_still_surfaces(tmp_path, cubic_config, monkeypatch):
    # the CLI reports bad configs; it does not swallow a program fault
    def broken(*args, **kwargs):
        raise TypeError("a fault in the program")

    monkeypatch.setattr("gifilter.cli.run_benchmark", broken)
    with pytest.raises(TypeError, match="a fault in the program"):
        cli_main(["filter", "--config", str(cubic_config), "--out", str(tmp_path)])


def test_covariance_of_the_wrong_dimension_exits_one(tmp_path, cubic_config, capsys):
    raw = dict(json.loads(cubic_config.read_text()), sigma0=[[0.01, 0.0], [0.0, 0.01]])
    cubic_config.write_text(json.dumps(raw))
    assert cli_main(["benchmark", "--config", str(cubic_config), "--out", str(tmp_path)]) == 1
    assert "does not match state dimension 1" in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert cli_main(["benchmark", "--frobnicate"]) == 1


def test_unknown_subcommand_exits_one():
    assert cli_main(["explode"]) == 1


def test_kalman_check_command(capsys):
    assert cli_main(["kalman-check"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["max_rel_mean_deviation"] < 1e-8


def test_invariance_check_command_plumbing(capsys):
    # a tiny run exercises the command path; the full-length scaling study
    # itself is part of the acceptance suite
    code = cli_main(["invariance-check", "--steps", "25"])
    report = json.loads(capsys.readouterr().out)
    assert code in (0, 2)
    assert {"ratio", "mismatch_full_noise", "mismatch_half_noise"} <= report.keys()
