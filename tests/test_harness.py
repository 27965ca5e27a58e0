"""Tests for scenario configuration, simulation, filter runs, and summaries."""

import json
import math

import numpy as np
import pytest

from gifilter.errors import IllConditionedGainError
from gifilter.harness import (
    ScenarioConfig,
    _step_with_refinement,
    build_scenario,
    config_from_dict,
    kalman_check,
    run_benchmark,
    run_filters,
    simulate_sde,
    trajectory_rng,
    transformed_cubic_model,
)
from gifilter.models.cubic1d import Cubic1DParams, cubic1d_analytic_flow


# --- configuration ------------------------------------------------------------


def test_config_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        ScenarioConfig(model="pendulum")


def test_config_rejects_unknown_filter():
    with pytest.raises(ValueError, match="unknown filter"):
        ScenarioConfig(filters=("gif", "ukf"))


def test_config_runs_must_divide_cycles():
    with pytest.raises(ValueError):
        ScenarioConfig(n_obs=10, n_runs=3)


def test_config_from_dict_names_missing_field():
    with pytest.raises(ValueError, match="n_obs"):
        config_from_dict({"model": "cubic1d"})


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="extra_knob"):
        config_from_dict({"model": "cubic1d", "n_obs": 5, "extra_knob": 1})


def test_config_hash_stable_and_sensitive():
    a = ScenarioConfig(model="cubic1d", n_obs=10, seed=1)
    b = ScenarioConfig(model="cubic1d", n_obs=10, seed=1)
    c = ScenarioConfig(model="cubic1d", n_obs=10, seed=2)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


# --- RNG streams ----------------------------------------------------------------


def test_trajectory_rng_deterministic_and_distinct():
    first = trajectory_rng(42, 0).standard_normal(5)
    again = trajectory_rng(42, 0).standard_normal(5)
    other = trajectory_rng(42, 1).standard_normal(5)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


# --- simulation --------------------------------------------------------------------


def test_simulation_deterministic_per_seed():
    config = ScenarioConfig(model="cubic1d", n_obs=20, seed=7)
    scenario = build_scenario(config)
    rec1 = simulate_sde(scenario, trajectory_rng(7, 0))
    rec2 = simulate_sde(scenario, trajectory_rng(7, 0))
    assert np.array_equal(rec1.truth, rec2.truth)
    assert np.array_equal(rec1.observations, rec2.observations)


def test_simulation_zero_noise_follows_flow():
    # at vanishing noise the truth path reduces to the deterministic flow up
    # to the Euler scheme's first-order bias, which halves with the step
    errors = []
    for nsub in (200, 400):
        config = ScenarioConfig(
            model="cubic1d",
            model_params={"alpha": 1e-18, "beta": 1e-18},
            n_obs=5,
            sim_substeps=nsub,
            seed=3,
            x0=[1.0],
        )
        scenario = build_scenario(config)
        record = simulate_sde(scenario, trajectory_rng(3, 0))
        expected = cubic1d_analytic_flow(1.0, 5.0)
        errors.append(abs(record.truth[4, 0] - expected))
        assert errors[-1] < 1.0 / nsub
    assert 1.7 <= errors[0] / errors[1] <= 2.3


def test_simulation_tracking_respects_constraints():
    config = ScenarioConfig(model="tracking9d", n_obs=5, delta=0.5, seed=11)
    scenario = build_scenario(config)
    record = simulate_sde(scenario, trajectory_rng(11, 0))
    speed0 = np.linalg.norm(scenario.x0[3:6])
    for k in range(5):
        v = record.truth[k, 3:6]
        a = record.truth[k, 6:9]
        assert abs(float(v @ a)) < 1e-9 * np.linalg.norm(v) * np.linalg.norm(a)
        assert abs(np.linalg.norm(v) - speed0) < 1e-9 * speed0


def test_tracking_scenario_end_to_end():
    # moderate process noise so the target stays observable over the window
    config = ScenarioConfig(model="tracking9d", model_params={"gamma_noise": 1.0},
                            n_obs=20, delta=0.5, seed=17)
    scenario = build_scenario(config)
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(17, 0)))
    start_gap = np.linalg.norm(scenario.mu0 - record.truth[0])
    for name in ("gif", "ekf"):
        assert np.all(np.isfinite(record.errors[name]))
        assert record.aborted[name].sum() == 0
        # the first update alone must cut the initial offset substantially,
        # and the track must stay far below it throughout
        assert record.errors[name][0] < 0.2 * start_gap
        assert record.errors[name].max() < 0.5 * start_gap


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_gif_update_aborts_the_cycle_not_the_run():
    # an absurd observation drives the GIF update to infinity: that cycle is
    # recorded as aborted with the previous estimate kept, and the run goes on
    config = ScenarioConfig(model="cubic1d", n_obs=5, seed=1)
    scenario = build_scenario(config)
    record = simulate_sde(scenario, trajectory_rng(1, 0))
    record.observations[2] = 1e308
    record = run_filters(scenario, record)
    assert record.aborted["gif"].tolist() == [False, False, True, False, False]
    assert np.array_equal(record.estimates["gif"][2], record.estimates["gif"][1])
    assert np.all(np.isfinite(record.estimates["gif"]))


def test_stationary_truth_mean_near_zero():
    config = ScenarioConfig(model="cubic1d", n_obs=10000, seed=5)
    scenario = build_scenario(config)
    record = simulate_sde(scenario, trajectory_rng(5, 0))
    xs = record.truth[:, 0]
    # batch means absorb the autocorrelation of the stationary series
    batches = xs.reshape(100, 100).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(batches.size)
    assert abs(xs.mean()) < 3.0 * se


# --- filter runs -----------------------------------------------------------------


def test_step_refinement_retries_then_succeeds():
    calls = []

    def step(nsub):
        calls.append(nsub)
        if nsub < 30:
            raise IllConditionedGainError("synthetic")
        return "ok"

    result, level = _step_with_refinement(step, 8, 4)
    assert result == "ok"
    assert level == 2
    assert calls == [8, 16, 32]


def test_step_refinement_gives_up():
    def step(nsub):
        raise IllConditionedGainError("always")

    result, level = _step_with_refinement(step, 8, 3)
    assert result is None and level == 3


def test_linear_scenario_filters_agree():
    rng = np.random.default_rng(600)
    a = (rng.standard_normal((2, 2)) * 0.4).tolist()
    sig = (rng.standard_normal((2, 2)) * 0.3).tolist()
    j = rng.standard_normal((2, 2)).tolist()
    braw = rng.standard_normal((2, 2))
    b = (braw @ braw.T + 0.3 * np.eye(2)).tolist()
    config = ScenarioConfig(
        model="linear",
        model_params={"a_mat": a, "sigma_mat": sig, "j_mat": j, "b_mat": b},
        delta=0.02,
        n_obs=50,
        n_substeps=64,
        seed=9,
    )
    scenario = build_scenario(config)
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(9, 0)))
    gap = np.max(np.abs(record.estimates["gif"] - record.estimates["ekf"]))
    scale = max(1.0, float(np.max(np.abs(record.estimates["ekf"]))))
    assert gap < 1e-8 * scale


def test_zero_noise_scenario_small_errors():
    # exact initial estimate, noise scaled to numerical zero: both filters
    # must track the simulated truth to well below the micro level
    config = ScenarioConfig(
        model="cubic1d",
        model_params={"alpha": 1e-18, "beta": 1e-18},
        n_obs=3,
        n_substeps=64,
        sim_substeps=50000,
        seed=13,
        x0=[0.5],
        mu0=[0.5],
        sigma0=[[0.0]],
    )
    scenario = build_scenario(config)
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(13, 0)))
    for name in ("gif", "ekf"):
        assert np.max(record.errors[name]) < 1e-6


# --- summaries and outputs ----------------------------------------------------------


def test_summary_histogram_conservation(tmp_path):
    config = ScenarioConfig(model="cubic1d", n_obs=60, seed=21, n_runs=3)
    summary, records = run_benchmark(config, out_dir=tmp_path)
    assert len(records) == 3
    for name, stats in summary.per_filter.items():
        counts = np.asarray(stats["histogram_counts"])
        assert counts.sum() == 60
        assert 0.0 <= stats["tail_frequency"] <= 1.0
        assert np.isfinite(stats["mean_abs_error"])
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "histogram.csv").exists()
    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["metadata"]["config_hash"] == config.config_hash()
    hist_rows = (tmp_path / "histogram.csv").read_text().strip().splitlines()
    assert len(hist_rows) == 51  # header + 50 bins
    total = sum(int(r.split(",")[2]) for r in hist_rows[1:])
    assert total == 60


def test_benchmark_outputs_bit_identical(tmp_path):
    config = ScenarioConfig(model="cubic1d", n_obs=40, seed=33)
    run_benchmark(config, out_dir=tmp_path / "a")
    run_benchmark(config, out_dir=tmp_path / "b")
    for name in ("trajectory.csv", "summary.json", "histogram.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_no_nan_leaks_into_summary(tmp_path):
    config = ScenarioConfig(model="cubic1d", n_obs=30, seed=44)
    summary, _ = run_benchmark(config)
    blob = json.dumps(summary.to_dict())
    assert "NaN" not in blob and "nan" not in blob


# --- consistency studies --------------------------------------------------------------


def test_kalman_check_passes():
    report = kalman_check()
    assert report["passed"]
    assert report["max_rel_mean_deviation"] <= 1e-8
    assert report["max_rel_cov_deviation"] <= 1e-8


def test_transformed_model_internally_consistent():
    # chain-rule transform must satisfy the same drift-correction identity
    # as any registered model, and match finite differences of its own pieces
    model, obs, (phi, dphi) = transformed_cubic_model(Cubic1DParams())
    rng = np.random.default_rng(66)
    for _ in range(200):
        xt = np.array([phi(rng.uniform(-1.3, 1.3))])
        assert model.drift_consistency_residual(xt) < 1e-12
    h = 1e-6
    for _ in range(50):
        xt = np.array([phi(rng.uniform(-1.2, 1.2))])
        fd = (model.xi(xt + h) - model.xi(xt - h)) / (2 * h)
        assert abs(fd[0] - model.dxi(xt)[0, 0]) < 2e-7 * max(1.0, abs(fd[0]))
        fd2 = (model.xi(xt + h) - 2 * model.xi(xt) + model.xi(xt - h)) / h ** 2
        ana2 = model.d2xi_contract(xt, np.eye(1))
        assert abs(fd2[0] - ana2[0]) < 2e-3 * max(1.0, abs(ana2[0]))
        fd_psi = (obs.psi(xt + h) - obs.psi(xt - h)) / (2 * h)
        assert abs(fd_psi[0] - obs.dpsi(xt)[0, 0]) < 2e-7 * max(1.0, abs(fd_psi[0]))
