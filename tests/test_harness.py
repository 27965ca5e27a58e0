"""Tests for scenario configuration, simulation, filter runs, and summaries."""

import dataclasses
import json
import logging
import math
from collections import Counter

import numpy as np
import pytest

from gifilter.ekf import ekf_step
from gifilter.errors import DivergenceError, IllConditionedGainError, NonFiniteError
from gifilter import ekf as gekf
from gifilter import filter as gfilter
from gifilter import flow, harness
from gifilter.filter import FilterConfig, filter_step
from gifilter.geometry import flat_connector
from gifilter.harness import (
    Scenario,
    ScenarioConfig,
    TrajectoryRecord,
    _checked,
    _step_with_refinement,
    build_scenario,
    config_from_dict,
    dphi,
    invariance_check,
    kalman_check,
    kalman_reference_run,
    phi,
    phi_inv,
    run_benchmark,
    run_filters,
    simulate_sde,
    trajectory_rng,
    transformed_cubic_model,
)
from gifilter.models import tracking
from gifilter.models.cubic1d import Cubic1DParams, cubic1d_build
from gifilter.models.linear import LinearParams, linear_build
from gifilter.observation import beta_sqrt, sample_observation

from helpers import collapsing_model
from oracles import cubic1d_analytic_flow, drift_consistency_residual


# --- configuration ------------------------------------------------------------


def test_config_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        ScenarioConfig(model="pendulum")


def test_config_rejects_unknown_filter():
    with pytest.raises(ValueError, match="unknown filter"):
        ScenarioConfig(filters=("gif", "ukf"))


def test_config_rejects_a_repeated_filter():
    # used to run the GIF twice and write its columns twice
    with pytest.raises(ValueError, match=r"filters must name each filter once, got \['gif', "):
        ScenarioConfig(filters=("gif", "gif"))


def test_config_asks_python_code_for_a_tuple_of_filters():
    # used to say "filters must be a list", which a list did not satisfy
    with pytest.raises(ValueError, match=r"filters must be a tuple, got \['gif'\]"):
        ScenarioConfig(filters=["gif"])


@pytest.mark.parametrize("field, value", [
    ("delta", -1.0), ("delta", 0.0), ("delta", math.nan), ("delta", math.inf),
    ("n_substeps", 0), ("sim_substeps", 0), ("max_refinements", -1),
])
def test_config_rejects_out_of_range_numbers(field, value):
    # each used to fail late: delta -1 as a math domain error in the
    # simulator, sim_substeps 0 as a ZeroDivisionError, and max_refinements
    # -1 by silently aborting every cycle
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**{field: value})
    assert ScenarioConfig(max_refinements=0).max_refinements == 0


@pytest.mark.parametrize("field, value", [
    ("n_obs", "5"), ("n_obs", 5.0), ("seed", True), ("delta", "1.0"), ("sim_substeps", None),
    ("quadratic_enabled", 1), ("model", 3), ("model_params", [1]), ("filters", "gif"),
    ("mu0", ["abc"]), ("mu0", ["0.3"]), ("sigma0", [[{"a": 1}]]), ("sigma0", [True]),
    ("x0", [[1.0], [2.0, 3.0]]), ("x0", [math.nan]), ("mu0", [math.inf]),
    ("sigma0", [[math.nan]]), ("sigma0", [-math.inf]),
])
def test_config_rejects_mistyped_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be"):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize("model, params, match", [
    ("cubic1d", {"bogus": 1}, "unknown cubic1d parameter 'bogus'"),
    ("cubic1d", {"delta": 2.0}, "unknown cubic1d parameter 'delta'"),
    ("tracking9d", {"missile": 1}, "unknown tracking9d parameter 'missile'"),
    ("cubic1d", {"alpha": "0.1"}, "model parameter alpha must be a number"),
    ("tracking9d", {"lam": None}, "model parameter lam must be a number"),
    ("tracking9d", {"missile_v0": ["abc", 0.0, 0.0]}, "model parameter missile_v0 must be"),
    ("linear", {"sigma_mat": [["abc"]]}, "model parameter sigma_mat must be"),
    # non-finite numbers, which JSON's NaN and Infinity let in: each used to
    # run, ending in "0 cycles", aborted cycles or a numerical failure
    ("cubic1d", {"p_crit": math.inf}, "model parameter p_crit must be finite, got inf"),
    ("cubic1d", {"alpha": math.nan}, "model parameter alpha must be finite, got nan"),
    ("tracking9d", {"lam": math.nan}, "model parameter lam must be finite, got nan"),
    ("tracking9d", {"missile_v0": [math.inf, 0.0, 0.0]}, "model parameter missile_v0 must be"),
    ("linear", {"a_mat": [[math.nan]]}, r"model parameter a_mat must be finite, got \[\[nan\]\]"),
])
def test_config_rejects_unknown_or_mistyped_model_params(model, params, match):
    with pytest.raises(ValueError, match=match):
        ScenarioConfig(model=model, model_params=params)


def test_config_accepts_every_documented_model_param():
    ScenarioConfig(model="cubic1d", model_params={"p_crit": 1, "alpha": 0.1, "beta": 0.2})
    build_scenario(ScenarioConfig(model="tracking9d", model_params={
        "lam": 0.4, "sigma_f": 2.0, "missile_p0": [1.0, 0.0, 0.0], "missile_v0": [0.0, 1.0, 0.0]}))


@pytest.mark.parametrize("model", harness.KNOWN_MODELS)
def test_config_model_params_follow_the_params_class(model):
    # every field of the model's params class is a model parameter; a float
    # field must be given a number
    for f in dataclasses.fields(harness.MODEL_PARAMS[model]):
        if f.type in (float, "float"):
            ScenarioConfig(model=model, model_params={f.name: 1})
            with pytest.raises(ValueError, match=f"model parameter {f.name} must be a number"):
                ScenarioConfig(model=model, model_params={f.name: "1"})
        else:
            ScenarioConfig(model=model, model_params={f.name: [[1.0]]})


def _linear_params(p: int) -> dict:
    """A stable p-state linear model observed through its first state."""
    return {"a_mat": (-np.eye(p)).tolist(), "sigma_mat": np.eye(p).tolist(),
            "j_mat": np.eye(1, p).tolist(), "b_mat": [[1.0]]}


LINEAR_PARAMS = _linear_params(1)


@pytest.mark.parametrize("model, change, match", [
    # each used to end in a traceback, a message naming no field, or a run
    ("linear", {"model_params": dict(LINEAR_PARAMS, sigma_mat=[1.0])},
     r"sigma_mat must have shape \(p, m\) = \(1, 1\), got \(1,\)"),
    ("linear", {"model_params": dict(LINEAR_PARAMS, a_mat=[-1.0])},
     r"a_mat must have shape \(p, p\) = \(1, 1\), got \(1,\)"),
    ("linear", {"model_params": dict(LINEAR_PARAMS, j_mat=[[1.0, 2.0]])},
     r"j_mat must have shape \(q, p\) = \(1, 1\), got \(1, 2\)"),
    ("linear", {"model_params": dict(LINEAR_PARAMS, b_mat=[[1.0, 0.0], [0.0, 1.0]])},
     r"b_mat must have shape \(q, q\) = \(1, 1\), got \(2, 2\)"),
    ("tracking9d", {"model_params": {"missile_p0": [1.0, 2.0]}},
     r"missile_p0 must be a vector of 3 numbers, got shape \(2,\)"),
    ("tracking9d", {"model_params": {"missile_v0": [[250.0, 0.0, 0.0]]}},
     r"missile_v0 must be a vector of 3 numbers, got shape \(1, 3\)"),
    ("cubic1d", {"x0": [0.3, 0.1]}, r"x0 of shape \(2,\) does not match state dimension 1"),
    ("cubic1d", {"mu0": [[0.3]]}, r"mu0 of shape \(1, 1\) does not match state dimension 1"),
    ("tracking9d", {"x0": [0.0] * 10}, r"x0 of shape \(10,\) does not match state dimension 9"),
    ("cubic1d", {"sigma0": [0.01, 0.01]},
     r"sigma0 of shape \(2, 2\) does not match state dimension 1"),
    ("linear", {"model_params": LINEAR_PARAMS, "sigma0": [[[1.0]]]},
     r"sigma0 of shape \(1, 1, 1\) does not match state dimension 1"),
])
def test_build_scenario_rejects_malformed_shapes(model, change, match):
    with pytest.raises(ValueError, match=match):
        build_scenario(ScenarioConfig(model=model, **change))


@pytest.mark.parametrize("sigma0, match", [
    ([-0.01], "sigma0 must be positive semi-definite, has eigenvalue -0.01"),
    ([[1.0, 2.0], [2.0, 1.0]], "sigma0 must be positive semi-definite, has eigenvalue -1"),
    ([[1.0, 0.5], [0.0, 1.0]], "sigma0 is not symmetric"),
])
def test_build_scenario_rejects_a_prior_that_is_no_covariance(sigma0, match):
    # a negative prior variance used to run both filters without complaint
    with pytest.raises(ValueError, match=match):
        build_scenario(ScenarioConfig(model="linear", model_params=_linear_params(len(sigma0)),
                                      sigma0=sigma0))


def test_build_scenario_accepts_a_singular_prior_and_rounding_below_zero():
    # PSD within SYMMETRY_RTOL of the largest entry: a zero variance passes,
    # and so does an eigenvalue a rounding error below zero
    build_scenario(ScenarioConfig(model="cubic1d", sigma0=[[0.0]]))
    build_scenario(ScenarioConfig(model="linear", model_params=_linear_params(2),
                                  sigma0=[[1.0, 1.0], [1.0, 1.0 - 1e-15]]))


_MOVING = [9000.0, 2000.0, 3000.0, -200.0, 80.0, 0.0, 0.0, 0.0, 20.0]
_AT_REST = [9000.0, 2000.0, 3000.0, 0.0, 0.0, 0.0, 0.0, 0.0, 20.0]


@pytest.mark.parametrize("change, match", [
    ({"x0": _AT_REST}, "x0 has speed 0, below the tracking9d speed floor 1e-06"),
    ({"x0": _MOVING, "mu0": _AT_REST}, "mu0 has speed 0, below the tracking9d speed floor"),
    ({"mu0": _MOVING[:3] + [1e-7, 0.0, 0.0] + _MOVING[6:]}, "mu0 has speed 1e-07, below"),
], ids=["x0", "mu0", "mu0-below-floor"])
def test_build_scenario_rejects_a_tracking_start_without_speed(change, match):
    # the flow needs |v| >= SPEED_FLOOR: a simulation from a zero-speed x0
    # used to end as a numerical failure with a numpy RuntimeWarning, and
    # filters from a zero-speed mu0 aborted every cycle
    with pytest.raises(ValueError, match=match):
        build_scenario(ScenarioConfig(model="tracking9d", n_obs=2, **change))


def test_build_scenario_accepts_a_tracking_start_at_the_speed_floor():
    build_scenario(ScenarioConfig(model="tracking9d", n_obs=2,
                                  x0=_MOVING[:3] + [1e-6, 0.0, 0.0] + _MOVING[6:]))


def test_build_scenario_names_missing_linear_parameters():
    # used to raise the bare KeyError "'a_mat'"
    config = ScenarioConfig(model="linear", n_obs=2,
                            model_params={"sigma_mat": [[1.0]], "j_mat": [[1.0]]})
    with pytest.raises(ValueError, match="missing linear parameter: a_mat, b_mat"):
        build_scenario(config)


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
def test_non_finite_gif_update_aborts_the_cycle_not_the_run(caplog):
    # an absurd observation drives the GIF update to infinity: that cycle is
    # recorded as aborted with the previous estimate kept, and the run goes on
    config = ScenarioConfig(model="cubic1d", n_obs=5, seed=1)
    scenario = build_scenario(config)
    record = simulate_sde(scenario, trajectory_rng(1, 0))
    record.observations[2] = 1e308
    with caplog.at_level(logging.WARNING, logger="gifilter"):
        record = run_filters(scenario, record)
    assert record.aborted["gif"].tolist() == [False, False, True, False, False]
    assert np.array_equal(record.estimates["gif"][2], record.estimates["gif"][1])
    assert np.all(np.isfinite(record.estimates["gif"]))
    # one line per filter, not one per aborted cycle; the EKF loses its
    # track from cycle 3 on
    assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
        "gif: 1 of 5 cycles aborted, first at cycle 2",
        "ekf: 2 of 5 cycles aborted, first at cycle 3",
    ]


def _spoil_mu(mu, sigma):
    return np.full_like(mu, np.inf), sigma


def _spoil_sigma(mu, sigma):
    sigma = sigma.copy()
    sigma[0, 0] = np.nan
    return mu, sigma


@pytest.mark.parametrize("spoil", [_spoil_mu, _spoil_sigma], ids=["mu", "sigma"])
@pytest.mark.parametrize("name,step_name", [("gif", "filter_step"), ("ekf", "ekf_step")])
def test_step_with_a_non_finite_result_aborts_its_cycle(monkeypatch, name, step_name, spoil):
    # run_filters checks each step's result once, inside the attempt: a
    # non-finite entry aborts that cycle only, without a retry, and the
    # filter keeps its previous estimate
    step = getattr(harness, step_name)
    calls = []

    def third_step_spoiled(*args, **kwargs):
        calls.append(None)
        result = step(*args, **kwargs)
        return spoil(*result) if len(calls) == 3 else result

    monkeypatch.setattr(harness, step_name, third_step_spoiled)
    scenario = build_scenario(ScenarioConfig(model="cubic1d", n_obs=5, seed=1, filters=(name,)))
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(1, 0)))
    assert len(calls) == 5
    assert record.aborted[name].tolist() == [False, False, True, False, False]
    assert np.array_equal(record.estimates[name][2], record.estimates[name][1])
    assert np.array_equal(record.covariances[name][2], record.covariances[name][1])
    assert np.all(np.isfinite(record.covariances[name]))


def test_non_finite_covariance_inside_a_gif_step_aborts_the_cycle(monkeypatch):
    # a NaN covariance entry out of the curved update reaches repair_psd,
    # whose eigendecomposition fails on it with NonFiniteError: the cycle
    # aborts and the run goes on
    update = gfilter.update_estimate
    calls = []

    def second_update_spoiled(x_delta, mu, sigma, conn):
        calls.append(None)
        mu_hat, sigma_hat = update(x_delta, mu, sigma, conn)
        if len(calls) == 2:
            sigma_hat = sigma_hat.copy()
            sigma_hat[0, 0] = np.nan
        return mu_hat, sigma_hat

    monkeypatch.setattr(gfilter, "update_estimate", second_update_spoiled)
    scenario = build_scenario(ScenarioConfig(model="tracking9d", delta=0.1, n_obs=3, seed=0,
                                             filters=("gif",)))
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(0, 0)))
    assert record.aborted["gif"].tolist() == [False, True, False]
    assert np.array_equal(record.covariances["gif"][1], record.covariances["gif"][0])


@pytest.mark.parametrize("name, module", [("gif", gfilter), ("ekf", gekf)], ids=["gif", "ekf"])
def test_nan_covariance_through_repair_psd_aborts_the_cycle(monkeypatch, name, module):
    # a 1x1 NaN covariance has no negative eigenvalue, so repair_psd passes it
    # through and the cycle's check of the estimate aborts it
    repair = module.repair_psd
    calls = []

    def second_repair_spoiled(mat):
        calls.append(None)
        return repair(np.full_like(mat, np.nan) if len(calls) == 2 else mat)

    monkeypatch.setattr(module, "repair_psd", second_repair_spoiled)
    scenario = build_scenario(ScenarioConfig(model="cubic1d", n_obs=3, seed=0, filters=(name,)))
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(0, 0)))
    assert len(calls) == 3
    assert record.aborted[name].tolist() == [False, True, False]
    assert np.array_equal(record.covariances[name][1], record.covariances[name][0])


@pytest.mark.parametrize("model, delta", [("cubic1d", 1.0), ("tracking9d", 0.1)])
@pytest.mark.parametrize("name, module", [("gif", gfilter), ("ekf", gekf)], ids=["gif", "ekf"])
def test_indefinite_covariance_aborts_its_cycle(monkeypatch, name, module, model, delta):
    # an updated covariance negative beyond rounding comes from a failed
    # update: repair_psd raises on it instead of clipping it, so that cycle
    # aborts, keeps the previous estimate, and the run goes on
    repair = module.repair_psd
    calls = []

    def second_repair_indefinite(mat):
        calls.append(None)
        return repair(-mat if len(calls) == 2 else mat)

    monkeypatch.setattr(module, "repair_psd", second_repair_indefinite)
    scenario = build_scenario(ScenarioConfig(model=model, delta=delta, n_obs=3, seed=0,
                                             filters=(name,)))
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(0, 0)))
    assert len(calls) == 3
    assert record.aborted[name].tolist() == [False, True, False]
    assert np.array_equal(record.estimates[name][1], record.estimates[name][0])
    assert np.array_equal(record.covariances[name][1], record.covariances[name][0])


def test_repair_psd_receives_exactly_symmetric_matrices(monkeypatch):
    # repair_psd does not symmetrize: each update that feeds it ends in
    # symmetrize, flat or not, on one-, three- and nine-dimensional states
    # (cubic1d's scalar cycles pass it a float, its own transpose)
    seen = []

    def checked(module):
        repair = module.repair_psd

        def wrapped(mat):
            seen.append((module.__name__, np.array_equal(mat, np.transpose(mat))))
            return repair(mat)
        return wrapped

    for module in (gfilter, gekf):
        monkeypatch.setattr(module, "repair_psd", checked(module))
    for model, delta, n_obs in (("cubic1d", 1.0, 30), ("tracking9d", 0.1, 5)):
        scenario = build_scenario(ScenarioConfig(model=model, delta=delta, n_obs=n_obs, seed=1))
        run_filters(scenario, simulate_sde(scenario, trajectory_rng(1, 0)))
    # the GIF of the invariance study, also in its distorted chart, whose
    # connector is not flat, and on the flat three-dimensional linear model
    invariance_check(n_steps=20)
    kalman_check(n_steps=20)
    assert {name for name, _ in seen} == {"gifilter.filter", "gifilter.ekf"}
    assert len(seen) >= 2 * 30 + 2 * 5 + 4 * 20 + 20
    assert all(symmetric for _, symmetric in seen)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_update_aborts_its_cycles_without_a_warning():
    # extreme cubic on 4 substeps: the EKF estimate runs off, and its
    # update's observation callbacks overflow outside the flow's errstate;
    # the cycles abort, and no numpy warning leaks from them
    scenario = build_scenario(ScenarioConfig(model="cubic1d", n_obs=400, n_substeps=4,
                                             seed=0, filters=("ekf",)))
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(0, 0)))
    assert record.aborted["ekf"].any()


def test_a_singular_flow_aborts_the_gif_cycle_instead_of_crashing():
    # tau_0^delta underflows to 0 on every grid: each attempt raises the
    # retried IllConditionedFlowError (it used to be numpy's bare
    # LinAlgError, which escaped run_filters), and every cycle aborts
    scenario = build_scenario(ScenarioConfig(model="cubic1d", n_obs=3, filters=("gif",),
                                             max_refinements=1))
    scenario = dataclasses.replace(scenario, diffusion=collapsing_model(1))
    times = np.arange(1.0, 4.0)
    record = TrajectoryRecord(times=times, truth=np.zeros((3, 1)),
                              observations=np.full((3, 1), 0.5))
    record = run_filters(scenario, record)
    assert record.aborted["gif"].tolist() == [True, True, True]
    assert np.array_equal(record.estimates["gif"], np.full((3, 1), scenario.mu0))


_ASYMMETRIC = np.eye(9)
_ASYMMETRIC[0, 1] = 0.5


@pytest.mark.parametrize("model,field,value,match", [
    ("cubic1d", "sigma0", [[0.01, 0.0], [0.0, 0.01]], "does not match state dimension 1"),
    ("cubic1d", "sigma0", [[math.nan]], "non-finite"),
    ("cubic1d", "mu0", [math.inf], "non-finite"),
    ("tracking9d", "sigma0", _ASYMMETRIC.tolist(), "not symmetric"),
], ids=["sigma0-shape", "sigma0-non-finite", "mu0-non-finite", "sigma0-asymmetric"])
def test_bad_initial_estimate_raises_value_error(model, field, value, match):
    # the scenario's estimate is checked once, on entry, as invalid input;
    # the scenario is built directly, as kalman_check builds one, since a
    # config refuses the non-finite values itself
    scenario = build_scenario(ScenarioConfig(model=model, n_obs=2))
    record = simulate_sde(scenario, trajectory_rng(0, 0))
    scenario = dataclasses.replace(scenario, **{field: np.array(value)})
    with pytest.raises(ValueError, match=match):
        run_filters(scenario, record)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_scalar_estimate_fails_the_check_as_an_array_estimate_does(bad):
    # a one-dimensional estimate is checked on floats: the same class and
    # message as the array check of a two-dimensional one with that entry
    for spoil_mu in (True, False):
        cases = []
        for dim in (1, 2):
            mu, sigma = np.zeros(dim), np.eye(dim)
            if spoil_mu:
                mu[0] = bad
            else:
                sigma[0, 0] = bad
            with pytest.raises(NonFiniteError) as raised:
                _checked((mu, sigma), dim)
            cases.append(str(raised.value))
        assert cases[0] == cases[1]
    with pytest.raises(ValueError, match=r"shapes \(1, 1\) and \(1, 1\) does not match"):
        _checked((np.zeros((1, 1)), np.eye(1)), 1)
    est = (np.zeros(1), np.eye(1))
    assert _checked(est, 1) is est


def test_gif_without_its_intrinsic_terms_is_the_ekf_on_tracking(monkeypatch):
    # With the quadratic term off, the observation AILP at 0, the flat
    # pull-back Z = w, the state AILP m_delta at 0 and the flat update
    # x_delta + mu, a GIF cycle does the EKF's arithmetic: on tracking9d
    # xi = b, because Gamma(alpha) vanishes, so both filters propagate
    # alike and the two tracks agree bit for bit.
    def run(seed, n_obs):
        config = ScenarioConfig(model="tracking9d", delta=0.1, n_obs=n_obs, seed=seed,
                                quadratic_enabled=False)
        scenario = build_scenario(config)
        return run_filters(scenario, simulate_sde(scenario, trajectory_rng(seed, 0)))

    pull_back = gfilter.pull_back_observation
    monkeypatch.setattr(gfilter, "ailp_observation",
                        lambda bundle, form, jac: np.zeros(jac.shape[0]))
    monkeypatch.setattr(flow, "ailp_state", lambda model, x_path, *rest: np.zeros(model.dim))
    monkeypatch.setattr(gfilter, "pull_back_observation",
                        lambda y_delta, y_obs, conn, mask: pull_back(
                            y_delta, y_obs, flat_connector(conn.dim), mask))
    # the curved update alone already sets the two apart
    partial = run(0, 10)
    assert not np.array_equal(partial.estimates["gif"], partial.estimates["ekf"])

    monkeypatch.setattr(gfilter, "update_estimate",
                        lambda x_delta, mu, sigma, conn: (x_delta + mu, sigma))
    for seed in (0, 2, 5):
        record = run(seed, 100)
        assert not record.aborted["gif"].any() and not record.aborted["ekf"].any()
        assert record.estimates["gif"].tobytes() == record.estimates["ekf"].tobytes()
        assert record.covariances["gif"].tobytes() == record.covariances["ekf"].tobytes()


def test_ekf_track_ignores_the_gif_only_switches():
    # acceptance criterion 3 takes the EKF's errors of its arm without the
    # quadratic terms from the arm with them, on the same seed.  Without the
    # collar the GIF loses most cycles of this regime, each after its
    # retries, so those arms run the EKF alone
    tracks = {}
    for quadratic in (True, False):
        for collar in (True, False):
            config = ScenarioConfig(
                model="cubic1d", model_params={"p_crit": 0.1, "alpha": 0.01, "beta": 0.001},
                n_obs=200, seed=3, quadratic_enabled=quadratic, collar_enabled=collar,
                filters=("gif", "ekf") if collar else ("ekf",))
            (record,) = run_benchmark(config)[1]
            tracks[quadratic, collar] = record
    ekf_tracks = {rec.estimates["ekf"].tobytes() + rec.covariances["ekf"].tobytes()
                  + rec.aborted["ekf"].tobytes() + rec.errors["ekf"].tobytes()
                  for rec in tracks.values()}
    assert len(ekf_tracks) == 1
    # the switches do act on the GIF
    assert (tracks[True, True].estimates["gif"].tobytes()
            != tracks[False, True].estimates["gif"].tobytes())


@pytest.mark.parametrize("model", ["cubic1d", "tracking9d"])
def test_simulate_sde_requires_noise_matrix(model):
    # tracking9d's own Euler loop needs no noise_matrix, but the simulator
    # still asks for it
    scenario = build_scenario(ScenarioConfig(model=model, n_obs=3))
    no_noise = dataclasses.replace(
        scenario, diffusion=dataclasses.replace(scenario.diffusion, noise_matrix=None))
    with pytest.raises(ValueError, match="noise_matrix"):
        simulate_sde(no_noise, trajectory_rng(0, 0))


def _euler_helpers_run(monkeypatch):
    """The names of the Euler helpers simulate_sde calls, one per cycle,
    recorded from here on; the own loop of a tracking9d model built from
    here on is recorded as "euler_loop"."""
    ran = []
    for name in ("_euler_floats", "_euler_arrays"):
        def helper(*args, _name=name, _fn=getattr(harness, name)):
            ran.append(_name)
            return _fn(*args)
        monkeypatch.setattr(harness, name, helper)
    build_loop = tracking._euler_loop

    def recording_build(*params):
        loop = build_loop(*params)

        def recorded(*args):
            ran.append("euler_loop")
            return loop(*args)
        return recorded

    monkeypatch.setattr(tracking, "_euler_loop", recording_build)
    return ran


def test_simulate_sde_never_constrains_a_non_finite_state(monkeypatch):
    # the diverging cubic run of the bit-for-bit test below, with a
    # constraint that records whether its input was finite
    config = ScenarioConfig(model="cubic1d", model_params={"alpha": 10.0}, n_obs=40,
                            sim_substeps=4, seed=0)
    scenario = build_scenario(config)
    finite = []

    def constrain(x, ref):
        finite.append(bool(np.isfinite(x).all()))
        return x

    constrained = dataclasses.replace(
        scenario, diffusion=dataclasses.replace(scenario.diffusion, constrain=constrain))
    ran = _euler_helpers_run(monkeypatch)
    record = simulate_sde(constrained, trajectory_rng(0, 0))
    assert record.diverged_at == 12
    assert len(finite) >= 12 * config.sim_substeps and all(finite)
    # a constrained model takes the arrays, whatever its dimension
    assert set(ran) == {"_euler_arrays"}


@pytest.mark.filterwarnings("error")
def test_simulate_sde_overflow_in_the_first_substep_is_a_silent_divergence(monkeypatch):
    # -0.5 x^3 overflows at x = 1e103: the float form of the drift returns
    # numpy's -inf where Python's power raises, the float step adds and
    # multiplies without raising, and numpy's warnings stay inside the
    # errstate
    config = ScenarioConfig(model="cubic1d", n_obs=5, x0=[1e103])
    ran = _euler_helpers_run(monkeypatch)
    record = simulate_sde(build_scenario(config), trajectory_rng(0, 0))
    assert record.diverged_at == 0 and ran == ["_euler_floats"]
    assert np.isnan(record.truth).all() and np.isnan(record.observations).all()


def _per_substep_simulation(scenario, rng):
    """simulate_sde's former loop, one noise draw per substep; a flat
    observation without angular coordinates is drawn by the general
    formula psi(X) + beta^(1/2) V, not by sample_observation."""
    config, model = scenario.config, scenario.diffusion
    dt = config.delta / config.sim_substeps
    x = np.array(scenario.x0, dtype=float)
    ref = x.copy()
    times = config.delta * np.arange(1, config.n_obs + 1)
    truth = np.full((config.n_obs, model.dim), np.nan)
    observations = np.full((config.n_obs, scenario.observation_at(times[0]).dim_obs), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(config.n_obs):
            for _ in range(config.sim_substeps):
                load = model.noise_matrix(x)
                shock = load @ rng.standard_normal(load.shape[1])
                x = x + model.drift_b(x) * dt + shock * math.sqrt(dt)
                if not np.all(np.isfinite(x)):
                    return truth, observations, k
                if model.constrain is not None:
                    x = model.constrain(x, ref)
            truth[k] = x
            obs_model = scenario.observation_at(float(times[k]))
            if obs_model.conn_obs.flat and obs_model.angular_mask is None:
                y_center = obs_model.psi(x)
                observations[k] = (y_center + beta_sqrt(obs_model.beta(y_center))
                                   @ rng.standard_normal(obs_model.dim_obs))
            else:
                observations[k] = sample_observation(obs_model, x, rng)
    return truth, observations, None


def _linear_1d(sigma_mat):
    """A one-dimensional linear config loaded by ``sigma_mat``."""
    return ScenarioConfig(model="linear", model_params={
        "a_mat": [[-0.5]], "sigma_mat": sigma_mat, "j_mat": [[2.0]], "b_mat": [[0.1]]},
        n_obs=30, seed=6)


def _clip_near_start(x, ref):
    """A constraint that moves the state: clip it to within 0.5 of the start."""
    return np.clip(x, ref - 0.5, ref + 0.5)


@pytest.mark.parametrize("config,constrain,diverged_at,helper", [
    (ScenarioConfig(model="cubic1d", n_obs=30, seed=4), None, None, "_euler_floats"),
    (ScenarioConfig(model="tracking9d", delta=0.1, n_obs=10, seed=5), None, None,
     "_euler_arrays"),
    # large noise on a coarse grid: the Euler scheme blows up in cycle 12
    (ScenarioConfig(model="cubic1d", model_params={"alpha": 10.0}, n_obs=40,
                    sim_substeps=4, seed=0), None, 12, "_euler_floats"),
    # the linear model gives no float forms, even at p = 1
    (_linear_1d([[0.7]]), None, None, "_euler_arrays"),
    # one state, two noise inputs: the (1, 2) @ (2,) product stays on arrays
    (_linear_1d([[0.6, 0.5]]), None, None, "_euler_arrays"),
    # one state under a constraint: the constraint runs on arrays only
    (ScenarioConfig(model="cubic1d", model_params={"alpha": 1.0}, n_obs=30, seed=4),
     _clip_near_start, None, "_euler_arrays"),
], ids=["cubic1d", "tracking9d", "diverging", "linear-1x1-noise", "linear-1x2-noise",
        "cubic1d-constrained"])
def test_simulate_sde_equals_per_substep_draws_bit_for_bit(config, constrain, diverged_at,
                                                           helper, monkeypatch):
    ran = _euler_helpers_run(monkeypatch)
    scenario = build_scenario(config)
    # tracking9d's own Euler loop rounds otherwise (it is bounded against
    # the array substeps in test_models_tracking.py); without it the array
    # substeps are pinned here bit for bit
    diffusion = dataclasses.replace(scenario.diffusion, euler_loop=None)
    if constrain is not None:
        diffusion = dataclasses.replace(diffusion, constrain=constrain)
    scenario = dataclasses.replace(scenario, diffusion=diffusion)
    record = simulate_sde(scenario, trajectory_rng(config.seed, 0))
    assert set(ran) == {helper}
    truth, observations, loop_diverged_at = _per_substep_simulation(
        scenario, trajectory_rng(config.seed, 0))
    assert record.diverged_at == loop_diverged_at == diverged_at
    assert np.array_equal(record.truth, truth, equal_nan=True)
    assert np.array_equal(record.observations, observations, equal_nan=True)


@pytest.mark.parametrize("config,calls,helper", [
    (ScenarioConfig(model="cubic1d", n_obs=30, seed=4), 30, "_euler_floats"),
    (ScenarioConfig(model="tracking9d", delta=0.1, n_obs=10, seed=5), 10, "euler_loop"),
    (ScenarioConfig(model="cubic1d", model_params={"alpha": 10.0}, n_obs=40,
                    sim_substeps=4, seed=0), 12, "_euler_floats"),
    (ScenarioConfig(model="cubic1d", n_obs=5, x0=[1e103]), 0, "_euler_floats"),
], ids=["cubic1d", "tracking9d", "diverging", "diverging-in-the-first-substep"])
def test_simulate_sde_draws_every_observation_through_sample_observation(config, calls,
                                                                        helper, monkeypatch):
    # perfbench times the draw as the span it wraps around
    # harness.sample_observation: every simulated cycle calls it once, and
    # no cycle after a divergence does, whichever Euler helper ran the cycle
    drawn = []

    def counted(*args):
        drawn.append(args)
        return sample_observation(*args)

    monkeypatch.setattr(harness, "sample_observation", counted)
    ran = _euler_helpers_run(monkeypatch)
    record = simulate_sde(build_scenario(config), trajectory_rng(config.seed, 0))
    assert len(drawn) == record.n_valid == calls
    assert ran == [helper] * (calls + (record.diverged_at is not None))


ONE_POINT_CALLBACKS = ("xi", "dxi", "d2xi_contract", "drift_b", "ddrift_b",
                       "d2drift_b_contract", "noise_matrix")


def test_scalar_models_step_on_floats_without_array_callbacks(monkeypatch):
    # cubic1d's truth, GIF and EKF, and the GIF in the transformed chart,
    # run the float Taylor and Euler loops, and no array callback is called
    # inside them: a model that fell back to the array loops, or a float
    # loop that called an array xi or dxi, fails here
    ran, inside, strays = [], [], []
    for module, name in ((flow, "_taylor_floats"), (flow, "_taylor_arrays"),
                         (harness, "_euler_floats"), (harness, "_euler_arrays")):
        def helper(*args, _name=name, _fn=getattr(module, name)):
            ran.append(_name)
            inside.append(_name)
            try:
                return _fn(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(module, name, helper)

    def watched(model):
        """``model`` whose one-point array callbacks note each call made
        inside a loop helper."""
        def watch(name, fn):
            def callback(*args):
                if inside:
                    strays.append((name, inside[-1]))
                return fn(*args)
            return callback
        return dataclasses.replace(model, **{name: watch(name, getattr(model, name))
                                             for name in ONE_POINT_CALLBACKS
                                             if getattr(model, name) is not None})

    n_obs = 4
    base = build_scenario(ScenarioConfig(model="cubic1d", n_obs=n_obs, seed=2))
    cubic = dataclasses.replace(base, diffusion=watched(base.diffusion))
    record = run_filters(cubic, simulate_sde(cubic, trajectory_rng(2, 0)))
    tr_model, tr_obs = transformed_cubic_model(Cubic1DParams())
    mu0 = np.array([phi(float(base.mu0[0]))])
    transformed = Scenario(ScenarioConfig(model="cubic1d", n_obs=n_obs, filters=("gif",)),
                           watched(tr_model), lambda t: tr_obs, mu0, mu0,
                           dphi(float(base.mu0[0])) ** 2 * base.sigma0)
    tr_record = run_filters(transformed, TrajectoryRecord(record.times, phi(record.truth),
                                                          record.observations))
    assert not any(rec.aborted[f].any() for rec, f in
                   ((record, "gif"), (record, "ekf"), (tr_record, "gif")))
    # one Euler loop per simulated cycle, one Taylor loop per filter cycle
    assert Counter(ran) == {"_euler_floats": n_obs, "_taylor_floats": 3 * n_obs}
    assert strays == []


def _hand_written_euler_observations(params, delta, n_steps, seed):
    """The invariance study's former simulator: Euler-Maruyama on scalars."""
    rng = trajectory_rng(seed, 0)
    x = 0.3
    nsub = 50
    dt = delta / nsub
    ys = np.empty(n_steps)
    for k in range(n_steps):
        for _ in range(nsub):
            x = x - 0.5 * x ** 3 * dt + math.sqrt(params.alpha * dt) * rng.standard_normal()
        ys[k] = x / (params.p_crit + x * x) + math.sqrt(params.beta) * rng.standard_normal()
    return ys


def _hand_written_invariance_mismatch(params, delta, sigma0, n_steps, n_substeps, seed):
    """The invariance study's former filter loop, both charts interleaved."""
    base_model, base_obs = cubic1d_build(params)
    assert harness.CHART_COEFF == 0.2  # the chart the former loop ran in
    tr_model, tr_obs = transformed_cubic_model(params)
    ys = _hand_written_euler_observations(params, delta, n_steps, seed)
    cfg = FilterConfig(delta=delta, n_substeps=n_substeps)
    mu0 = 0.3
    est_a = (np.array([mu0]), np.array([[sigma0]]))
    mu0_t = phi(mu0)
    sig0_t = dphi(mu0) ** 2 * sigma0
    est_b = (np.array([mu0_t]), np.array([[sig0_t]]))
    total = 0.0
    for k in range(n_steps):
        y = np.array([ys[k]])
        est_a = filter_step(base_model, base_obs, est_a, y, cfg)
        est_b = filter_step(tr_model, tr_obs, est_b, y, cfg)
        total += abs(phi(est_a[0][0]) - est_b[0][0])
    return total / n_steps


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_simulate_sde_reproduces_hand_written_euler_observations(scale):
    # the invariance study's scenario at both noise levels: the same stream,
    # the same scheme, different rounding only (sqrt(alpha) sqrt(dt))
    params = Cubic1DParams(p_crit=0.5, alpha=0.01 * scale ** 2, beta=0.001 * scale ** 2)
    config = ScenarioConfig(
        model="cubic1d",
        model_params={"p_crit": params.p_crit, "alpha": params.alpha, "beta": params.beta},
        delta=scale, n_obs=300, sim_substeps=50, seed=7, x0=[0.3])
    record = simulate_sde(build_scenario(config), trajectory_rng(7, 0))
    expected = _hand_written_euler_observations(params, scale, 300, 7)
    assert np.max(np.abs(record.observations[:, 0] - expected) / np.abs(expected)) < 1e-12


def test_invariance_check_matches_hand_written_loops():
    report = invariance_check(n_steps=200)
    full = _hand_written_invariance_mismatch(
        Cubic1DParams(p_crit=0.5, alpha=0.01, beta=0.001), 1.0, 0.01, 200, 64, 7)
    half = _hand_written_invariance_mismatch(
        Cubic1DParams(p_crit=0.5, alpha=0.01 / 4.0, beta=0.001 / 4.0), 0.5, 0.01 / 4.0,
        200, 64, 7)
    assert abs(report["mismatch_full_noise"] - full) <= 1e-9 * full
    assert abs(report["mismatch_half_noise"] - half) <= 1e-9 * half
    assert report["aborted_cycles"] == 0


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
            raise DivergenceError("synthetic")
        return "ok"

    result, level = _step_with_refinement(step, 8, 4)
    assert result == "ok"
    assert level == 2
    assert calls == [8, 16, 32]


def test_step_refinement_gives_up():
    def step(nsub):
        raise DivergenceError("always")

    result, level = _step_with_refinement(step, 8, 3)
    assert result is None and level == 3


def test_step_refinement_aborts_non_flow_error_at_once():
    # a finer grid cannot repair an ill-conditioned gain: no retry
    calls = []

    def step(nsub):
        calls.append(nsub)
        raise IllConditionedGainError("grid-independent")

    result, level = _step_with_refinement(step, 8, 3)
    assert result is None and level == 0
    assert calls == [8]


@pytest.mark.parametrize("model,delta,n_obs", [("cubic1d", 1.0, 30), ("tracking9d", 0.1, 4)])
def test_run_filters_covariances_equal_step_chain(model, delta, n_obs):
    config = ScenarioConfig(model=model, delta=delta, n_obs=n_obs, seed=2)
    scenario = build_scenario(config)
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(2, 0)))
    steps = {
        "gif": lambda st, obs, y: filter_step(scenario.diffusion, obs, st, y,
                                               config.filter_config()),
        "ekf": lambda st, obs, y: ekf_step(scenario.diffusion, obs, st, y, delta,
                                           config.n_substeps),
    }
    for name, step in steps.items():
        assert not record.aborted[name].any()
        assert record.covariances[name].shape == (n_obs, scenario.x0.size, scenario.x0.size)
        mu, sigma = scenario.mu0, scenario.sigma0
        for k in range(n_obs):
            t = float(record.times[k])
            mu, sigma = step((mu, sigma), scenario.observation_at(t), record.observations[k])
            assert np.array_equal(record.covariances[name][k], sigma)
            assert np.array_equal(record.estimates[name][k], mu)


def test_run_filters_builds_one_config_per_grid_size(monkeypatch):
    # every cycle of a track on the base grid shares one FilterConfig
    seen = []

    def spy(model, obs, est, y_obs, config):
        seen.append(config)
        return filter_step(model, obs, est, y_obs, config)

    monkeypatch.setattr(harness, "filter_step", spy)
    config = ScenarioConfig(model="cubic1d", n_obs=6, seed=2, filters=("gif",))
    scenario = build_scenario(config)
    run_filters(scenario, simulate_sde(scenario, trajectory_rng(2, 0)))
    assert len(seen) == 6
    assert all(cfg is seen[0] for cfg in seen)
    assert seen[0] == config.filter_config()
    assert seen[0].grid() is seen[0].grid()


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
    assert report["aborted_cycles"] == 0


def _step_loop_kalman_check(seed=20240817, n_steps=200, p_dim=3, q_dim=2, delta=0.01,
                            n_substeps=96):
    """The Kalman check with its former private filter_step loop."""
    rng = np.random.default_rng(seed)
    a_mat = rng.standard_normal((p_dim, p_dim)) * 0.6
    sigma_mat = rng.standard_normal((p_dim, p_dim)) * 0.4
    j_mat = rng.standard_normal((q_dim, p_dim))
    b_mat = rng.standard_normal((q_dim, q_dim))
    b_mat = b_mat @ b_mat.T + 0.3 * np.eye(q_dim)
    params = LinearParams(a_mat, sigma_mat, j_mat, b_mat)
    model, obs = linear_build(params)
    mu0 = rng.standard_normal(p_dim)
    p0 = 0.5 * np.eye(p_dim)
    observations = rng.standard_normal((n_steps, q_dim)) * 2.0
    ref_means, ref_covs = kalman_reference_run(params, mu0, p0, observations, delta)
    cfg = FilterConfig(delta=delta, n_substeps=n_substeps)
    mu, sigma = mu0.copy(), p0.copy()
    worst_mean = 0.0
    worst_cov = 0.0
    for k in range(n_steps):
        mu, sigma = filter_step(model, obs, (mu, sigma), observations[k], cfg)
        scale_m = max(float(np.max(np.abs(ref_means[k]))), 1e-12)
        scale_p = max(float(np.max(np.abs(ref_covs[k]))), 1e-12)
        worst_mean = max(worst_mean, float(np.max(np.abs(mu - ref_means[k]))) / scale_m)
        worst_cov = max(worst_cov, float(np.max(np.abs(sigma - ref_covs[k]))) / scale_p)
    return {
        "seed": seed,
        "n_steps": n_steps,
        "max_rel_mean_deviation": worst_mean,
        "max_rel_cov_deviation": worst_cov,
        "tolerance": 1e-8,
        "passed": bool(worst_mean <= 1e-8 and worst_cov <= 1e-8),
    }


@pytest.mark.parametrize("seed,n_steps", [(20240817, 200), (5, 40)])
def test_kalman_check_equals_step_loop_bit_for_bit(seed, n_steps):
    report = kalman_check(seed=seed, n_steps=n_steps)
    assert report.pop("aborted_cycles") == 0
    assert report == _step_loop_kalman_check(seed=seed, n_steps=n_steps)


def test_transformed_model_internally_consistent():
    # chain-rule transform must satisfy the same drift-correction identity
    # as any registered model, and match finite differences of its own pieces
    model, obs = transformed_cubic_model(Cubic1DParams())
    rng = np.random.default_rng(66)
    for _ in range(200):
        xt = np.array([phi(rng.uniform(-1.3, 1.3))])
        assert drift_consistency_residual(model, xt) < 1e-12
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


def test_the_chart_drift_composes_cubic1d_float_forms(monkeypatch):
    # with cubic1d's drift forms doubled, the chart's xi, dxi and drift_b
    # follow: doubling is exact, so xi and dxi double bit for bit, and
    # drift_b gains one more xi; the contraction's -3x term doubles too
    chart, _ = transformed_cubic_model(Cubic1DParams())

    def doubled_drift(params):
        model, obs = cubic1d_build(params)
        forms = model.float_forms
        doubled = dataclasses.replace(
            forms, xi=lambda x: 2.0 * forms.xi(x), dxi=lambda x: 2.0 * forms.dxi(x),
            d2xi_contract=lambda x, chi: 2.0 * forms.d2xi_contract(x, chi))
        return dataclasses.replace(model, float_forms=doubled), obs

    monkeypatch.setattr(harness, "cubic1d_build", doubled_drift)
    doubled, _ = transformed_cubic_model(Cubic1DParams())
    chi = np.array([[0.7]])
    for z in np.linspace(-2.0, 2.0, 41):
        zt = np.array([z])
        x = float(phi_inv(z))
        assert doubled.xi(zt).tolist() == (2.0 * chart.xi(zt)).tolist()
        assert doubled.dxi(zt).tolist() == (2.0 * chart.dxi(zt)).tolist()
        assert doubled.float_forms.xi(z) == 2.0 * chart.float_forms.xi(z)
        assert doubled.float_forms.dxi(z) == 2.0 * chart.float_forms.dxi(z)
        assert np.allclose(doubled.drift_b(zt), chart.drift_b(zt) + chart.xi(zt),
                           rtol=1e-13, atol=1e-15)
        extra = -3.0 * x * 0.7 / dphi(x)
        assert np.allclose(doubled.d2xi_contract(zt, chi),
                           chart.d2xi_contract(zt, chi) + extra, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("as_array", [False, True])
def test_closed_form_phi_inv_inverts_phi(as_array):
    assert phi(1.0) == 1.0 + harness.CHART_COEFF
    mags = np.logspace(-12, 6, 2001)
    zs = np.concatenate([mags, -mags])
    if as_array:
        back = phi(phi_inv(zs))
        assert phi_inv(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]
    else:
        back = np.array([phi(phi_inv(float(z))) for z in zs])
        assert phi_inv(0.0) == 0.0
    assert np.all(np.abs(back - zs) <= 4e-15 * np.abs(zs))
