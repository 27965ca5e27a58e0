"""Tests for the one-dimensional cubic benchmark model."""

import numpy as np
import pytest

from gifilter.filter import FilterConfig, filter_step, gain, rho_build
from gifilter.flow import FlowGrid, flow_second_fundamental_form, integrate_flow, precompute
from gifilter.models.cubic1d import Cubic1DParams
from gifilter.observation import map_second_fundamental_form

from oracles import cubic1d_analytic_ailp, cubic1d_analytic_flow


def test_params_validation():
    with pytest.raises(ValueError):
        Cubic1DParams(p_crit=0.0)
    with pytest.raises(ValueError):
        Cubic1DParams(alpha=-1.0)


def test_drift_and_observation_values(cubic_models, cubic_params):
    model, obs = cubic_models
    assert model.xi(np.array([1.0]))[0] == -0.5
    # observation map has critical points at +- sqrt(p_crit)
    crit = np.sqrt(cubic_params.p_crit)
    assert abs(obs.dpsi(np.array([crit]))[0, 0]) < 1e-15
    assert abs(obs.dpsi(np.array([-crit]))[0, 0]) < 1e-15
    assert abs(obs.dpsi(np.array([0.0]))[0, 0] - 1.0 / cubic_params.p_crit) < 1e-12


def test_connectors_identically_zero(cubic_models):
    model, obs = cubic_models
    assert model.conn.flat
    assert obs.conn_obs.flat
    rng = np.random.default_rng(61)
    for _ in range(100):
        x = rng.standard_normal(1)
        u = rng.standard_normal(1)
        assert np.array_equal(model.conn.gamma(x, u, u), np.zeros(1))


def test_analytic_flow_values():
    assert cubic1d_analytic_flow(0.0, 5.0) == 0.0
    assert cubic1d_analytic_flow(1.0, 3.0) == 0.5
    with pytest.raises(ValueError):
        cubic1d_analytic_flow(1.0, -2.0)


def test_analytic_flow_cross_checks_integrator(cubic_models):
    model, _ = cubic_models
    for x0 in (0.3, 1.0, -0.8):
        path, _ = integrate_flow(model, np.array([x0]), FlowGrid(1.0, 256))
        assert abs(path[-1][0] - cubic1d_analytic_flow(x0, 1.0)) < 1e-8


def test_analytic_ailp_odd_symmetry():
    for x0 in (0.5, 1.0, 1.7):
        plus = cubic1d_analytic_ailp(x0, 0.02, 0.01, 1.0)
        minus = cubic1d_analytic_ailp(-x0, 0.02, 0.01, 1.0)
        assert plus == pytest.approx(-minus, rel=1e-14)


def test_analytic_ailp_vanishing_noise_limit():
    assert cubic1d_analytic_ailp(1.0, 0.0, 0.0, 1.0) == 0.0


def test_analytic_ailp_rejects_origin():
    with pytest.raises(ValueError):
        cubic1d_analytic_ailp(0.0, 0.01, 0.01, 1.0)


def test_analytic_ailp_matches_numeric_on_grid(cubic_models):
    model, _ = cubic_models
    grid = FlowGrid(1.0, 128)
    for x0 in (0.6, 0.8, 1.0, 1.2, 1.4):
        for sigma0 in (0.005, 0.02):
            start = np.array([x0])
            bundle = precompute(model, start, np.array([[sigma0]]), grid)
            expected = cubic1d_analytic_ailp(x0, sigma0, 0.01, 1.0)
            assert abs(bundle.m_delta[0] - expected) / abs(expected) < 1e-4


def test_flat_specialization_keeps_corrections_alive(cubic_models):
    # zero connectors do not kill the location corrections or the quadratic
    # term: with sigma0 > 0 all of them must be nonzero on this fixture
    model, obs = cubic_models
    x0 = np.array([1.0])
    grid = FlowGrid(1.0, 32)
    bundle = precompute(model, x0, np.array([[0.01]]), grid)
    assert bundle.m_delta[0] != 0.0
    one = np.ones((1, 1))
    assert flow_second_fundamental_form(model, bundle.x_path, bundle.from_start, bundle.to_end,
                                        grid, one)[0] != 0.0
    jac = obs.dpsi(bundle.x_delta)
    g = gain(bundle.xi_delta, jac, obs.beta(obs.psi(bundle.x_delta)))
    ndpsi = map_second_fundamental_form(obs, model.conn, bundle.x_delta, jac,
                                        obs.psi(bundle.x_delta))
    # the correction at zero innovation is minus its mean; at 0.1 it is not
    # the mean's negative, so the quadratic part is alive too
    at_zero = rho_build(model, bundle, grid, g, jac, ndpsi, np.zeros(1))
    at_point = rho_build(model, bundle, grid, g, jac, ndpsi, np.array([0.1]))
    assert at_zero[0] != 0.0
    assert at_point[0] != at_zero[0]


def test_filter_step_runs_on_benchmark_params(cubic_models):
    model, obs = cubic_models
    cfg = FilterConfig(delta=1.0, n_substeps=8)
    mu, sigma = filter_step(model, obs, (np.array([0.3]), np.array([[0.01]])),
                            np.array([0.4]), cfg)
    assert np.isfinite(mu[0])
    assert sigma[0, 0] > 0.0
