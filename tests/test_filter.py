"""Tests for the intrinsic filter update: gain, rho, assimilation, update."""

from collections import Counter

import numpy as np
import pytest

from gifilter.errors import IllConditionedGainError
from gifilter.filter import (
    FilterConfig,
    FilterDiagnostics,
    StateEstimate,
    assimilate,
    filter_step,
    gain,
    pull_back_observation,
    repair_psd,
    rho_build,
    update_estimate,
)
from gifilter.flow import FlowGrid, precompute
from gifilter.geometry import (
    Bilinear3,
    SymTensor2,
    barycenter_correction,
    flat_connector,
)
from gifilter.harness import ScenarioConfig, build_scenario, kalman_reference_run
from gifilter.models.cubic1d import Cubic1DParams, cubic1d_build
from gifilter.models.tracking import tracking_connector
from gifilter.observation import ObservationEvent, map_second_fundamental_form

from conftest import counting, random_obs_point, random_tracking_state
from oracles import cubic1d_analytic_flow, geodesic_flow, log_map_series


# --- gain ---------------------------------------------------------------------


def test_gain_zero_covariance_gives_zero():
    xi = SymTensor2(np.zeros(3), np.zeros((3, 3)))
    g = gain(xi, np.ones((2, 3)), np.eye(2))
    assert np.array_equal(g, np.zeros((3, 2)))


def test_gain_scalar_formula():
    s, b = 0.7, 0.2
    g = gain(SymTensor2(np.zeros(1), [[s]]), np.eye(1), [[b]])
    assert abs(g[0, 0] - s / (s + b)) < 1e-15


def test_gain_defining_identity_tracking_dims():
    rng = np.random.default_rng(41)
    raw = rng.standard_normal((9, 9))
    xi_mat = raw @ raw.T
    jac = rng.standard_normal((5, 9))
    raw_b = rng.standard_normal((5, 5))
    beta = raw_b @ raw_b.T + 0.5 * np.eye(5)
    g = gain(SymTensor2(np.zeros(9), xi_mat), jac, beta)
    residual = g @ (jac @ xi_mat @ jac.T + beta) - xi_mat @ jac.T
    assert np.max(np.abs(residual)) < 1e-10 * max(1.0, float(np.max(np.abs(xi_mat))))


def test_gain_ill_conditioned_raises():
    xi = SymTensor2(np.zeros(2), np.zeros((2, 2)))
    beta = np.diag([1.0, 1e-14])
    with pytest.raises(IllConditionedGainError):
        gain(xi, np.eye(2), beta)


# --- rho ----------------------------------------------------------------------


def _cubic_pieces(x0=1.0, sigma0=0.01, n_steps=32):
    params = Cubic1DParams()
    model, obs = cubic1d_build(params)
    start = np.array([x0])
    bundle = precompute(model, start, SymTensor2(start, [[sigma0]]), FlowGrid(1.0, n_steps))
    x_delta = bundle.x_delta
    jac = obs.dpsi(x_delta)
    ndpsi = map_second_fundamental_form(obs, model.conn, x_delta, jac, obs.psi(x_delta))
    g = gain(bundle.xi_delta, jac, obs.beta(obs.psi(x_delta)))
    gr = rho_build(g, jac, bundle.nabla_dphi, ndpsi, bundle.tau_delta_0, bundle.xi_delta)
    return params, model, obs, bundle, jac, g, gr


def test_rho_zero_forms_give_zero():
    zero_form = Bilinear3(np.zeros((2, 2, 2)))
    zero_obs_form = Bilinear3(np.zeros((1, 2, 2)))
    g = np.ones((2, 1))
    gr = rho_build(g, np.ones((1, 2)), zero_form, zero_obs_form, np.eye(2),
                   SymTensor2(np.zeros(2), np.eye(2)))
    assert np.array_equal(gr.rho_coeffs.coeffs, np.zeros((2, 1, 1)))
    assert np.array_equal(gr.rho_mean, np.zeros(2))
    assert np.array_equal(gr.rho(np.array([0.3])), np.zeros(2))


def test_rho_vanishes_at_zero_innovation():
    *_, gr = _cubic_pieces()
    assert np.array_equal(gr.rho(np.zeros(1)), np.zeros(1))


def test_rho_matches_term_by_term_evaluation():
    # rebuild the two bracket terms of the quadratic correction directly
    _, model, obs, bundle, jac, g, gr = _cubic_pieces()
    z = np.array([0.1])
    gz = g @ z
    back = bundle.tau_delta_0 @ gz
    ndpsi = map_second_fundamental_form(obs, model.conn, bundle.x_delta, jac,
                                        obs.psi(bundle.x_delta))
    proj = np.eye(1) - g @ jac
    expected = 0.5 * (proj @ bundle.nabla_dphi(back, back) - g @ ndpsi(gz, gz))
    assert np.allclose(gr.rho(z), expected, atol=1e-15)


def test_rho_mean_consistent_with_innovation_second_moment():
    # E[rho(Z (x) Z)] can also be computed by contracting the coefficients
    # with Var(Z) = J Xi J^T + beta; both routes must agree
    _, model, obs, bundle, jac, g, gr = _cubic_pieces()
    var_z = jac @ bundle.xi_delta.mat @ jac.T + obs.beta(obs.psi(bundle.x_delta))
    contracted = np.einsum("kab,ab->k", gr.rho_coeffs.coeffs, var_z)
    assert np.allclose(gr.rho_mean, contracted, rtol=1e-10, atol=1e-18)


# --- pull-back of the observation ----------------------------------------------


def test_pull_back_at_prediction_is_zero():
    conn = flat_connector(2)
    y = np.array([0.4, -0.2])
    assert np.array_equal(pull_back_observation(y, y, conn), np.zeros(2))


def test_pull_back_flat_is_difference():
    conn = flat_connector(2)
    y = np.array([0.4, -0.2])
    z = np.array([0.5, 0.1])
    assert np.allclose(pull_back_observation(y, z, conn), z - y)


def test_pull_back_matches_log_series_to_cubic_order(tracking_params):
    from gifilter.models.tracking import observation_connector

    conn = observation_connector(tracking_params)
    rng = np.random.default_rng(42)
    y = random_obs_point(rng)
    direction = rng.standard_normal(5)
    direction /= np.linalg.norm(direction)
    gaps = []
    for scale in (0.02, 0.01):
        target = y + scale * direction
        quadratic = pull_back_observation(y, target, conn)
        series = log_map_series(y, target, conn)
        gaps.append(float(np.linalg.norm(quadratic - series)))
    assert gaps[0] / gaps[1] >= 6.0


# --- assimilation ----------------------------------------------------------------


def test_assimilate_zero_innovation_flat():
    # with the collar active, a vanishing linear term clamps the leftover
    # quadratic mean correction to zero, so mu reduces to m_delta exactly
    _, model, obs, bundle, jac, g, gr = _cubic_pieces()
    obs_ailp = np.array([0.05])
    cfg = FilterConfig(delta=1.0)
    mu, sigma = assimilate(bundle, obs_ailp, gr, obs_ailp.copy(), cfg)
    assert np.array_equal(mu, bundle.m_delta)
    no_collar = FilterConfig(delta=1.0, collar_enabled=False)
    mu_free, _ = assimilate(bundle, obs_ailp, gr, obs_ailp.copy(), no_collar)
    assert np.allclose(mu_free, bundle.m_delta - gr.rho_mean, atol=1e-18)
    expected_cov = (1.0 - (g @ jac)[0, 0]) * bundle.xi_delta.mat[0, 0]
    assert abs(sigma.mat[0, 0] - expected_cov) < 1e-15
    assert np.array_equal(sigma.base, bundle.x_delta)


def test_assimilate_collar_never_lets_quadratic_dominate():
    _, model, obs, bundle, jac, g, gr = _cubic_pieces(x0=0.34, sigma0=0.05)
    cfg = FilterConfig(delta=1.0, collar_enabled=True)
    no_collar = FilterConfig(delta=1.0, collar_enabled=False)
    obs_ailp = np.zeros(1)
    for z in np.linspace(-3.0, 3.0, 41):
        z_vec = np.array([z])
        mu, _ = assimilate(bundle, obs_ailp, gr, z_vec, cfg)
        linear = g @ z_vec
        quad = mu - bundle.m_delta - linear
        assert np.linalg.norm(quad) <= np.linalg.norm(linear) * (1 + 1e-12)
        mu_free, _ = assimilate(bundle, obs_ailp, gr, z_vec, no_collar)
        quad_free = mu_free - bundle.m_delta - linear
        raw = gr.rho(z_vec) - gr.rho_mean
        assert np.allclose(quad_free, raw, atol=1e-16)


def test_assimilate_quadratic_disabled_drops_term():
    _, model, obs, bundle, jac, g, gr = _cubic_pieces()
    cfg = FilterConfig(delta=1.0, quadratic_enabled=False)
    z_vec = np.array([0.4])
    mu, _ = assimilate(bundle, np.zeros(1), gr, z_vec, cfg)
    assert np.allclose(mu, bundle.m_delta + g @ z_vec, atol=1e-16)


def test_assimilate_matches_line_by_line_reimplementation():
    _, model, obs, bundle, jac, g, gr = _cubic_pieces()
    z_delta = np.array([0.23])
    obs_ailp = np.array([0.013])
    cfg = FilterConfig(delta=1.0, collar_enabled=False)
    mu, sigma = assimilate(bundle, obs_ailp, gr, z_delta, cfg)
    # direct transcription of the conditional-moment formulas
    z_hat = z_delta - obs_ailp
    mu_direct = (bundle.m_delta + g @ z_hat
                 + np.einsum("kab,a,b->k", gr.rho_coeffs.coeffs, z_hat, z_hat)
                 - gr.rho_mean)
    sigma_direct = (np.eye(1) - g @ jac) @ bundle.xi_delta.mat
    assert np.allclose(mu, mu_direct, atol=1e-16)
    assert np.allclose(sigma.mat, 0.5 * (sigma_direct + sigma_direct.T), atol=1e-16)


# --- state update -----------------------------------------------------------------


def test_update_flat_is_translation():
    x = np.array([0.3, -0.7])
    mu = np.array([0.1, 0.2])
    sigma = SymTensor2(x, np.array([[0.5, 0.1], [0.1, 0.4]]))
    est = update_estimate(x, mu, sigma, flat_connector(2))
    assert np.allclose(est.mu_hat, x + mu)
    assert np.array_equal(est.sigma_hat.mat, sigma.mat)


def test_update_zero_mean_keeps_point():
    conn = tracking_connector()
    rng = np.random.default_rng(43)
    x = random_tracking_state(rng)
    raw = rng.standard_normal((9, 9)) * 0.1
    sigma = SymTensor2(x, raw @ raw.T)
    est = update_estimate(x, np.zeros(9), sigma, conn)
    assert np.allclose(est.mu_hat, x)
    assert np.allclose(est.sigma_hat.mat, sigma.mat)


def test_update_matches_geodesic_oracle_scaling():
    conn = tracking_connector()
    rng = np.random.default_rng(44)
    x = random_tracking_state(rng)
    raw = rng.standard_normal((9, 9)) * 0.05
    smat = raw @ raw.T
    direction = rng.standard_normal(9)
    direction /= np.linalg.norm(direction)

    mean_gaps = []
    cov_gaps = []
    for scale in (0.04, 0.02):
        mu = scale * direction
        sigma = SymTensor2(x, smat * scale ** 2)
        series = update_estimate(x, mu, sigma, conn)
        v = barycenter_correction(mu, sigma, conn, x)
        endpoint, f11 = geodesic_flow(x, v, conn, steps=64)
        mean_gaps.append(float(np.linalg.norm(series.mu_hat - endpoint)))
        # normalize covariance gap by sigma scale to expose the O(|v|) factor
        gap = np.linalg.norm(series.sigma_hat.mat - f11 @ sigma.mat @ f11.T)
        cov_gaps.append(float(gap) / scale ** 2)
    assert 12.0 <= mean_gaps[0] / mean_gaps[1] <= 20.0
    assert 1.5 <= cov_gaps[0] / cov_gaps[1] <= 3.0


def test_update_covariance_matches_column_loop():
    # the derivative of the series exponential map, one column at a time
    conn = tracking_connector()
    rng = np.random.default_rng(48)
    x = random_tracking_state(rng)
    raw = rng.standard_normal((9, 9)) * 0.1
    sigma = SymTensor2(x, raw @ raw.T)
    mu = rng.standard_normal(9) * 0.05
    est = update_estimate(x, mu, sigma, conn)
    v = barycenter_correction(mu, sigma, conn, x)
    basis = np.eye(9)
    fmat = np.eye(9)
    for col in range(9):
        fmat[:, col] -= conn.gamma(x, v, basis[col])
    expected = fmat @ sigma.mat @ fmat.T
    expected = 0.5 * (expected + expected.T)
    assert np.max(np.abs(est.sigma_hat.mat - expected)) <= 1e-12 * np.max(np.abs(expected))


# --- full filter step ---------------------------------------------------------------


def test_filter_step_equals_kalman_on_linear_model(linear_params, linear_models):
    model, obs = linear_models
    rng = np.random.default_rng(45)
    delta, nsub = 0.01, 96
    mu0 = rng.standard_normal(3)
    p0 = 0.4 * np.eye(3)
    observations = rng.standard_normal((5, 2))
    ref_means, ref_covs = kalman_reference_run(linear_params, mu0, p0, observations, delta)
    cfg = FilterConfig(delta=delta, n_substeps=nsub)
    est = StateEstimate(mu0, SymTensor2(mu0, p0))
    for k in range(5):
        est = filter_step(model, obs, est, ObservationEvent(time=0.0, y=observations[k]), cfg)
        assert np.max(np.abs(est.mu_hat - ref_means[k])) < 1e-8 * max(
            1.0, float(np.max(np.abs(ref_means[k]))))
        assert np.max(np.abs(est.sigma_hat.mat - ref_covs[k])) < 1e-8 * float(
            np.max(np.abs(ref_covs[k])))


def test_filter_step_zero_noise_limit_tracks_flow():
    params = Cubic1DParams(alpha=0.01 * 1e-12, beta=0.001 * 1e-12)
    model, obs = cubic1d_build(params)
    cfg = FilterConfig(delta=1.0, n_substeps=64)
    x = 1.0
    est = StateEstimate(np.array([x]), SymTensor2(np.array([x]), [[0.0]]))
    for n in range(1, 6):
        truth = cubic1d_analytic_flow(1.0, float(n))
        event = ObservationEvent(time=float(n), y=np.array([obs.psi(np.array([truth]))[0]]))
        est = filter_step(model, obs, est, event, cfg)
        assert abs(est.mu_hat[0] - truth) < 1e-6


def test_filter_step_fixture_reproducible(cubic_models):
    model, obs = cubic_models
    cfg = FilterConfig(delta=1.0, n_substeps=8)
    est = StateEstimate(np.array([1.0]), SymTensor2(np.array([1.0]), [[0.01]]))
    event = ObservationEvent(time=1.0, y=np.array([0.55]))
    first = filter_step(model, obs, est, event, cfg)
    second = filter_step(model, obs, est, event, cfg)
    assert np.array_equal(first.mu_hat, second.mu_hat)
    assert np.array_equal(first.sigma_hat.mat, second.sigma_hat.mat)


def test_filter_step_evaluates_observation_jacobians_once():
    # tracking9d: both connectors curved, so every observation-side term runs
    scenario = build_scenario(ScenarioConfig(model="tracking9d", n_obs=1, delta=0.1))
    calls = Counter()
    plain = scenario.observation_at(0.1)
    obs = counting(plain, ("psi", "dpsi", "d2psi"), calls)
    mu0 = scenario.mu0
    est = StateEstimate(mu0, SymTensor2(mu0, scenario.sigma0))
    event = ObservationEvent(time=0.1, y=plain.psi(mu0))
    filter_step(scenario.diffusion, obs, est, event, FilterConfig(delta=0.1))
    assert calls == {"psi": 1, "dpsi": 1, "d2psi": 1}


def test_filter_step_covariance_stays_psd(cubic_models):
    model, obs = cubic_models
    cfg = FilterConfig(delta=1.0, n_substeps=8)
    diag = FilterDiagnostics()
    rng = np.random.default_rng(46)
    est = StateEstimate(np.array([0.3]), SymTensor2(np.array([0.3]), [[0.01]]))
    for k in range(50):
        y = np.array([rng.uniform(-1.6, 1.6)])
        est = filter_step(model, obs, est, ObservationEvent(time=float(k), y=y), cfg,
                          diag=diag)
        assert est.sigma_hat.mat[0, 0] >= 0.0


def test_gain_identity_holds_along_benchmark_run(cubic_models):
    # re-derive the gain at every step of a stochastic run and check the
    # defining identity G (J Xi J^T + beta) = Xi J^T each time
    from gifilter.flow import precompute as _precompute

    model, obs = cubic_models
    cfg = FilterConfig(delta=1.0, n_substeps=8)
    rng = np.random.default_rng(47)
    est = StateEstimate(np.array([0.3]), SymTensor2(np.array([0.3]), [[0.01]]))
    for k in range(200):
        bundle = _precompute(model, est.mu_hat, est.sigma_hat, cfg.grid())
        jac = obs.dpsi(bundle.x_delta)
        beta = obs.beta(obs.psi(bundle.x_delta))
        g = gain(bundle.xi_delta, jac, beta)
        resid = g @ (jac @ bundle.xi_delta.mat @ jac.T + beta) - bundle.xi_delta.mat @ jac.T
        assert np.max(np.abs(resid)) < 1e-10
        y = np.array([rng.uniform(-1.6, 1.6)])
        est = filter_step(model, obs, est, ObservationEvent(time=float(k), y=y), cfg)


def test_repair_psd_clips_negative_eigenvalues():
    mat = np.array([[1.0, 0.0], [0.0, -0.5]])
    fixed, min_eig = repair_psd(mat)
    assert min_eig == -0.5
    assert np.linalg.eigvalsh(fixed)[0] >= 0.0
    clean, flag = repair_psd(np.eye(2))
    assert flag == 0.0
    scalar, neg = repair_psd(np.array([[-2.0]]))
    assert scalar[0, 0] == 0.0 and neg == -2.0


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(delta=0.0)
    with pytest.raises(ValueError):
        FilterConfig(delta=1.0, n_substeps=0)
    with pytest.raises(ValueError):
        StateEstimate(np.array([np.inf]), SymTensor2(np.array([0.0]), [[1.0]]))
