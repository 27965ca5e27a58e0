"""Tests for the intrinsic filter update: gain, rho, assimilation, update."""

import dataclasses
import logging
from collections import Counter

import numpy as np
import pytest

from gifilter.errors import IllConditionedGainError, IndefiniteCovarianceError
from gifilter.filter import (
    FilterConfig,
    assimilate,
    filter_step,
    gain,
    pull_back_observation,
    repair_psd,
    rho_build,
    update_estimate,
)
from gifilter.flow import FlowGrid, flow_second_fundamental_form, precompute
from gifilter.geometry import barycenter_correction, flat_connector
from gifilter.harness import (
    ScenarioConfig,
    build_scenario,
    kalman_reference_run,
    transformed_cubic_model,
)
from gifilter.models.cubic1d import Cubic1DParams, cubic1d_build
from gifilter.models.tracking import tracking_connector
from gifilter.observation import map_second_fundamental_form

from helpers import counting, random_obs_point, random_tracking_state
from oracles import (
    cubic1d_analytic_flow,
    dense_flow_form,
    dense_rho_correction,
    geodesic_flow,
    log_map_series,
)


# --- gain ---------------------------------------------------------------------


def test_gain_zero_covariance_gives_zero():
    xi = np.zeros((3, 3))
    g = gain(xi, np.ones((2, 3)), np.eye(2))
    assert np.array_equal(g, np.zeros((3, 2)))


def test_gain_scalar_formula():
    s, b = 0.7, 0.2
    g = gain(np.array([[s]]), np.eye(1), [[b]])
    assert abs(g[0, 0] - s / (s + b)) < 1e-15


def test_gain_defining_identity_tracking_dims():
    rng = np.random.default_rng(41)
    raw = rng.standard_normal((9, 9))
    xi_mat = raw @ raw.T
    jac = rng.standard_normal((5, 9))
    raw_b = rng.standard_normal((5, 5))
    beta = raw_b @ raw_b.T + 0.5 * np.eye(5)
    g = gain(xi_mat, jac, beta)
    residual = g @ (jac @ xi_mat @ jac.T + beta) - xi_mat @ jac.T
    assert np.max(np.abs(residual)) < 1e-10 * max(1.0, float(np.max(np.abs(xi_mat))))


def test_gain_ill_conditioned_raises():
    xi = np.zeros((2, 2))
    beta = np.diag([1.0, 1e-14])
    with pytest.raises(IllConditionedGainError):
        gain(xi, np.eye(2), beta)


# --- rho ----------------------------------------------------------------------


def _update_pieces(model, obs, x0, cov0, grid):
    bundle = precompute(model, x0, cov0, grid)
    x_delta = bundle.x_delta
    jac = obs.dpsi(x_delta)
    ndpsi = map_second_fundamental_form(obs, model.conn, x_delta, jac, obs.psi(x_delta))
    g = gain(bundle.xi_delta, jac, obs.beta(obs.psi(x_delta)))

    def rho(z_hat):
        return rho_build(model, bundle, grid, g, jac, ndpsi, z_hat)

    return bundle, jac, g, ndpsi, rho


def _cubic_pieces(x0=1.0, sigma0=0.01, n_steps=32):
    model, obs = cubic1d_build(Cubic1DParams())
    grid = FlowGrid(1.0, n_steps)
    bundle, jac, g, ndpsi, rho = _update_pieces(model, obs, np.array([x0]),
                                                 np.array([[sigma0]]), grid)
    return model, obs, bundle, grid, jac, g, ndpsi, rho


def test_rho_zero_forms_give_zero(linear_models):
    # a linear drift has no flow form; with a zero observation form the
    # correction vanishes identically
    model, obs = linear_models
    zero_obs = dataclasses.replace(obs, d2psi=lambda x: np.zeros((2, 3, 3)))
    _, _, _, _, rho = _update_pieces(model, zero_obs, np.ones(3), np.eye(3),
                                     FlowGrid(0.05, 8))
    assert np.array_equal(rho(np.array([0.3, -0.2])), np.zeros(3))
    assert np.array_equal(rho(np.zeros(2)), np.zeros(3))


def test_rho_matches_term_by_term_evaluation():
    # rebuild the quadratic term and its mean separately: each bracket is
    # one contraction of the flow and observation forms
    model, obs, bundle, grid, jac, g, ndpsi, rho = _cubic_pieces()
    z = np.array([0.1])
    gz = np.outer(g @ z, g @ z)
    gz_mean = g @ jac @ bundle.xi_delta
    back = bundle.tau_delta_0

    def dphi(sym):
        return flow_second_fundamental_form(model, bundle.x_path, bundle.from_start,
                                            bundle.to_end, grid, back @ sym @ back.T)

    def dpsi(sym):
        return np.einsum("kij,ij->k", ndpsi, sym)

    proj = np.eye(1) - g @ jac
    expected = 0.5 * (proj @ (dphi(gz) - dphi(gz_mean)) - g @ (dpsi(gz) - dpsi(gz_mean)))
    assert np.allclose(rho(z), expected, atol=1e-15)


def _oracle_cases(name, tracking_models):
    if name == "cubic1d":
        model, obs = cubic1d_build(Cubic1DParams())
        return model, obs, np.array([1.0]), np.array([[0.01]]), FlowGrid(1.0, 32)
    if name == "transformed_cubic":
        model, obs = transformed_cubic_model(Cubic1DParams())
        return model, obs, np.array([0.9]), np.array([[0.02]]), FlowGrid(1.0, 32)
    model, obs = tracking_models
    x0 = np.array([9000.0, 2000.0, 3000.0, -200.0, 80.0, 0.0, 0.0, 0.0, 20.0])
    cov0 = np.diag([100.0, 100.0, 100.0, 25.0, 25.0, 25.0, 4.0, 4.0, 4.0])
    return model, obs, x0, cov0, FlowGrid(0.1, 8)


@pytest.mark.parametrize("name", ["cubic1d", "tracking9d", "transformed_cubic"])
def test_rho_matches_the_dense_coefficient_oracle(tracking_models, name):
    # the one contraction against rho(z) - rho_mean from the dense rho
    # coefficients and dense flow form, zero innovation included
    model, obs, x0, cov0, grid = _oracle_cases(name, tracking_models)
    bundle, jac, g, ndpsi, rho = _update_pieces(model, obs, x0, cov0, grid)
    flow_coeffs = dense_flow_form(model, bundle.x_path, bundle.from_start, bundle.to_end, grid)
    rng = np.random.default_rng(48)
    root = np.linalg.cholesky(jac @ bundle.xi_delta @ jac.T
                              + obs.beta(obs.psi(bundle.x_delta)))
    for z_hat in [np.zeros(jac.shape[0])] + [root @ rng.standard_normal(jac.shape[0])
                                             for _ in range(4)]:
        expected = dense_rho_correction(g, jac, flow_coeffs, ndpsi, bundle.tau_delta_0,
                                        bundle.xi_delta, z_hat)
        got = rho(z_hat)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("name", ["cubic1d", "tracking9d", "transformed_cubic"])
def test_rho_is_unbiased_over_innovation_sigma_points(tracking_models, name):
    # the 2q sigma points +-sqrt(q) L e_i of N(0, C), C = J Xi J^T + beta =
    # L L^T, match its first two moments; the correction is linear in the
    # innovation's second moment and centred on its mean, so it averages to 0
    model, obs, x0, cov0, grid = _oracle_cases(name, tracking_models)
    bundle, jac, g, ndpsi, rho = _update_pieces(model, obs, x0, cov0, grid)
    q = jac.shape[0]
    root = np.linalg.cholesky(jac @ bundle.xi_delta @ jac.T
                              + obs.beta(obs.psi(bundle.x_delta)))
    points = np.sqrt(q) * np.concatenate([root.T, -root.T])
    values = np.array([rho(z) for z in points])
    mean_term = rho(np.zeros(q))
    scale = max(np.max(np.abs(values)), np.max(np.abs(mean_term)))
    assert scale > 0.0
    assert np.max(np.abs(values.mean(axis=0))) <= 1e-12 * scale


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
    *_, bundle, grid, jac, g, ndpsi, rho = _cubic_pieces()
    z_hat = np.zeros(1)
    cfg = FilterConfig(delta=1.0)
    mu, sigma = assimilate(bundle, g, jac, z_hat, rho(z_hat), cfg)
    assert np.array_equal(mu, bundle.m_delta)
    no_collar = FilterConfig(delta=1.0, collar_enabled=False)
    mu_free, _ = assimilate(bundle, g, jac, z_hat, rho(z_hat), no_collar)
    assert np.allclose(mu_free, bundle.m_delta + rho(z_hat), atol=1e-18)
    assert rho(z_hat)[0] != 0.0
    expected_cov = (1.0 - (g @ jac)[0, 0]) * bundle.xi_delta[0, 0]
    assert abs(sigma[0, 0] - expected_cov) < 1e-15


def test_assimilate_collar_never_lets_quadratic_dominate():
    *_, bundle, grid, jac, g, ndpsi, rho = _cubic_pieces(x0=0.34, sigma0=0.05)
    cfg = FilterConfig(delta=1.0, collar_enabled=True)
    no_collar = FilterConfig(delta=1.0, collar_enabled=False)
    for z in np.linspace(-3.0, 3.0, 41):
        z_vec = np.array([z])
        mu, _ = assimilate(bundle, g, jac, z_vec, rho(z_vec), cfg)
        linear = g @ z_vec
        quad = mu - bundle.m_delta - linear
        assert np.linalg.norm(quad) <= np.linalg.norm(linear) * (1 + 1e-12)
        mu_free, _ = assimilate(bundle, g, jac, z_vec, rho(z_vec), no_collar)
        quad_free = mu_free - bundle.m_delta - linear
        assert np.allclose(quad_free, rho(z_vec), atol=1e-16)


def test_assimilate_quadratic_disabled_drops_term():
    *_, bundle, grid, jac, g, ndpsi, rho = _cubic_pieces()
    cfg = FilterConfig(delta=1.0, quadratic_enabled=False)
    z_vec = np.array([0.4])
    mu, _ = assimilate(bundle, g, jac, z_vec, None, cfg)
    assert np.allclose(mu, bundle.m_delta + g @ z_vec, atol=1e-16)


def test_assimilate_matches_line_by_line_reimplementation():
    model, obs, bundle, grid, jac, g, ndpsi, rho = _cubic_pieces()
    z_hat = np.array([0.23]) - np.array([0.013])
    cfg = FilterConfig(delta=1.0, collar_enabled=False)
    mu, sigma = assimilate(bundle, g, jac, z_hat, rho(z_hat), cfg)
    # direct transcription of the conditional-moment formulas, with the
    # quadratic term from the dense coefficients
    flow_coeffs = dense_flow_form(model, bundle.x_path, bundle.from_start, bundle.to_end, grid)
    mu_direct = (bundle.m_delta + g @ z_hat
                 + dense_rho_correction(g, jac, flow_coeffs, ndpsi, bundle.tau_delta_0,
                                        bundle.xi_delta, z_hat))
    sigma_direct = (np.eye(1) - g @ jac) @ bundle.xi_delta
    assert np.allclose(mu, mu_direct, atol=1e-16)
    assert np.allclose(sigma, 0.5 * (sigma_direct + sigma_direct.T), atol=1e-16)


# --- state update -----------------------------------------------------------------


def test_update_flat_is_translation():
    x = np.array([0.3, -0.7])
    mu = np.array([0.1, 0.2])
    sigma = np.array([[0.5, 0.1], [0.1, 0.4]])
    mu_hat, sigma_hat = update_estimate(x, mu, sigma, flat_connector(2))
    assert np.allclose(mu_hat, x + mu)
    assert np.array_equal(sigma_hat, sigma)


def test_update_zero_mean_keeps_point():
    conn = tracking_connector()
    rng = np.random.default_rng(43)
    x = random_tracking_state(rng)
    raw = rng.standard_normal((9, 9)) * 0.1
    sigma = raw @ raw.T
    mu_hat, sigma_hat = update_estimate(x, np.zeros(9), sigma, conn)
    assert np.allclose(mu_hat, x)
    assert np.allclose(sigma_hat, sigma)


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
        sigma = smat * scale ** 2
        series_mu, series_sigma = update_estimate(x, mu, sigma, conn)
        v = barycenter_correction(mu, sigma, conn, x)
        endpoint, f11 = geodesic_flow(x, v, conn, steps=64)
        mean_gaps.append(float(np.linalg.norm(series_mu - endpoint)))
        # normalize covariance gap by sigma scale to expose the O(|v|) factor
        gap = np.linalg.norm(series_sigma - f11 @ sigma @ f11.T)
        cov_gaps.append(float(gap) / scale ** 2)
    assert 12.0 <= mean_gaps[0] / mean_gaps[1] <= 20.0
    assert 1.5 <= cov_gaps[0] / cov_gaps[1] <= 3.0


def test_update_covariance_matches_column_loop():
    # the derivative of the series exponential map, one column at a time
    conn = tracking_connector()
    rng = np.random.default_rng(48)
    x = random_tracking_state(rng)
    raw = rng.standard_normal((9, 9)) * 0.1
    sigma = raw @ raw.T
    mu = rng.standard_normal(9) * 0.05
    _, sigma_hat = update_estimate(x, mu, sigma, conn)
    v = barycenter_correction(mu, sigma, conn, x)
    basis = np.eye(9)
    fmat = np.eye(9)
    for col in range(9):
        fmat[:, col] -= conn.gamma(x, v, basis[col])
    expected = fmat @ sigma @ fmat.T
    expected = 0.5 * (expected + expected.T)
    assert np.max(np.abs(sigma_hat - expected)) <= 1e-12 * np.max(np.abs(expected))


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
    mu, sigma = mu0, p0
    for k in range(5):
        mu, sigma = filter_step(model, obs, (mu, sigma), observations[k], cfg)
        assert np.max(np.abs(mu - ref_means[k])) < 1e-8 * max(
            1.0, float(np.max(np.abs(ref_means[k]))))
        assert np.max(np.abs(sigma - ref_covs[k])) < 1e-8 * float(
            np.max(np.abs(ref_covs[k])))


def test_filter_step_zero_noise_limit_tracks_flow():
    params = Cubic1DParams(alpha=0.01 * 1e-12, beta=0.001 * 1e-12)
    model, obs = cubic1d_build(params)
    cfg = FilterConfig(delta=1.0, n_substeps=64)
    x = 1.0
    mu, sigma = np.array([x]), np.array([[0.0]])
    for n in range(1, 6):
        truth = cubic1d_analytic_flow(1.0, float(n))
        y = np.array([obs.psi(np.array([truth]))[0]])
        mu, sigma = filter_step(model, obs, (mu, sigma), y, cfg)
        assert abs(mu[0] - truth) < 1e-6


def test_filter_step_fixture_reproducible(cubic_models):
    model, obs = cubic_models
    cfg = FilterConfig(delta=1.0, n_substeps=8)
    est = (np.array([1.0]), np.array([[0.01]]))
    y = np.array([0.55])
    first = filter_step(model, obs, est, y, cfg)
    second = filter_step(model, obs, est, y, cfg)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_filter_step_evaluates_observation_jacobians_once():
    # tracking9d: both connectors curved, so every observation-side term runs
    scenario = build_scenario(ScenarioConfig(model="tracking9d", n_obs=1, delta=0.1))
    calls = Counter()
    plain = scenario.observation_at(0.1)
    obs = counting(plain, ("psi", "dpsi", "d2psi"), calls)
    mu0 = scenario.mu0
    filter_step(scenario.diffusion, obs, (mu0, scenario.sigma0), plain.psi(mu0),
                FilterConfig(delta=0.1))
    assert calls == {"psi": 1, "dpsi": 1, "d2psi": 1}


@pytest.mark.parametrize("quadratic", [True, False])
def test_filter_step_contracts_d2xi_once_per_substep_and_path_term(quadratic):
    # one call per Taylor step, none when tracking9d's own Taylor loop runs
    # the steps, one for the state location correction, and one for the
    # flow form of the quadratic term unless it is disabled
    scenario = build_scenario(ScenarioConfig(model="tracking9d", n_obs=1, delta=0.1))
    obs = scenario.observation_at(0.1)
    mu0 = scenario.mu0
    cfg = FilterConfig(delta=0.1, n_substeps=8, quadratic_enabled=quadratic)
    for loop, steps in ((scenario.diffusion.taylor_loop, 0), (None, cfg.n_substeps)):
        calls = Counter()
        model = counting(dataclasses.replace(scenario.diffusion, taylor_loop=loop),
                         ("d2xi_contract",), calls)
        filter_step(model, obs, (mu0, scenario.sigma0), obs.psi(mu0), cfg)
        assert calls == {"d2xi_contract": steps + (2 if quadratic else 1)}


def test_filter_step_covariance_stays_psd(cubic_models):
    model, obs = cubic_models
    cfg = FilterConfig(delta=1.0, n_substeps=8)
    rng = np.random.default_rng(46)
    est = (np.array([0.3]), np.array([[0.01]]))
    for k in range(50):
        y = np.array([rng.uniform(-1.6, 1.6)])
        est = filter_step(model, obs, est, y, cfg)
        _, sigma = est
        assert sigma[0, 0] >= 0.0


def test_gain_identity_holds_along_benchmark_run(cubic_models):
    # re-derive the gain at every step of a stochastic run and check the
    # defining identity G (J Xi J^T + beta) = Xi J^T each time
    from gifilter.flow import precompute as _precompute

    model, obs = cubic_models
    cfg = FilterConfig(delta=1.0, n_substeps=8)
    rng = np.random.default_rng(47)
    est = (np.array([0.3]), np.array([[0.01]]))
    for k in range(200):
        bundle = _precompute(model, *est, cfg.grid())
        jac = obs.dpsi(bundle.x_delta)
        beta = obs.beta(obs.psi(bundle.x_delta))
        g = gain(bundle.xi_delta, jac, beta)
        resid = g @ (jac @ bundle.xi_delta @ jac.T + beta) - bundle.xi_delta @ jac.T
        assert np.max(np.abs(resid)) < 1e-10
        y = np.array([rng.uniform(-1.6, 1.6)])
        est = filter_step(model, obs, est, y, cfg)


def test_repair_psd_clips_negative_eigenvalues(caplog):
    # an eigenvalue below zero by rounding, here -1e-14 times the largest
    # entry, is clipped; one below -SYMMETRY_RTOL times it means the update
    # failed, as does any negative 1x1 entry, and raises
    with caplog.at_level(logging.DEBUG, logger="gifilter.filter"):
        fixed = repair_psd(np.array([[1.0, 0.0], [0.0, -1e-14]]))
        for psd in (np.eye(2), np.array([[3.0]]), np.zeros((1, 1))):
            assert repair_psd(psd) is psd
        # [[-inf]] pins the 1x1 rule: eigh gives it the eigenvalue -inf and the
        # general floor -SYMMETRY_RTOL * max|mat| is -inf, so that rule would clip it
        for mat in ([[1.0, 0.0], [0.0, -0.5]], [[1.0, 0.0], [0.0, -2e-12]], [[-2.0]],
                    [[-np.inf]]):
            with pytest.raises(IndefiniteCovarianceError, match="indefinite, has eigenvalue"):
                repair_psd(np.array(mat))
    assert np.linalg.eigvalsh(fixed)[0] >= 0.0
    assert np.array_equal(fixed, [[1.0, 0.0], [0.0, 0.0]])
    assert [r.getMessage() for r in caplog.records] == [
        "covariance eigenvalue floor applied (min eig -1.000e-14)",
    ]


@pytest.mark.parametrize("mat", [[[np.nan]], [[np.nan, 0.0], [0.0, 1.0]],
                                 [[1.0, np.nan], [np.nan, 1.0]]],
                         ids=["1x1", "2x2-diagonal", "2x2-off-diagonal"])
def test_repair_psd_passes_a_nan_through_uncounted(mat, caplog):
    # a NaN eigenvalue is not negative: the matrix reaches the caller's check
    # of the estimate unrepaired, and nothing is raised or logged
    with caplog.at_level(logging.DEBUG, logger="gifilter.filter"):
        out = repair_psd(np.array(mat))
    assert np.array_equal(out, mat, equal_nan=True)
    assert caplog.records == []


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(delta=0.0)
    with pytest.raises(ValueError):
        FilterConfig(delta=1.0, n_substeps=0)
    # the config's grid is its one check: a fraction used to construct and
    # fail at the first step, and True to run one substep; the cached grid
    # of 1 must not stand in for True
    FilterConfig(delta=1.0, n_substeps=1).grid()
    for n_substeps in (True, 2.5):
        with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
            FilterConfig(delta=1.0, n_substeps=n_substeps)
