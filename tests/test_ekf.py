"""Tests for the continuous-discrete EKF baseline."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from gifilter.ekf import ekf_predict, ekf_step, ekf_update
from gifilter.errors import IllConditionedGainError
from gifilter.filter import repair_psd
from gifilter.geometry import flat_connector, symmetric_condition, symmetrize
from gifilter.flow import DiffusionModel
from gifilter.harness import kalman_reference_run, van_loan_discretization
from gifilter.observation import ObservationModel, wrap_angles

from helpers import (
    assert_broadcasts_over_points,
    collapsing_model,
    counting,
    random_obs_point,
    random_tracking_state,
    without_taylor_loops,
)
from oracles import cubic1d_analytic_flow


def test_predict_linear_matches_exact_kalman(linear_params, linear_models):
    model, _ = linear_models
    rng = np.random.default_rng(51)
    delta = 0.05
    m0 = rng.standard_normal(3)
    p0 = 0.4 * np.eye(3)
    mean, cov = ekf_predict(model, (m0, p0), delta, n_substeps=128)
    fmat, qd = van_loan_discretization(
        linear_params.a_mat, linear_params.sigma_mat @ linear_params.sigma_mat.T, delta)
    assert np.max(np.abs(mean - fmat @ m0)) < 1e-8
    assert np.max(np.abs(cov - (fmat @ p0 @ fmat.T + qd))) < 1e-8


def test_predict_no_noise_no_drift_is_identity():
    def zero_contract(x, chi):
        return np.zeros(np.broadcast_shapes(x.shape, chi.shape[:-1]))

    model = DiffusionModel(
        dim=2,
        xi=lambda x: np.zeros(2),
        dxi=lambda x: np.zeros((2, 2)),
        d2xi_contract=zero_contract,
        alpha=lambda x: np.zeros(x.shape[:-1] + (2, 2)),
        conn=flat_connector(2),
        drift_b=lambda x: np.zeros(2),
        ddrift_b=lambda x: np.zeros((2, 2)),
        d2drift_b_contract=zero_contract,
    )
    rng = np.random.default_rng(56)
    assert_broadcasts_over_points(model, rng.standard_normal((4, 2)), rng)
    m0 = np.array([1.0, -2.0])
    p0 = np.diag([0.3, 0.6])
    mean, cov = ekf_predict(model, (m0, p0), 1.0, 8)
    assert np.array_equal(mean, m0)
    assert np.array_equal(cov, p0)


def test_predict_cubic_mean_matches_closed_form(cubic_models):
    model, _ = cubic_models
    m0 = np.array([1.0])
    mean, _ = ekf_predict(model, (m0, np.array([[0.01]])), 1.0, 64)
    assert abs(mean[0] - cubic1d_analytic_flow(1.0, 1.0)) < 1e-6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2], ids=["1x1", "2x2"])
def test_predict_through_an_overflowing_jacobian_sum_is_silent(dim):
    # -1e308 + -1e308 is past the float range; the per-step maps underflow
    # to 0 and collapse the covariance onto the mean, which b = 0 leaves at
    # its start, with no numpy overflow warning on the way
    mean, cov = ekf_predict(collapsing_model(dim, slope=-1e308),
                            (np.ones(dim), np.eye(dim)), 1.0, 8)
    assert np.array_equal(mean, np.ones(dim))
    assert np.array_equal(cov, np.zeros((dim, dim)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2], ids=["1x1", "2x2"])
def test_predict_through_an_expanding_jacobian_is_silent(dim):
    # Db = +1e4 I overflows the per-step exponential: the covariance comes
    # back non-finite for the caller's check, with no numpy warning, as the
    # GIF's precompute ends in IllConditionedFlowError
    mean, cov = ekf_predict(collapsing_model(dim, slope=1e4),
                            (np.ones(dim), np.eye(dim)), 1.0, 8)
    assert np.array_equal(mean, np.ones(dim))
    assert not np.isfinite(cov).all()


def test_predict_requires_drift_derivatives(cubic_models):
    model, _ = cubic_models
    m0 = np.array([0.8])
    for missing in ("ddrift_b", "d2drift_b_contract"):
        bare = dataclasses.replace(model, **{missing: None})
        with pytest.raises(ValueError, match=missing):
            ekf_predict(bare, (m0, np.array([[0.02]])), 1.0, 64)


@pytest.fixture(scope="module")
def predict_cases(cubic_models, linear_models, tracking_models):
    """(model, mean, covariance, delta) per shipped model."""
    rng = np.random.default_rng(55)
    raw = rng.standard_normal((3, 3))
    tracking_mean = np.array([9000.0, 2000.0, 3000.0, -200.0, 80.0, 0.0, 0.0, 0.0, 20.0])
    tracking_cov = np.diag([100.0, 100.0, 100.0, 25.0, 25.0, 25.0, 4.0, 4.0, 4.0])
    return {
        "cubic1d": (cubic_models[0], np.array([0.8]), np.array([[0.02]]), 1.0),
        "linear": (linear_models[0], rng.standard_normal(3), raw @ raw.T, 0.05),
        "tracking9d": (tracking_models[0], tracking_mean, tracking_cov, 0.1),
    }


def _expm(m):
    return np.exp(m) if m.shape == (1, 1) else scipy.linalg.expm(m)


def _loop_predict(model, mean, cov, delta, n_substeps):
    # the EKF's own propagation loop on b, from before it shared the flow
    # module's routines: the bit-for-bit reference for ekf_predict on the
    # array steps; b's callbacks are the b model's xi, dxi and d2xi_contract
    b_model = model.drift_b_model
    h = delta / n_substeps
    m = np.array(mean, dtype=float)
    cov = symmetrize(np.array(cov, dtype=float))
    a_prev = np.asarray(b_model.dxi(m), dtype=float)
    alpha_prev = model.alpha(m)
    for _ in range(n_substeps):
        b = b_model.xi(m)
        ab = a_prev @ b
        m_next = m + h * b + 0.5 * h * h * ab
        third = b_model.d2xi_contract(m, np.outer(b, b)) + a_prev @ ab
        m_next = m_next + (h ** 3 / 6.0) * third
        a_next = np.asarray(b_model.dxi(m_next), dtype=float)
        alpha_next = model.alpha(m_next)
        tau = _expm(0.5 * h * (a_prev + a_next))
        cov = symmetrize(0.5 * h * alpha_next + tau @ (cov + 0.5 * h * alpha_prev) @ tau.T)
        m, a_prev, alpha_prev = m_next, a_next, alpha_next
    return m, cov


@pytest.mark.parametrize("n_substeps", [8, 16])
@pytest.mark.parametrize("name", ["cubic1d", "linear", "tracking9d"])
def test_predict_equals_own_loop_bit_for_bit(predict_cases, name, n_substeps):
    # the mean path is the same arithmetic, bit for bit; the covariance comes
    # from a prefix scan that reassociates the products, so it matches the
    # loop to rounding.  tracking9d's own Taylor loop is set aside: it
    # reorders the arithmetic (tests/test_models_tracking.py bounds it)
    model, mean, cov, delta = predict_cases[name]
    model = without_taylor_loops(model)
    pred_mean, pred_cov = ekf_predict(model, (mean, cov), delta, n_substeps)
    ref_mean, ref_cov = _loop_predict(model, mean, cov, delta, n_substeps)
    assert np.array_equal(pred_mean, ref_mean)
    assert np.max(np.abs(pred_cov - ref_cov)) <= 1e-12 * np.max(np.abs(ref_cov))


def test_predict_evaluates_alpha_once_on_the_path(predict_cases):
    # the EKF steps with b's callbacks, or with b's own Taylor loop, which
    # takes b at the start from drift_b and calls nothing else
    model, mean, cov, delta = predict_cases["tracking9d"]
    names = ("xi", "dxi", "d2xi_contract", "drift_b", "ddrift_b", "d2drift_b_contract",
             "alpha")
    for loop, expected in ((None, {"drift_b": 8, "ddrift_b": 9, "d2drift_b_contract": 8,
                                   "alpha": 1}),
                           (model.drift_b_taylor_loop, {"drift_b": 1, "alpha": 1})):
        calls = Counter()
        counted = counting(dataclasses.replace(model, drift_b_taylor_loop=loop), names, calls)
        ekf_predict(counted, (mean, cov), delta, 8)
        assert calls == expected


def test_update_linear_is_kalman(linear_params, linear_models):
    model, obs = linear_models
    rng = np.random.default_rng(52)
    m = rng.standard_normal(3)
    raw = rng.standard_normal((3, 3))
    p = raw @ raw.T + 0.1 * np.eye(3)
    y = rng.standard_normal(2)
    mean, cov = ekf_update((m, p), obs, y)
    j = linear_params.j_mat
    s = j @ p @ j.T + linear_params.b_mat
    k = p @ j.T @ np.linalg.inv(s)
    assert np.allclose(mean, m + k @ (y - j @ m), atol=1e-12)
    expected = (np.eye(3) - k @ j) @ p
    assert np.allclose(cov, 0.5 * (expected + expected.T), atol=1e-12)


def test_update_exact_observation_keeps_mean(cubic_models):
    _, obs = cubic_models
    m = np.array([0.6])
    p = np.array([[0.05]])
    mean, cov = ekf_update((m, p), obs, obs.psi(m))
    assert np.array_equal(mean, m)
    assert cov[0, 0] < p[0, 0]


def test_update_matches_hand_computed_scalar(cubic_params, cubic_models):
    _, obs = cubic_models
    m, p, y = 0.5, 0.04, 0.9
    pc = cubic_params.p_crit
    jval = (pc - m * m) / (pc + m * m) ** 2
    s = jval * p * jval + cubic_params.beta
    k = p * jval / s
    mean_expected = m + k * (y - m / (pc + m * m))
    cov_expected = (1.0 - k * jval) * p
    mean, cov = ekf_update((np.array([m]), np.array([[p]])), obs, np.array([y]))
    assert abs(mean[0] - mean_expected) < 1e-14
    assert abs(cov[0, 0] - cov_expected) < 1e-14


def test_ekf_equals_kalman_over_steps(linear_params, linear_models):
    model, obs = linear_models
    rng = np.random.default_rng(53)
    delta, nsub = 0.002, 64
    mu0 = rng.standard_normal(3)
    p0 = 0.4 * np.eye(3)
    observations = rng.standard_normal((20, 2))
    ref_means, ref_covs = kalman_reference_run(linear_params, mu0, p0, observations, delta)
    mean, cov = mu0, p0
    for k in range(20):
        mean, cov = ekf_step(model, obs, (mean, cov), observations[k], delta, nsub)
        assert np.max(np.abs(mean - ref_means[k])) < 1e-10 * max(
            1.0, float(np.max(np.abs(ref_means[k]))))
        assert np.max(np.abs(cov - ref_covs[k])) < 1e-10 * float(
            np.max(np.abs(ref_covs[k])))


def test_update_ill_conditioned_innovation_raises():
    obs = ObservationModel(
        dim_obs=2,
        psi=lambda x: x.copy(),
        dpsi=lambda x: np.eye(2),
        d2psi=lambda x: np.zeros((2, 2, 2)),
        beta=lambda y: np.diag([1.0, 1e-14]),
        conn_obs=flat_connector(2),
    )
    m = np.zeros(2)
    with pytest.raises(IllConditionedGainError):
        ekf_update((m, np.zeros((2, 2))), obs, np.zeros(2))


def _inline_gain_update(pred, obs, y_obs):
    """ekf_update with its former inline innovation matrix, condition check
    and solve in place of filter.gain."""
    m, cov = pred
    jac = np.asarray(obs.dpsi(m), dtype=float)
    y_pred = obs.psi(m)
    innov = symmetrize(jac @ cov @ jac.T + np.asarray(obs.beta(y_pred), dtype=float))
    if symmetric_condition(innov) > 1e12:
        raise IllConditionedGainError("EKF innovation matrix condition number exceeds 1e12")
    k_gain = np.linalg.solve(innov, jac @ cov).T
    residual = wrap_angles(np.asarray(y_obs, dtype=float) - y_pred, obs.angular_mask)
    m_new = m + k_gain @ residual
    cov_new = symmetrize((np.eye(m.size) - k_gain @ jac) @ cov)
    return m_new, repair_psd(cov_new)


def _update_outcome(update, pred, obs, y):
    try:
        mean, cov = update(pred, obs, y)
    except IllConditionedGainError:
        return "ill-conditioned"
    return mean.tobytes(), cov.tobytes()


def test_update_equals_inline_gain_block_bit_for_bit(cubic_models, tracking_models):
    rng = np.random.default_rng(55)
    cases = []
    _, cubic_obs = cubic_models
    for _ in range(20):
        m = rng.uniform(-1.5, 1.5, 1)
        cases.append((cubic_obs, m, rng.uniform(0.0, 0.2, (1, 1)), rng.uniform(-1.5, 1.5, 1)))
    _, tracking_obs = tracking_models
    for _ in range(20):
        m = random_tracking_state(rng, scale=1.0)
        m[0:3] += np.array([4.0, 1.0, 2.0])
        raw = rng.standard_normal((9, 9))
        cases.append((tracking_obs, m, raw @ raw.T, random_obs_point(rng)))
    # innovation condition numbers either side of the 1e12 limit
    stiff_obs = ObservationModel(
        dim_obs=2,
        psi=lambda x: x.copy(),
        dpsi=lambda x: np.eye(2),
        d2psi=lambda x: np.zeros((2, 2, 2)),
        beta=lambda y: np.diag([1.0, 1e-14]),
        conn_obs=flat_connector(2),
    )
    for var in (0.0, 1e-3):
        cases.append((stiff_obs, np.zeros(2), np.diag([0.0, var]), np.ones(2)))
    outcomes = []
    for obs, m, cov, y in cases:
        pred = m, cov
        outcomes.append(_update_outcome(ekf_update, pred, obs, y))
        assert outcomes[-1] == _update_outcome(_inline_gain_update, pred, obs, y)
    assert outcomes.count("ill-conditioned") == 1


def test_cov_stays_psd_with_repair_logging(cubic_models):
    model, obs = cubic_models
    rng = np.random.default_rng(54)
    mean, cov = np.array([0.3]), np.array([[0.01]])
    for k in range(50):
        y = np.array([rng.uniform(-1.5, 1.5)])
        mean, cov = ekf_step(model, obs, (mean, cov), y, 1.0, 16)
        assert cov[0, 0] >= 0.0
