"""Tests for the continuous-discrete EKF baseline."""

import numpy as np
import pytest

from gifilter.ekf import EkfEstimate, ekf_predict, ekf_step, ekf_update
from gifilter.errors import IllConditionedGainError
from gifilter.filter import FilterDiagnostics
from gifilter.geometry import SymTensor2, flat_connector
from gifilter.flow import DiffusionModel
from gifilter.harness import kalman_reference_run, van_loan_discretization
from gifilter.models.cubic1d import cubic1d_analytic_flow
from gifilter.observation import ObservationEvent, ObservationModel


def test_predict_linear_matches_exact_kalman(linear_params, linear_models):
    model, _ = linear_models
    rng = np.random.default_rng(51)
    delta = 0.05
    m0 = rng.standard_normal(3)
    p0 = 0.4 * np.eye(3)
    pred = ekf_predict(model, EkfEstimate(m0, SymTensor2(m0, p0)), delta, n_substeps=128)
    fmat, qd = van_loan_discretization(
        linear_params.a_mat, linear_params.sigma_mat @ linear_params.sigma_mat.T, delta)
    assert np.max(np.abs(pred.mean - fmat @ m0)) < 1e-8
    assert np.max(np.abs(pred.cov.mat - (fmat @ p0 @ fmat.T + qd))) < 1e-8


def test_predict_no_noise_no_drift_is_identity():
    model = DiffusionModel(
        dim=2,
        xi=lambda x: np.zeros(2),
        dxi=lambda x: np.zeros((2, 2)),
        d2xi_contract=lambda x, chi: np.zeros(chi.shape[:-1]),
        alpha=lambda x: np.zeros((2, 2)),
        conn=flat_connector(2),
        drift_b=lambda x: np.zeros(2),
        ddrift_b=lambda x: np.zeros((2, 2)),
    )
    m0 = np.array([1.0, -2.0])
    p0 = np.diag([0.3, 0.6])
    pred = ekf_predict(model, EkfEstimate(m0, SymTensor2(m0, p0)), 1.0, 8)
    assert np.array_equal(pred.mean, m0)
    assert np.array_equal(pred.cov.mat, p0)


def test_predict_cubic_mean_matches_closed_form(cubic_models):
    model, _ = cubic_models
    m0 = np.array([1.0])
    pred = ekf_predict(model, EkfEstimate(m0, SymTensor2(m0, [[0.01]])), 1.0, 64)
    assert abs(pred.mean[0] - cubic1d_analytic_flow(1.0, 1.0)) < 1e-6


def test_predict_uses_fd_jacobian_when_missing(cubic_models):
    # without analytic derivatives of b the scheme degrades to second order;
    # it must still track the closed-form flow at the coarser rate
    model, _ = cubic_models
    import dataclasses
    bare = dataclasses.replace(model, ddrift_b=None, d2drift_b_contract=None)
    m0 = np.array([0.8])
    full = ekf_predict(model, EkfEstimate(m0, SymTensor2(m0, [[0.02]])), 1.0, 64)
    fd = ekf_predict(bare, EkfEstimate(m0, SymTensor2(m0, [[0.02]])), 1.0, 64)
    truth = cubic1d_analytic_flow(0.8, 1.0)
    assert abs(full.mean[0] - truth) < 1e-6
    assert abs(fd.mean[0] - truth) < 1e-4
    assert abs(full.cov.mat[0, 0] - fd.cov.mat[0, 0]) < 1e-6


def test_update_linear_is_kalman(linear_params, linear_models):
    model, obs = linear_models
    rng = np.random.default_rng(52)
    m = rng.standard_normal(3)
    raw = rng.standard_normal((3, 3))
    p = raw @ raw.T + 0.1 * np.eye(3)
    y = rng.standard_normal(2)
    upd = ekf_update(EkfEstimate(m, SymTensor2(m, p)), obs, y)
    j = linear_params.j_mat
    s = j @ p @ j.T + linear_params.b_mat
    k = p @ j.T @ np.linalg.inv(s)
    assert np.allclose(upd.mean, m + k @ (y - j @ m), atol=1e-12)
    expected = (np.eye(3) - k @ j) @ p
    assert np.allclose(upd.cov.mat, 0.5 * (expected + expected.T), atol=1e-12)


def test_update_exact_observation_keeps_mean(cubic_models):
    _, obs = cubic_models
    m = np.array([0.6])
    p = np.array([[0.05]])
    upd = ekf_update(EkfEstimate(m, SymTensor2(m, p)), obs, obs.psi(m))
    assert np.array_equal(upd.mean, m)
    assert upd.cov.mat[0, 0] < p[0, 0]


def test_update_matches_hand_computed_scalar(cubic_params, cubic_models):
    _, obs = cubic_models
    m, p, y = 0.5, 0.04, 0.9
    pc = cubic_params.p_crit
    jval = (pc - m * m) / (pc + m * m) ** 2
    s = jval * p * jval + cubic_params.beta
    k = p * jval / s
    mean_expected = m + k * (y - m / (pc + m * m))
    cov_expected = (1.0 - k * jval) * p
    upd = ekf_update(EkfEstimate(np.array([m]), SymTensor2(np.array([m]), [[p]])), obs,
                     np.array([y]))
    assert abs(upd.mean[0] - mean_expected) < 1e-14
    assert abs(upd.cov.mat[0, 0] - cov_expected) < 1e-14


def test_ekf_equals_kalman_over_steps(linear_params, linear_models):
    model, obs = linear_models
    rng = np.random.default_rng(53)
    delta, nsub = 0.002, 64
    mu0 = rng.standard_normal(3)
    p0 = 0.4 * np.eye(3)
    observations = rng.standard_normal((20, 2))
    ref_means, ref_covs = kalman_reference_run(linear_params, mu0, p0, observations, delta)
    est = EkfEstimate(mu0, SymTensor2(mu0, p0))
    for k in range(20):
        est = ekf_step(model, obs, est, ObservationEvent(time=0.0, y=observations[k]),
                       delta, nsub)
        assert np.max(np.abs(est.mean - ref_means[k])) < 1e-10 * max(
            1.0, float(np.max(np.abs(ref_means[k]))))
        assert np.max(np.abs(est.cov.mat - ref_covs[k])) < 1e-10 * float(
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
        ekf_update(EkfEstimate(m, SymTensor2(m, np.zeros((2, 2)))), obs, np.zeros(2))


def test_cov_stays_psd_with_repair_logging(cubic_models):
    model, obs = cubic_models
    rng = np.random.default_rng(54)
    diag = FilterDiagnostics()
    est = EkfEstimate(np.array([0.3]), SymTensor2(np.array([0.3]), [[0.01]]))
    for k in range(50):
        event = ObservationEvent(time=float(k), y=np.array([rng.uniform(-1.5, 1.5)]))
        est = ekf_step(model, obs, est, event, 1.0, 16, diag=diag)
        assert est.cov.mat[0, 0] >= 0.0
