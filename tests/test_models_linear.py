"""Tests for the linear/Gaussian reference model."""

import numpy as np
import pytest
import scipy.linalg

from gifilter.flow import FlowGrid, flow_second_fundamental_form, precompute
from gifilter.models.linear import LinearParams


def test_params_require_spd_observation_covariance():
    with pytest.raises(ValueError):
        LinearParams(np.eye(2), np.eye(2), np.eye(2), np.diag([1.0, -1.0]))


@pytest.mark.parametrize("name", ["a_mat", "sigma_mat", "j_mat", "b_mat"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite_values(name, value):
    # a NaN drift or an infinite noise loading used to construct
    mats = {"a_mat": [[-1.0]], "sigma_mat": [[1.0]], "j_mat": [[1.0]], "b_mat": [[1.0]]}
    mats[name] = [[value]]
    with pytest.raises(ValueError, match="a_mat, sigma_mat, j_mat and b_mat must be finite"):
        LinearParams(**mats)


def test_structure_is_exactly_linear(linear_models):
    model, obs = linear_models
    rng = np.random.default_rng(91)
    for _ in range(100):
        x = rng.standard_normal(3)
        chi = rng.standard_normal((3, 3))
        assert np.array_equal(model.d2xi_contract(x, chi + chi.T), np.zeros(3))
        assert np.array_equal(model.conn.gamma(x, x, x), np.zeros(3))
        assert np.array_equal(obs.d2psi(x), np.zeros((2, 3, 3)))
    assert model.conn.flat and obs.conn_obs.flat


def test_precompute_has_no_intrinsic_corrections(linear_params, linear_models):
    model, _ = linear_models
    rng = np.random.default_rng(92)
    x0 = rng.standard_normal(3)
    grid = FlowGrid(0.3, 16)
    bundle = precompute(model, x0, np.eye(3), grid)
    assert np.array_equal(bundle.m_delta, np.zeros(3))
    raw = rng.standard_normal((3, 3))
    form = flow_second_fundamental_form(model, bundle.x_path, bundle.from_start, bundle.to_end,
                                        grid, raw + raw.T)
    assert np.array_equal(form, np.zeros(3))


def test_transition_matches_matrix_exponential(linear_params, linear_models):
    model, _ = linear_models
    rng = np.random.default_rng(93)
    x0 = rng.standard_normal(3)
    delta = 0.4
    bundle = precompute(model, x0, np.eye(3), FlowGrid(delta, 64))
    expected = scipy.linalg.expm(delta * linear_params.a_mat)
    assert np.max(np.abs(bundle.from_start[-1] - expected)) < 1e-10
