"""Tests for the observation-side geometry and sampling."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from gifilter.errors import NonFiniteError, SingularMetricError
from gifilter.flow import FlowGrid, precompute
from gifilter.geometry import ConnectorField, exp_map_series, flat_connector
from gifilter.harness import ScenarioConfig, build_scenario
from gifilter.models.cubic1d import Cubic1DParams, cubic1d_build
from gifilter.models.linear import LinearParams, linear_build
from gifilter.observation import (
    ObservationModel,
    ailp_observation,
    beta_sqrt,
    map_second_fundamental_form,
    sample_observation,
    wrap_angles,
)

from helpers import random_tracking_state
from oracles import sym_outer


def test_wrap_angles_reduces_to_halfopen_interval():
    mask = np.array([False, True])
    w = np.array([5.0, 3.5 * np.pi])
    out = wrap_angles(w, mask)
    assert out[0] == 5.0
    assert -np.pi < out[1] <= np.pi
    assert abs(out[1] + 0.5 * np.pi) < 1e-12
    # boundary: a residual of exactly -pi folds to +pi
    assert wrap_angles(np.array([0.0, -np.pi]), mask)[1] == pytest.approx(np.pi)


def test_wrap_angles_none_mask_is_identity():
    w = np.array([10.0, -7.0])
    assert np.array_equal(wrap_angles(w, None), w)


# --- second fundamental form of psi -------------------------------------------


def test_linear_observation_flat_form_vanishes(linear_models):
    model, obs = linear_models
    rng = np.random.default_rng(31)
    x = rng.standard_normal(3)
    form = map_second_fundamental_form(obs, model.conn, x, obs.dpsi(x), obs.psi(x))
    assert np.array_equal(form, np.zeros((2, 3, 3)))


def test_cubic_form_is_plain_second_derivative(cubic_models, cubic_params):
    model, obs = cubic_models
    p = cubic_params.p_crit
    for x0 in (-1.2, -0.3, 0.0, 0.4, 1.7):
        x = np.array([x0])
        form = map_second_fundamental_form(obs, model.conn, x, obs.dpsi(x), obs.psi(x))
        expected = 2.0 * x0 * (x0 ** 2 - 3.0 * p) / (p + x0 ** 2) ** 3
        assert abs(form[0, 0, 0] - expected) < 1e-12 * max(1.0, abs(expected))


def test_tracking_form_matches_finite_difference_assembly(tracking_models):
    # rebuild the three terms independently, with D2psi from differences of Dpsi
    model, obs = tracking_models
    rng = np.random.default_rng(32)
    x = random_tracking_state(rng, scale=1.0)
    x[0:3] += np.array([4.0, 1.0, 2.0])  # keep range and elevation generic
    form = map_second_fundamental_form(obs, model.conn, x, obs.dpsi(x), obs.psi(x))

    h = 1e-6
    d2psi_fd = np.zeros((5, 9, 9))
    for j in range(9):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        d2psi_fd[:, :, j] = (obs.dpsi(xp) - obs.dpsi(xm)) / (2.0 * h)
    d2psi_fd = 0.5 * (d2psi_fd + d2psi_fd.transpose(0, 2, 1))

    jac = obs.dpsi(x)
    y = obs.psi(x)
    expected = d2psi_fd.copy()
    expected -= np.einsum("ka,aij->kij", jac, model.conn.coefficients(x))
    expected += np.einsum("kab,ai,bj->kij", obs.conn_obs.coefficients(y), jac, jac)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(form - expected)) < 1e-6 * scale


def test_form_is_symmetric_in_its_trailing_indices():
    # an identity map whose d2psi is skew in (i, j) gives the symmetric part
    d2psi = np.zeros((2, 2, 2))
    d2psi[0, 0, 1] = 1.0
    obs = ObservationModel(dim_obs=2, psi=lambda x: x.copy(), dpsi=lambda x: np.eye(2),
                           d2psi=lambda x: d2psi, beta=lambda y: np.eye(2),
                           conn_obs=flat_connector(2))
    x = np.zeros(2)
    form = map_second_fundamental_form(obs, flat_connector(2), x, np.eye(2), x)
    assert np.array_equal(form, form.transpose(0, 2, 1))
    assert form[0, 0, 1] == 0.5


def test_observation_jacobians_match_finite_differences(
    cubic_models, tracking_models, linear_models
):
    rng = np.random.default_rng(33)
    cases = []
    cubic, cubic_obs = cubic_models
    cases.append((cubic_obs, lambda: rng.standard_normal(1) * 1.5))
    linear, linear_obs = linear_models
    cases.append((linear_obs, lambda: rng.standard_normal(3)))
    tracking, tracking_obs = tracking_models

    def tracking_point():
        x = random_tracking_state(rng, scale=1.0)
        x[0:3] += np.array([3.0, 2.0, 1.5])
        return x

    cases.append((tracking_obs, tracking_point))

    h = 1e-5
    for obs, sampler in cases:
        for _ in range(334):
            x = sampler()
            p = x.size
            jac = np.asarray(obs.dpsi(x), dtype=float)
            hess = np.asarray(obs.d2psi(x), dtype=float)
            for j in range(p):
                xp = x.copy()
                xm = x.copy()
                xp[j] += h
                xm[j] -= h
                col = (obs.psi(xp) - obs.psi(xm)) / (2.0 * h)
                assert np.max(np.abs(col - jac[:, j])) < 5e-7 * max(
                    1.0, float(np.max(np.abs(jac)))
                )
                dcol = (obs.dpsi(xp) - obs.dpsi(xm)) / (2.0 * h)
                assert np.max(np.abs(dcol - hess[:, :, j])) < 5e-6 * max(
                    1.0, float(np.max(np.abs(hess)))
                )


# --- observation AILP ----------------------------------------------------------


def _obs_ailp(bundle, obs, state_conn):
    jac = obs.dpsi(bundle.x_delta)
    form = map_second_fundamental_form(obs, state_conn, bundle.x_delta, jac,
                                       obs.psi(bundle.x_delta))
    return ailp_observation(bundle, form, jac)


def _obs_ailp_term_by_term(bundle, obs, state_conn):
    # (1/2) {D2psi(Xi) - J Gamma(Xi) + Gamma_bar(J Xi J^T)} + J m_delta, each
    # term evaluated on its own rather than through the second fundamental form
    x_delta = bundle.x_delta
    xi = bundle.xi_delta
    jac = np.asarray(obs.dpsi(x_delta), dtype=float)
    out = np.einsum("kij,ij->k", np.asarray(obs.d2psi(x_delta), dtype=float), xi)
    if not state_conn.flat:
        out -= jac @ state_conn.contract(x_delta, xi)
    if not obs.conn_obs.flat:
        out += obs.conn_obs.contract(obs.psi(x_delta), jac @ xi @ jac.T)
    return 0.5 * out + jac @ bundle.m_delta


@pytest.mark.parametrize("model_name", ["cubic1d", "tracking9d"])
def test_observation_ailp_matches_term_by_term_formula(model_name):
    scenario = build_scenario(ScenarioConfig(model=model_name, n_obs=1, delta=0.1))
    model, obs = scenario.diffusion, scenario.observation_at(0.1)
    mu0 = scenario.mu0
    bundle = precompute(model, mu0, scenario.sigma0, FlowGrid(0.1, 8))
    out = _obs_ailp(bundle, obs, model.conn)
    oracle = _obs_ailp_term_by_term(bundle, obs, model.conn)
    assert np.max(np.abs(out - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_ailp_observation_contracts_the_form():
    # (1/2) sum_ij form[k, i, j] Xi[i, j], here with J m_delta = 0
    form = np.zeros((2, 2, 2))
    form[0] = np.eye(2)
    form[1] = np.array([[0.0, 1.0], [1.0, 0.0]])
    u = np.array([1.0, 2.0])
    w = np.array([-1.0, 0.5])
    for xi, expected in ((np.outer(u, u), [5.0, 4.0]), (sym_outer(u, w), [0.0, -1.5])):
        bundle = SimpleNamespace(xi_delta=xi, m_delta=np.zeros(2))
        assert np.allclose(ailp_observation(bundle, form, np.eye(2)), 0.5 * np.array(expected))


def test_linear_observation_ailp_vanishes(linear_models):
    model, obs = linear_models
    rng = np.random.default_rng(34)
    x0 = rng.standard_normal(3)
    bundle = precompute(model, x0, np.eye(3) * 0.4, FlowGrid(0.2, 8))
    out = _obs_ailp(bundle, obs, model.conn)
    assert np.array_equal(out, np.zeros(2))


def test_identity_observation_ailp_reduces_to_state_term(cubic_models):
    model, _ = cubic_models
    identity_obs = ObservationModel(
        dim_obs=1,
        psi=lambda x: x.copy(),
        dpsi=lambda x: np.eye(1),
        d2psi=lambda x: np.zeros((1, 1, 1)),
        beta=lambda y: np.eye(1),
        conn_obs=flat_connector(1),
    )
    x0 = np.array([1.0])
    bundle = precompute(model, x0, np.array([[0.01]]), FlowGrid(1.0, 32))
    out = _obs_ailp(bundle, identity_obs, model.conn)
    assert np.array_equal(out, bundle.m_delta)


def test_observation_ailp_linear_in_moments(cubic_models):
    model, obs = cubic_models
    x0 = np.array([0.8])
    bundle = precompute(model, x0, np.array([[0.02]]), FlowGrid(1.0, 16))
    no_mean = dataclasses.replace(bundle, m_delta=np.zeros(1))
    doubled = dataclasses.replace(no_mean, xi_delta=2.0 * bundle.xi_delta)
    base = _obs_ailp(no_mean, obs, model.conn)
    twice = _obs_ailp(doubled, obs, model.conn)
    assert np.allclose(twice, 2.0 * base, rtol=0, atol=1e-15)


# --- observation sampling --------------------------------------------------------


def test_sampling_tiny_noise_recovers_psi(cubic_models):
    model, obs = cubic_models
    tiny = ObservationModel(
        dim_obs=1,
        psi=obs.psi,
        dpsi=obs.dpsi,
        d2psi=obs.d2psi,
        beta=lambda y: np.array([[1e-20]]),
        conn_obs=obs.conn_obs,
    )
    rng = np.random.default_rng(35)
    x = np.array([0.7])
    y = sample_observation(tiny, x, rng)
    assert abs(y[0] - obs.psi(x)[0]) < 1e-8


def test_sampling_is_deterministic_per_seed(tracking_models):
    model, obs = tracking_models
    rng = np.random.default_rng(36)
    x = random_tracking_state(rng, scale=1.0)
    x[0:3] += np.array([5.0, 0.0, 2.0])
    first = sample_observation(obs, x, np.random.default_rng(99))
    second = sample_observation(obs, x, np.random.default_rng(99))
    assert np.array_equal(first, second)


def test_sampling_moments_flat_model(cubic_models):
    model, obs = cubic_models
    rng = np.random.default_rng(37)
    x = np.array([0.4])
    n = 10 ** 5
    center = obs.psi(x)[0]
    beta = obs.beta(obs.psi(x))[0, 0]
    draws = center + math.sqrt(beta) * rng.standard_normal(n)
    # moment check against an independent direct construction of the law
    samples = np.array([sample_observation(obs, x, rng)[0] for _ in range(2000)])
    se_mean = math.sqrt(beta / samples.size)
    assert abs(samples.mean() - center) < 3.0 * se_mean
    se_var = beta * math.sqrt(2.0 / (samples.size - 1))
    assert abs(samples.var(ddof=1) - beta) < 3.0 * se_var
    assert abs(draws.mean() - center) < 3.0 * math.sqrt(beta / n)


def test_sampling_standard_normal_chi_square():
    obs = ObservationModel(
        dim_obs=2,
        psi=lambda x: x.copy(),
        dpsi=lambda x: np.eye(2),
        d2psi=lambda x: np.zeros((2, 2, 2)),
        beta=lambda y: np.eye(2),
        conn_obs=flat_connector(2),
    )
    rng = np.random.default_rng(38)
    n = 10 ** 5 // 2
    draws = np.concatenate([sample_observation(obs, np.zeros(2), rng) for _ in range(n)])
    edges = scipy.stats.norm.ppf(np.linspace(0.0, 1.0, 41))
    counts, _ = np.histogram(draws, bins=edges)
    expected = np.full(40, draws.size / 40.0)
    stat, pvalue = scipy.stats.chisquare(counts, expected)
    assert pvalue > 0.001


def test_sampling_rejects_non_spd_beta():
    obs = ObservationModel(
        dim_obs=1,
        psi=lambda x: x.copy(),
        dpsi=lambda x: np.eye(1),
        d2psi=lambda x: np.zeros((1, 1, 1)),
        beta=lambda y: np.array([[-1.0]]),
        conn_obs=flat_connector(1),
    )
    with pytest.raises(SingularMetricError):
        sample_observation(obs, np.zeros(1), np.random.default_rng(0))


def test_beta_sqrt_squares_back():
    rng = np.random.default_rng(39)
    raw = rng.standard_normal((5, 5))
    spd = raw @ raw.T + 0.5 * np.eye(5)
    root = beta_sqrt(spd)
    assert np.allclose(root @ root, spd, atol=1e-12)
    assert np.allclose(root, root.T)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sample_observation_rejects_nonfinite(bad):
    obs = ObservationModel(
        dim_obs=2,
        psi=lambda x: np.array([x[0], bad]),
        dpsi=lambda x: np.eye(2),
        d2psi=lambda x: np.zeros((2, 2, 2)),
        beta=lambda y: np.eye(2),
        conn_obs=flat_connector(2),
    )
    # a numerical failure (the CLI exits 2), and still a ValueError
    with pytest.raises(NonFiniteError, match="non-finite") as raised:
        sample_observation(obs, np.zeros(2), np.random.default_rng(0))
    assert isinstance(raised.value, ValueError)


# --- the scalar flat observation on floats ---------------------------------------


def _general_draw(obs, x, rng):
    """Y = psi(X) + beta^(1/2) V with the 1x1 root and matmul of the
    array path, independent of sample_observation."""
    y_center = np.asarray(obs.psi(np.asarray(x, dtype=float)), dtype=float)
    return y_center + beta_sqrt(obs.beta(y_center)) @ rng.standard_normal(1)


def _scalar_observations():
    """(state dimension, observation model) of each one-observation flat model."""
    linear = LinearParams(a_mat=[[-0.5, 0.2], [0.0, -1.0]], sigma_mat=[[0.3], [0.2]],
                          j_mat=[[2.0, -0.7]], b_mat=[[0.1]])
    return {
        "cubic1d-extreme": (1, cubic1d_build(Cubic1DParams())[1]),
        "cubic1d-mild": (1, cubic1d_build(Cubic1DParams(p_crit=5.0, alpha=1e-4, beta=1e-4))[1]),
        "linear-one-observation": (2, linear_build(linear)[1]),
    }


def _scalar_obs(psi=lambda x: x.copy(), beta=lambda y: np.array([[0.04]])):
    """A flat one-observation model of ``psi`` and ``beta``."""
    return ObservationModel(dim_obs=1, psi=psi, dpsi=lambda x: np.eye(1),
                            d2psi=lambda x: np.zeros((1, 1, 1)), beta=beta,
                            conn_obs=flat_connector(1))


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64])
@pytest.mark.parametrize("name", sorted(_scalar_observations()))
def test_scalar_observation_equals_the_general_formula_bit_for_bit(name, bit_generator,
                                                                   monkeypatch):
    dim, obs = _scalar_observations()[name]
    points = 1.5 * np.random.default_rng(40).standard_normal((1000, dim))
    # the scalar branch takes no array root: a draw that reached the
    # general path would fail here; and cubic1d's draws read psi and beta
    # through the float forms alone
    monkeypatch.setattr("gifilter.observation.beta_sqrt", None)
    drawn_obs = (obs if obs.float_forms is None
                 else dataclasses.replace(obs, psi=None, beta=None))
    scalar_rng = np.random.Generator(bit_generator(41))
    general_rng = np.random.Generator(bit_generator(41))
    drawn = np.concatenate([sample_observation(drawn_obs, x, scalar_rng) for x in points])
    expected = np.concatenate([_general_draw(obs, x, general_rng) for x in points])
    assert drawn.tobytes() == expected.tobytes()
    # the stream moved by one normal per draw on both sides
    assert scalar_rng.standard_normal() == general_rng.standard_normal()


@pytest.mark.parametrize("entry", [0.0, -1.0])
def test_scalar_observation_rejects_a_metric_as_beta_sqrt_does(entry):
    with pytest.raises(SingularMetricError) as general:
        beta_sqrt(np.array([[entry]]))
    obs = _scalar_obs(beta=lambda y: np.array([[entry]]))
    with pytest.raises(SingularMetricError) as scalar:
        sample_observation(obs, np.zeros(1), np.random.default_rng(0))
    assert str(scalar.value) == str(general.value)


def test_scalar_observation_with_a_nan_metric_is_not_finite():
    obs = _scalar_obs(beta=lambda y: np.array([[np.nan]]))
    assert np.isnan(beta_sqrt(np.array([[np.nan]]))).all()
    with pytest.raises(NonFiniteError, match="non-finite"):
        sample_observation(obs, np.zeros(1), np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scalar_observation_rejects_a_nonfinite_psi(bad):
    obs = _scalar_obs(psi=lambda x: np.array([bad]))
    with pytest.raises(NonFiniteError, match="non-finite"):
        sample_observation(obs, np.zeros(1), np.random.default_rng(0))


def test_one_angular_observation_is_still_wrapped():
    obs = dataclasses.replace(_scalar_obs(psi=lambda x: np.array([3.5 * np.pi])),
                              angular_mask=np.array([True]))
    y = sample_observation(obs, np.zeros(1), np.random.default_rng(42))
    expected = wrap_angles(_general_draw(obs, np.zeros(1), np.random.default_rng(42)),
                           obs.angular_mask)
    assert -np.pi < y[0] <= np.pi
    assert y.tobytes() == expected.tobytes()


def test_one_observation_on_a_curved_connector_still_takes_the_exponential_map():
    def gamma(x, u, v):
        return 0.8 * u[..., :1] * v[..., :1]

    def dgamma(x, w, u, v):
        return np.zeros(np.broadcast_shapes(w.shape, u.shape, v.shape))

    conn = ConnectorField(dim=1, gamma=gamma, dgamma=dgamma)
    obs = dataclasses.replace(_scalar_obs(), conn_obs=conn)
    x = np.array([0.3])
    y = sample_observation(obs, x, np.random.default_rng(43))
    v = beta_sqrt(obs.beta(x)) @ np.random.default_rng(43).standard_normal(1)
    assert y.tobytes() == exp_map_series(x, v, conn).tobytes()
    assert y[0] != (x + v)[0]
