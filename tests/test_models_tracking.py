"""Tests for the 9-D constrained target-tracking model."""

import math

import numpy as np
import pytest

from gifilter.errors import SingularObservationError, SingularStateError
from gifilter.flow import FlowGrid, integrate_flow
from gifilter.geometry import identity
from gifilter.models import tracking
from gifilter.models.tracking import (
    Tracking9DParams,
    observation_connector,
    pack_state,
    project_state,
    split_state,
    tracking_diffusion,
    tracking_observation,
    velocity_projection,
)
from gifilter.observation import wrap_angles

from helpers import random_obs_point, random_tracking_state
from oracles import (
    levi_civita_connector,
    spherical_to_cartesian,
    tracking_dbeta,
    validate_state,
)


def test_params_validation():
    with pytest.raises(ValueError):
        Tracking9DParams(lam=0.0)
    with pytest.raises(ValueError):
        Tracking9DParams(s0=0.0)
    with pytest.raises(ValueError):
        Tracking9DParams(s1=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("name, message", [
    ("lam", "lam and gamma_noise must be positive"),
    ("gamma_noise", "lam and gamma_noise must be positive"),
    ("s0", "s0, s5 and sigma_f must be positive"),
    ("s5", "s0, s5 and sigma_f must be positive"),
    ("sigma_f", "s0, s5 and sigma_f must be positive"),
    ("s1", "variance constants must be non-negative"),
    ("s2", "variance constants must be non-negative"),
    ("s3", "variance constants must be non-negative"),
    ("s4", "variance constants must be non-negative"),
])
def test_params_reject_non_finite_values(name, message, value):
    # NaN passed every sign test, and inf every one
    with pytest.raises(ValueError, match=message):
        Tracking9DParams(**{name: value})


@pytest.mark.parametrize("name", ["missile_p0", "missile_v0"])
def test_params_reject_a_non_finite_missile(name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Tracking9DParams(**{name: (0.0, math.nan, 0.0)})
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Tracking9DParams(**{name: (math.inf, 0.0, 0.0)})


def test_state_packing_roundtrip():
    p, v, a = np.arange(3.0), np.array([2.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    x = pack_state(p, v, a)
    p2, v2, a2 = split_state(x)
    assert np.array_equal(p, p2) and np.array_equal(v, v2) and np.array_equal(a, a2)
    validate_state(x)


def test_validate_state_rejects_bad_states():
    with pytest.raises(SingularStateError):
        validate_state(pack_state(np.zeros(3), np.zeros(3), np.ones(3)))
    with pytest.raises(SingularStateError):
        validate_state(pack_state(np.zeros(3), np.array([1.0, 0, 0]), np.array([1.0, 0, 0])))


def test_velocity_projection_identities():
    rng = np.random.default_rng(71)
    for _ in range(100):
        v = rng.standard_normal(3)
        if np.linalg.norm(v) < 1e-3:
            continue
        proj = velocity_projection(v)
        assert np.max(np.abs(proj @ v)) < 1e-12 * np.linalg.norm(v)
        assert np.max(np.abs(proj @ proj - proj)) < 1e-12


def test_project_state_restores_constraints():
    rng = np.random.default_rng(72)
    ref = random_tracking_state(rng, speed=2.0)
    x = ref + 0.05 * rng.standard_normal(9)
    fixed = project_state(x, ref)
    _, v, a = split_state(fixed)
    assert abs(np.linalg.norm(v) - 2.0) < 1e-12
    assert abs(v @ a) < 1e-12 * np.linalg.norm(v) * max(np.linalg.norm(a), 1e-300)


def test_noise_contraction_identity(tracking_models):
    # the connector annihilates the diffusion variance tensor identically
    model, _ = tracking_models
    rng = np.random.default_rng(73)
    worst = 0.0
    for _ in range(1000):
        x = random_tracking_state(rng, scale=rng.uniform(0.5, 300.0))
        resid = np.linalg.norm(model.conn.contract(x, model.alpha(x)))
        scale = max(1.0, float(np.max(np.abs(model.alpha(x)))))
        worst = max(worst, resid / scale)
    assert worst < 1e-12


def test_noise_matrix_factorizes_alpha(tracking_models):
    model, _ = tracking_models
    rng = np.random.default_rng(74)
    for _ in range(50):
        x = random_tracking_state(rng, speed=rng.uniform(1.0, 200.0))
        load = model.noise_matrix(x)
        assert np.max(np.abs(load @ load.T - model.alpha(x))) < 1e-10 * max(
            1.0, float(np.max(np.abs(model.alpha(x)))))


def test_drift_jacobian_matches_tangent_differences(tracking_models):
    model, _ = tracking_models
    rng = np.random.default_rng(75)
    h = 1e-6
    for _ in range(200):
        x = random_tracking_state(rng, speed=rng.uniform(0.8, 3.0))
        _, v, a = split_state(x)
        zv = rng.standard_normal(3)
        zv -= v * float(v @ zv) / float(v @ v)
        za = rng.standard_normal(3)
        za -= v * float(a @ zv + v @ za) / float(v @ v)
        z = pack_state(rng.standard_normal(3), zv, za)
        fd = (model.xi(x + h * z) - model.xi(x - h * z)) / (2.0 * h)
        ana = model.dxi(x) @ z
        assert np.max(np.abs(fd - ana)) < 1e-6 * max(1.0, float(np.max(np.abs(ana))))


def test_drift_hessian_matches_acceleration_differences(tracking_models):
    # straight acceleration-space perturbations stay on the constraint
    # manifold exactly, where the shipped contraction equals the chart Hessian
    model, _ = tracking_models
    rng = np.random.default_rng(76)
    h = 1e-4
    for _ in range(200):
        x = random_tracking_state(rng, speed=rng.uniform(0.8, 3.0))
        _, v, _ = split_state(x)
        w1 = rng.standard_normal(3)
        w1 -= v * float(v @ w1) / float(v @ v)
        w2 = rng.standard_normal(3)
        w2 -= v * float(v @ w2) / float(v @ v)
        z1 = pack_state(np.zeros(3), np.zeros(3), w1)
        z2 = pack_state(np.zeros(3), np.zeros(3), w2)
        diag_fd = (model.xi(x + h * z1) - 2.0 * model.xi(x) + model.xi(x - h * z1)) / h ** 2
        ana = model.d2xi_contract(x, np.outer(z1, z1))
        assert np.max(np.abs(diag_fd - ana)) < 1e-5 * max(1.0, float(np.max(np.abs(ana))))
        mixed_fd = (model.xi(x + h * (z1 + z2)) - model.xi(x + h * (z1 - z2))
                    - model.xi(x - h * (z1 - z2)) + model.xi(x - h * (z1 + z2))) / (4 * h ** 2)
        chi = 0.5 * (np.outer(z1, z2) + np.outer(z2, z1))
        mixed_ana = model.d2xi_contract(x, chi)
        assert np.max(np.abs(mixed_fd - mixed_ana)) < 1e-5 * max(
            1.0, float(np.max(np.abs(mixed_ana))))


def test_flow_preserves_constraints(tracking_models):
    # air-target kinematics: accelerations up to ~0.2 of the speed (several g)
    model, _ = tracking_models
    rng = np.random.default_rng(77)
    grid = FlowGrid(0.1, 64)
    for _ in range(20):
        speed = rng.uniform(100.0, 300.0)
        x0 = random_tracking_state(rng, speed=speed,
                                   scale=rng.uniform(0.02, 0.2) * speed)
        speed0 = np.linalg.norm(x0[3:6])
        path, _ = integrate_flow(model, x0, grid)
        for x in path:
            _, v, a = split_state(x)
            assert abs(float(v @ a)) <= 1e-8 * np.linalg.norm(v) * max(
                np.linalg.norm(a), 1e-300)
            assert abs(float(v @ v) - speed0 ** 2) / speed0 ** 2 <= 1e-8


def test_observation_connector_matches_numeric_derivation(tracking_params, tracking_models):
    _, obs = tracking_models
    conn = observation_connector(tracking_params)
    rng = np.random.default_rng(78)
    basis = np.eye(5)
    for _ in range(20):
        y = random_obs_point(rng)
        numeric = levi_civita_connector(obs.beta, y, dbeta=tracking_dbeta(tracking_params))
        for i in range(5):
            for j in range(5):
                closed = conn.gamma(y, basis[i], basis[j])
                assert np.max(np.abs(closed - numeric[:, i, j])) < 1e-6


def test_spherical_transform_roundtrip():
    rng = np.random.default_rng(79)
    for _ in range(200):
        y = np.array([rng.uniform(0.5, 20.0), rng.uniform(0.1, 3.0),
                      rng.uniform(-3.1, 3.1)])
        d = spherical_to_cartesian(y)
        back = np.array(tracking._spherical(d))
        assert np.max(np.abs(back - y)) < 1e-10


def test_observation_values_and_errors(tracking_params):
    obs = tracking_observation(tracking_params, time=0.0)
    x = pack_state([3.0, 4.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    y = obs.psi(x)
    # at time 0 the missile is at p0, flying at v0
    p_m, v_m = np.array(tracking_params.missile_p0), np.array(tracking_params.missile_v0)
    d = x[0:3] - p_m
    assert y[0] == pytest.approx(np.linalg.norm(d))
    assert y[3] == pytest.approx(np.linalg.norm(x[3:6] - v_m))
    assert y[4] == pytest.approx(float(x[3:6] @ x[6:9]))
    with pytest.raises(SingularObservationError):
        obs.psi(pack_state(p_m, [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
    # vertical direction leaves the azimuth undefined
    with pytest.raises(SingularObservationError):
        tracking._spherical(np.array([0.0, 0.0, 5.0]))


def test_observation_beta_spd_on_range(tracking_params):
    obs = tracking_observation(tracking_params)
    rng = np.random.default_rng(80)
    for _ in range(100):
        y = random_obs_point(rng)
        eigs = np.linalg.eigvalsh(obs.beta(y))
        assert eigs[0] > 0.0


def test_observation_azimuth_wrap(tracking_params):
    obs = tracking_observation(tracking_params)
    y = np.array([1.0, 1.0, np.pi + 0.3, 5.0, 0.0])
    wrapped = wrap_angles(y, obs.angular_mask)
    assert -np.pi < wrapped[2] <= np.pi
    assert wrapped[2] == pytest.approx(0.3 - np.pi)


def test_build_returns_consistent_pair(tracking_params):
    model = tracking_diffusion(tracking_params)
    obs = tracking_observation(tracking_params, time=2.0)
    assert model.dim == 9
    assert obs.dim_obs == 5
    # missile state frozen at the build time: at p0 + 2 v0, flying at v0
    v_m = np.array(tracking_params.missile_v0)
    p_m = np.array(tracking_params.missile_p0) + 2.0 * v_m
    x = pack_state(p_m + np.array([3.0, 4.0, 1.0]), v_m + [2.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert obs.psi(x)[0] == pytest.approx(np.sqrt(26.0))
    assert obs.psi(x)[3] == pytest.approx(2.0)


def test_missile_flies_at_constant_velocity_from_its_start():
    params = Tracking9DParams(missile_p0=[1, 0.0, 0.0], missile_v0=np.array([10.0, 0.0, 0.0]))
    assert params.missile_p0 == (1.0, 0.0, 0.0) and params.missile_v0 == (10.0, 0.0, 0.0)
    assert params == Tracking9DParams(missile_p0=(1.0, 0.0, 0.0), missile_v0=(10.0, 0.0, 0.0))
    assert hash(params) == hash(Tracking9DParams(missile_p0=(1.0, 0.0, 0.0),
                                                 missile_v0=(10.0, 0.0, 0.0)))
    obs = tracking_observation(params, time=2.0)
    # 3 m past p0 + t v0 = (21, 0, 0) in x, and 7 m/s faster than the missile
    x = pack_state([24.0, 0.1, 0.0], [17.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    y = obs.psi(x)
    assert y[0] == pytest.approx(np.hypot(3.0, 0.1))
    assert y[3] == pytest.approx(7.0)

def test_dxi_rejects_a_vanishing_speed(tracking_models):
    # integrate_flow evaluates dxi at an interval's end without xi there, so
    # dxi must raise the model's own error, not a bare ZeroDivisionError
    model, _ = tracking_models
    x = pack_state(np.ones(3), np.zeros(3), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(SingularStateError):
        model.dxi(x)
    with pytest.raises(SingularStateError):
        model.xi(x)


def test_callbacks_return_fresh_arrays(tracking_params):
    """Callers write into callback outputs (``ailp_state`` subtracts from
    one in place), so a callback that returned a cached constant, or a view
    of one, would corrupt its later calls."""
    model = tracking_diffusion(tracking_params)
    obs = tracking_observation(tracking_params, time=1.0)
    x = pack_state([9000.0, 2000.0, 3000.0], [-200.0, 80.0, 0.0], [0.0, 0.0, 20.0])
    rng = np.random.default_rng(909)
    u, w, z = rng.standard_normal((3, 9))
    chi = np.outer(model.xi(x), model.xi(x))
    y = obs.psi(x)
    yu, yw, yz = rng.standard_normal((3, 5))
    calls = {
        "xi": lambda: model.xi(x),
        "dxi": lambda: model.dxi(x),
        "d2xi_contract": lambda: model.d2xi_contract(x, chi),
        "alpha": lambda: model.alpha(x),
        "noise_matrix": lambda: model.noise_matrix(x),
        "constrain": lambda: model.constrain(x, x),
        "psi": lambda: obs.psi(x),
        "dpsi": lambda: obs.dpsi(x),
        "d2psi": lambda: obs.d2psi(x),
        "beta": lambda: obs.beta(y),
        "gamma": lambda: model.conn.gamma(x, u, w),
        "dgamma": lambda: model.conn.dgamma(x, z, u, w),
        "contract": lambda: model.conn.contract(x, chi),
        "obs_gamma": lambda: obs.conn_obs.gamma(y, yu, yw),
        "obs_dgamma": lambda: obs.conn_obs.dgamma(y, yz, yu, yw),
    }
    for name, call in calls.items():
        first = call()
        expected = first.copy()
        first[...] = np.nan
        assert np.array_equal(call(), expected), name
    for constant in (identity(3), tracking._DXI_TEMPLATE, tracking._D2PSI_TEMPLATE,
                     tracking.OBS_ANGULAR_MASK):
        assert not constant.flags.writeable


def test_observation_models_share_what_the_time_does_not_change(tracking_params):
    early = tracking_observation(tracking_params, time=0.0)
    late = tracking_observation(tracking_params, time=3.0)
    assert early.beta is late.beta
    assert early.conn_obs is late.conn_obs
    assert early.angular_mask is late.angular_mask
    x = pack_state([9000.0, 2000.0, 3000.0], [-200.0, 80.0, 0.0], [0.0, 0.0, 20.0])
    assert not np.array_equal(early.psi(x), late.psi(x))
