"""Tests for the 9-D constrained target-tracking model."""

import dataclasses
import math

import numpy as np
import pytest

from gifilter import harness
from gifilter.ekf import ekf_predict
from gifilter.errors import DivergenceError, SingularObservationError, SingularStateError
from gifilter.flow import FlowGrid, integrate_flow
from gifilter.harness import (
    ScenarioConfig,
    build_scenario,
    run_filters,
    simulate_sde,
    trajectory_rng,
)
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

from helpers import random_obs_point, random_tracking_state, without_taylor_loops
from oracles import (
    levi_civita_connector,
    spherical_jacobian,
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


# --- the model's own Taylor loop ----------------------------------------------------

# the loop reorders the callbacks' arithmetic; its path and Jacobians stay
# within this bound of theirs, relative to the largest entry of each block
TAYLOR_LOOP_BOUND = 1e-13


@pytest.fixture(scope="module")
def recorded_states():
    """The GIF and EKF estimates of a 40-cycle tracking run."""
    config = ScenarioConfig(model="tracking9d", delta=0.1, n_obs=40, seed=0)
    scenario = build_scenario(config)
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(0, 0)))
    return np.concatenate([record.estimates["gif"], record.estimates["ekf"]])


@pytest.mark.parametrize("n_steps", [8, 16, 64])
def test_the_taylor_loop_matches_the_callback_steps(tracking_models, recorded_states,
                                                    n_steps):
    model, _ = tracking_models
    steps = dataclasses.replace(model, taylor_loop=None)
    grid = FlowGrid(0.1, n_steps)
    differ = False
    for x0 in recorded_states:
        path, jacs = integrate_flow(model, x0, grid)
        ref_path, ref_jacs = integrate_flow(steps, x0, grid)
        assert path.shape == ref_path.shape and jacs.shape == ref_jacs.shape
        for block in (slice(0, 3), slice(3, 6), slice(6, 9)):
            assert (np.max(np.abs(path[:, block] - ref_path[:, block]))
                    <= TAYLOR_LOOP_BOUND * np.max(np.abs(ref_path[:, block])))
        assert np.array_equal(jacs[:, :6], ref_jacs[:, :6])
        assert (np.max(np.abs(jacs[:, 6:] - ref_jacs[:, 6:]))
                <= TAYLOR_LOOP_BOUND * np.max(np.abs(ref_jacs[:, 6:])))
        differ = differ or path.tobytes() != ref_path.tobytes()
    assert differ


def test_the_taylor_loop_raises_on_a_collapsed_speed(tracking_models):
    model, _ = tracking_models
    steps = dataclasses.replace(model, taylor_loop=None)
    grid = FlowGrid(0.1, 8)
    at_start = pack_state(np.ones(3), [1e-7, 0.0, 0.0], [0.0, 1.0, 0.0])
    # a speed of 3e-6 that the acceleration, along -v, drives through zero
    mid_interval = pack_state(np.ones(3), [3e-6, 0.0, 0.0], [-3e-6 * 0.7 / grid.step, 0.0, 0.0])
    for x0 in (at_start, mid_interval):
        for m in (model, steps):
            with pytest.raises(SingularStateError):
                integrate_flow(m, x0, grid)


@pytest.mark.parametrize("block", [0, 3, 6])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_the_taylor_loop_reports_a_non_finite_start_as_a_divergence(tracking_models, block,
                                                                    bad):
    model, _ = tracking_models
    x0 = pack_state([9000.0, 2000.0, 3000.0], [-200.0, 80.0, 0.0], [0.0, 0.0, 20.0])
    x0[block] = bad
    for m in (model, dataclasses.replace(model, taylor_loop=None)):
        # the callers' errstate, which keeps the array steps quiet
        with pytest.raises(DivergenceError), np.errstate(over="ignore", invalid="ignore"):
            integrate_flow(m, x0, FlowGrid(0.1, 8))


def test_the_ekf_runs_the_loop_of_b(tracking_models):
    model, _ = tracking_models
    # b is xi, so b's loop is xi's and the EKF's mean follows the GIF's flow
    assert model.drift_b is model.xi and model.drift_b_taylor_loop is model.taylor_loop
    b_model = model.drift_b_model
    assert b_model.xi is model.drift_b and b_model.taylor_loop is model.drift_b_taylor_loop
    mean = pack_state([9000.0, 2000.0, 3000.0], [-200.0, 80.0, 0.0], [0.0, 0.0, 20.0])
    cov = np.diag([100.0, 100.0, 100.0, 25.0, 25.0, 25.0, 4.0, 4.0, 4.0])
    got = ekf_predict(model, (mean, cov), 0.1, 8)
    assert got[0].tobytes() == integrate_flow(model, mean, FlowGrid(0.1, 8))[0][-1].tobytes()
    # without b's loop the EKF takes the array steps, whatever xi's loop
    no_b_loop = dataclasses.replace(model, drift_b_taylor_loop=None)
    assert no_b_loop.drift_b_model.taylor_loop is None
    got = ekf_predict(no_b_loop, (mean, cov), 0.1, 8)
    want = ekf_predict(without_taylor_loops(model), (mean, cov), 0.1, 8)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


# --- the simulator's own Euler loop ----------------------------------------------------

# the loop reorders the array substeps' arithmetic; its state stays within
# this bound of theirs, relative to the largest entry of each block
EULER_LOOP_BOUND = 1e-13

BLOCKS = (slice(0, 3), slice(3, 6), slice(6, 9))


def _block_deviation(got, want):
    """The largest |got - want| of a block relative to its largest |want|,
    over the three blocks."""
    return max(np.max(np.abs(got[b] - want[b])) / np.max(np.abs(want[b])) for b in BLOCKS)


def _array_cycles(scenario, seed, monkeypatch):
    """The arguments and result of every array Euler cycle of the
    scenario's simulation without its own loop."""
    cycles = []
    arrays = harness._euler_arrays

    def recorded(*args):
        cycles.append((args[1:], arrays(*args)))
        return cycles[-1][1]

    monkeypatch.setattr(harness, "_euler_arrays", recorded)
    no_loop = dataclasses.replace(scenario.diffusion, euler_loop=None)
    simulate_sde(dataclasses.replace(scenario, diffusion=no_loop), trajectory_rng(seed, 0))
    return cycles


# perfbench's tracking workload: its seeds 0-2 simulate these nine tracks
@pytest.mark.parametrize("seed", range(9))
def test_the_euler_loop_matches_the_array_substeps(seed, monkeypatch):
    config = ScenarioConfig(model="tracking9d", delta=0.1, n_obs=50, seed=seed)
    scenario = build_scenario(config)
    loop = scenario.diffusion.euler_loop
    cycles = _array_cycles(scenario, seed, monkeypatch)
    assert len(cycles) == config.n_obs
    for (x, ref, normals, dt, sqrt_dt), want in cycles:
        assert _block_deviation(loop(x, ref, normals, dt, sqrt_dt), want) <= EULER_LOOP_BOUND
        # negative control: a relative change of 1e-9 in the noise fails the bound
        nudged = loop(x, ref, normals * (1.0 + 1e-9), dt, sqrt_dt)
        assert _block_deviation(nudged, want) > EULER_LOOP_BOUND


def _euler_outcome(run):
    """The state, None, or the class and message of what ``run`` raised."""
    try:
        return run()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


def _both_euler_paths(model, x, finite_seen, substeps, dt=0.005):
    """The outcomes of one cycle of the model's Euler loop and of the
    array substeps, from x with x its reference; the array constraint
    appends to ``finite_seen`` whether each state it sees is finite."""
    def constrain(y, ref):
        finite_seen.append(bool(np.isfinite(y).all()))
        return project_state(y, ref)

    arrays = dataclasses.replace(model, euler_loop=None, constrain=constrain)
    normals = np.random.default_rng(1).standard_normal((substeps, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        return (_euler_outcome(lambda: model.euler_loop(x, x, normals, dt, math.sqrt(dt))),
                _euler_outcome(lambda: harness._euler_arrays(arrays, x, x, normals, dt,
                                                              math.sqrt(dt))))


@pytest.mark.parametrize("x0,substeps,outcome,constraint_calls", [
    # a speed below the floor at the start: the drift raises
    (pack_state(np.ones(3), [1e-7, 0.0, 0.0], [0.0, 1.0, 0.0]), 20,
     (SingularStateError, "speed collapsed during flow evaluation"), 0),
    # an acceleration that takes the velocity to zero in one substep of
    # 0.005: the projection raises
    (pack_state(np.ones(3), [1e-3, 0.0, 0.0], [-0.2, 0.0, 0.0]), 20,
     (SingularStateError, "cannot project a state with vanishing speed"), 1),
    # a.a near the largest float: the first substep stays finite, and the
    # second overflows and ends the cycle before its projection
    (pack_state(np.ones(3), [1.0, 0.0, 0.0], [0.0, 1e153, 0.0]), 20, None, 1),
    # a finite substep whose projection overflows (v (v.a) past the largest
    # float), in a cycle of one substep: the state at the end is not finite
    (pack_state(np.ones(3), [1e5, 0.0, 0.0], [7e152, 0.0, 0.0]), 1, None, 1),
], ids=["collapse-at-the-drift", "collapse-at-the-projection", "overflow-mid-cycle",
        "overflow-in-the-last-projection"])
def test_the_euler_loop_fails_as_the_array_substeps_do(tracking_models, x0, substeps, outcome,
                                                       constraint_calls):
    model, _ = tracking_models
    finite_seen = []
    loop_outcome, array_outcome = _both_euler_paths(model, x0, finite_seen, substeps)
    assert loop_outcome == array_outcome == outcome
    # the array constraint sees only finite states
    assert finite_seen == [True] * constraint_calls


@pytest.mark.parametrize("block", [0, 3, 6])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_the_euler_loop_reports_a_non_finite_start_as_a_divergence(block, bad):
    scenario = build_scenario(ScenarioConfig(model="tracking9d", delta=0.1, n_obs=3))
    x0 = scenario.x0.copy()
    x0[block] = bad
    start = dataclasses.replace(scenario, x0=x0)
    for model in (scenario.diffusion, dataclasses.replace(scenario.diffusion, euler_loop=None)):
        # simulate_sde reads the noise dimension from noise_matrix(x0)
        # outside its errstate
        with np.errstate(invalid="ignore"):
            record = simulate_sde(dataclasses.replace(start, diffusion=model),
                                  trajectory_rng(0, 0))
        assert record.diverged_at == 0
        assert np.isnan(record.truth).all() and np.isnan(record.observations).all()


def test_the_spherical_gradient_is_the_inverse_jacobian():
    rng = np.random.default_rng(81)
    for _ in range(2000):
        y = (10.0 ** rng.uniform(-3.0, 5.0), rng.uniform(0.01, math.pi - 0.01),
             rng.uniform(-math.pi, math.pi))
        closed = tracking._spherical_gradient(y)
        inverse = np.linalg.inv(spherical_jacobian(y))
        assert np.max(np.abs(closed - inverse)) <= 1e-14 * np.max(np.abs(inverse))
