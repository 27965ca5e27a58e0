"""Tests for flow integration, transition Jacobians, covariance, and AILPs."""

import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from gifilter.errors import DivergenceError, IllConditionedFlowError, SingularStateError
from gifilter import flow
from gifilter.ekf import ekf_step
from gifilter.filter import FilterConfig, filter_step
from gifilter.flow import (
    DiffusionModel,
    FloatForms,
    FlowGrid,
    _to_end,
    ailp_state,
    flow_grid,
    flow_second_fundamental_form,
    integrate_flow,
    precompute,
    propagate_covariance,
    transition_jacobians,
)
from gifilter.geometry import SYMMETRY_RTOL, check_symmetric, flat_connector
from gifilter.harness import (
    ScenarioConfig,
    build_scenario,
    transformed_cubic_model,
    van_loan_discretization,
)
from gifilter.models.cubic1d import Cubic1DParams
from gifilter.observation import ObservationModel

from helpers import (
    assert_broadcasts_over_points,
    collapsing_model,
    counting,
    random_tracking_state,
)
from fixture_defs import _linear_flow_model, _ou_model, _sq_drift_model
from oracles import (
    cubic1d_analytic_ailp,
    cubic1d_analytic_flow,
    dense_ailp_integrand,
    dense_flow_form,
    drift_consistency_residual,
    loop_covariance,
    loop_from_start,
    loop_to_end,
    path_hessian,
    sym_outer,
)


def make_scalar_model(xi, dxi, d2xi, alpha):
    # d2xi maps one float to a float; vectorize applies it at every point
    return DiffusionModel(
        dim=1,
        xi=lambda x: np.array([xi(x[0])]),
        dxi=lambda x: np.array([[dxi(x[0])]]),
        d2xi_contract=lambda x, chi: np.vectorize(d2xi, otypes=[float])(x) * chi[..., 0, :],
        alpha=lambda x: np.full(x.shape[:-1] + (1, 1), alpha),
        conn=flat_connector(1),
        drift_b=lambda x: np.array([xi(x[0])]),
    )


def make_linear_model(a_mat, alpha_mat):
    p = a_mat.shape[0]
    return DiffusionModel(
        dim=p,
        xi=lambda x: a_mat @ x,
        dxi=lambda x: a_mat,
        d2xi_contract=lambda x, chi: np.zeros(np.broadcast_shapes(x.shape, chi.shape[:-1])),
        alpha=lambda x: np.broadcast_to(alpha_mat, x.shape[:-1] + (p, p)),
        conn=flat_connector(p),
        drift_b=lambda x: a_mat @ x,
    )


def _from_start(per_step, grid):
    """tau_0^{t_k} as propagate_covariance forms them; they do not depend
    on the covariance, so a zero one does."""
    n, p, _ = per_step.shape
    return propagate_covariance(np.zeros((n + 1, p, p)), per_step, np.zeros((p, p)), grid)[1]


def _propagate(model, x0, sigma0, grid):
    """Path, diffusion variances, covariances and both products over one grid."""
    path, jacs = integrate_flow(model, x0, grid)
    per_step = transition_jacobians(jacs, grid)
    alphas = model.alpha(path)
    xis, from_start = propagate_covariance(alphas, per_step, sigma0, grid)
    return path, alphas, xis, from_start, _to_end(per_step)


CUBIC = make_scalar_model(lambda x: -0.5 * x ** 3, lambda x: -1.5 * x ** 2,
                          lambda x: -3.0 * x, 0.01)


def test_flow_grid_step_and_validation(cubic_models):
    grid = FlowGrid(2.0, 5)
    assert grid.step == 0.4
    assert np.array_equal(grid.weights, [0.2, 0.4, 0.4, 0.4, 0.4, 0.2])
    assert FlowGrid(1.0, np.int64(4)).n_steps == 4
    for delta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            FlowGrid(delta, 4)
    for n_steps in (0, 8.5, 8.0, True):
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            FlowGrid(1.0, n_steps)
    # a bad interval is a config error, not a numerics error the harness
    # would retry on finer grids
    model, obs = cubic_models
    est = (np.array([0.5]), np.array([[0.1]]))
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        filter_step(model, obs, est, np.array([0.3]), FilterConfig(delta=float("nan")))
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        ekf_step(model, obs, est, np.array([0.3]), delta=float("inf"), n_substeps=8)


# --- integrate_flow ----------------------------------------------------------


def test_zero_drift_constant_path():
    model = make_scalar_model(lambda x: 0.0, lambda x: 0.0, lambda x: 0.0, 0.0)
    path, _ = integrate_flow(model, np.array([1.3]), FlowGrid(2.0, 10))
    assert np.allclose(path, 1.3)


def test_cubic_flow_matches_closed_form():
    # third-order one-step scheme at h = 3/64: the global truncation constant
    # puts the endpoint within 2e-6 of the closed form 0.5 (see the decisions
    # log for why 1e-6 is not attainable at this grid)
    path, _ = integrate_flow(CUBIC, np.array([1.0]), FlowGrid(3.0, 64))
    assert abs(path[-1][0] - 0.5) < 2e-6
    fine, _ = integrate_flow(CUBIC, np.array([1.0]), FlowGrid(3.0, 512))
    assert abs(fine[-1][0] - 0.5) < 1e-8


def test_cubic_flow_third_order_convergence():
    errors = []
    for n in (16, 32, 64, 128):
        path, _ = integrate_flow(CUBIC, np.array([1.0]), FlowGrid(3.0, n))
        errors.append(abs(path[-1][0] - cubic1d_analytic_flow(1.0, 3.0)))
    for big, small in zip(errors, errors[1:]):
        assert 6.0 <= big / small <= 10.0


def test_linear_flow_matches_matrix_exponential():
    rng = np.random.default_rng(21)
    a_mat = rng.standard_normal((3, 3))
    model = make_linear_model(a_mat, np.zeros((3, 3)))
    x0 = rng.standard_normal(3)
    path, _ = integrate_flow(model, x0, FlowGrid(0.1, 64))
    expected = scipy.linalg.expm(0.1 * a_mat) @ x0
    assert np.max(np.abs(path[-1] - expected)) < 1e-8


def make_inert_2d_model(xi, dxi, d2xi):
    """The dynamics of ``make_scalar_model`` in coordinate 0 of a 2-D state
    whose coordinate 1 never moves: the same flow on the array path."""
    def d2xi_contract(x, chi):
        out = np.zeros(np.broadcast_shapes(x.shape, chi.shape[:-1]))
        out[..., 0] = np.vectorize(d2xi, otypes=[float])(x[..., 0]) * chi[..., 0, 0]
        return out

    return DiffusionModel(
        dim=2,
        xi=lambda x: np.array([xi(x[0]), 0.0]),
        dxi=lambda x: np.array([[dxi(x[0]), 0.0], [0.0, 0.0]]),
        d2xi_contract=d2xi_contract,
        alpha=lambda x: np.zeros(x.shape[:-1] + (2, 2)),
        conn=flat_connector(2),
        drift_b=lambda x: np.array([xi(x[0]), 0.0]),
    )


def _exploding_flow(dim):
    """dx/dt = x^3, as a scalar model with float forms (the float path) or in
    a 2-D model with an inert coordinate (the array path), and its start
    state from x_0.  The powers are products, which overflow to inf on
    Python floats as on arrays."""
    xi, dxi, d2xi = lambda x: x * x * x, lambda x: 3 * x * x, lambda x: 6 * x
    if dim == 1:
        forms = FloatForms(xi=xi, dxi=dxi, d2xi_contract=lambda x, chi: d2xi(x) * chi,
                           alpha=lambda x: 0.0)
        model = dataclasses.replace(make_scalar_model(xi, dxi, d2xi, 0.0), float_forms=forms)
        return model, lambda x0: np.array([x0])
    return make_inert_2d_model(xi, dxi, d2xi), lambda x0: np.array([x0, 0.0])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_flow_divergence_reports_step(dim):
    model, start = _exploding_flow(dim)
    with pytest.raises(DivergenceError, match="flow integration diverged"):
        integrate_flow(model, start(5.0), FlowGrid(10.0, 5))


def _refuse_non_finite(fn):
    def guarded(x, *rest):
        if not np.isfinite(x).all():
            raise SingularStateError("non-finite state")
        return fn(x, *rest)
    return guarded


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("callback", ["xi", "dxi", "d2xi_contract"])
def test_a_callback_refusing_a_diverged_state_still_reports_the_divergence(callback, dim):
    # the path is checked once per interval, so the steps after a divergence
    # hand its non-finite state to the callbacks; one that raises on it
    # ends as the DivergenceError of a check after every step, which the
    # harness retries on a finer grid
    base, start = _exploding_flow(dim)
    # the callbacks the Taylor loop calls: the float forms of the scalar model
    owner = base if base.float_forms is None else base.float_forms
    refusing = dataclasses.replace(owner, **{callback: _refuse_non_finite(getattr(owner, callback))})
    model = refusing if owner is base else dataclasses.replace(base, float_forms=refusing)
    with pytest.raises(DivergenceError, match="flow integration diverged"):
        integrate_flow(model, start(5.0), FlowGrid(10.0, 5))
    # the start state is no step of the flow: refusing it is the callback's
    # own error, as it always was
    with pytest.raises(SingularStateError):
        integrate_flow(model, start(np.nan), FlowGrid(10.0, 5))


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("sigma0", [0.0, -0.0, 0.3])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 8, 64, 2048])
def test_the_float_path_equals_the_array_path_bit_for_bit(cubic_models, n_steps, sigma0):
    # a 1-D state steps and recurses on Python floats: the Taylor step
    # through the float forms equals the array step through the array
    # callbacks, the path of every other model, called here on the same
    # inputs, in the cubic's chart and in the transformed one; and the
    # covariance, tau_0^{t_k} and tau_{t_k}^delta equal the step-by-step
    # matrix recursions of the loop oracles
    transformed = transformed_cubic_model(Cubic1DParams())[0]
    grid = FlowGrid(1.0, n_steps)
    for model in (transformed, cubic_models[0]):  # the cubic's path feeds the maps below
        x0 = np.array([0.8])
        path, jacs = integrate_flow(model, x0, grid)
        array_path = np.zeros_like(path)
        array_jacs = np.empty_like(jacs)
        array_path[0] = x0
        flow._taylor_arrays(model, grid.step, array_path, array_jacs)
        assert _same_bits(path, array_path) and _same_bits(jacs, array_jacs)

    # the cubic's maps and variances, then adversarial ones the recursions
    # must compose exactly alike: negative and signed-zero maps with
    # signed-zero variances, and variances so large that Xi overflows
    rng = np.random.default_rng(n_steps)
    cubic_maps = transition_jacobians(jacs, grid)
    signed = rng.choice([-1.5, -0.0, 0.0, 0.7, 1.2], size=(n_steps, 1, 1))
    signed *= rng.uniform(0.5, 1.5, size=signed.shape)
    zero_or_not = rng.choice([-0.0, 0.0, 0.02], size=(n_steps + 1, 1, 1))
    huge = np.full((n_steps + 1, 1, 1), np.finfo(float).max)
    cov0 = np.array([[sigma0]])
    for per_step, alphas in ((cubic_maps, model.alpha(path)), (signed, zero_or_not),
                             (cubic_maps, huge)):
        xis, from_start = propagate_covariance(alphas, per_step, cov0, grid)
        assert _same_bits(xis, loop_covariance(alphas, per_step, cov0, grid))
        assert _same_bits(from_start, loop_from_start(per_step))
        assert _same_bits(_to_end(per_step), loop_to_end(per_step))


def test_float_forms_belong_to_a_scalar_state_and_follow_b_to_the_ekf(cubic_models):
    model = cubic_models[0]
    forms = model.float_forms
    with pytest.raises(ValueError, match="float forms need a one-dimensional state"):
        dataclasses.replace(make_linear_model(np.eye(2), np.eye(2)), float_forms=forms)
    # on a flat connector b is xi: the EKF's model keeps the forms, so
    # cubic1d's EKF runs on floats; a curved model's EKF runs on arrays
    assert model.drift_b_model.float_forms is model.float_forms
    transformed = transformed_cubic_model(Cubic1DParams())[0]
    curved = dataclasses.replace(transformed, ddrift_b=transformed.dxi,
                                 d2drift_b_contract=transformed.d2xi_contract)
    assert curved.float_forms is not None and curved.drift_b_model.float_forms is None
    # a model's own Taylor loop, xi's or b's, replaces the forms' steps
    for field in ("taylor_loop", "drift_b_taylor_loop"):
        with pytest.raises(ValueError, match="float forms or a Taylor loop"):
            dataclasses.replace(model, **{field: lambda x0, xi0, h, n: None})
    # and so does a model's own Euler loop of the simulator
    with pytest.raises(ValueError, match="float forms or an Euler loop"):
        dataclasses.replace(model, euler_loop=lambda x, ref, normals, dt, sqrt_dt: None)


def test_a_flat_model_whose_float_forms_lack_alpha_is_refused(cubic_models):
    # the scalar cycle reads alpha from the forms: without it a filter
    # cycle would fail deep in the flow, so the model is refused when built
    model = cubic_models[0]
    forms = model.float_forms
    with pytest.raises(ValueError, match="float forms need alpha"):
        dataclasses.replace(model, float_forms=FloatForms(forms.xi, forms.dxi,
                                                          forms.d2xi_contract,
                                                          noise_matrix=forms.noise_matrix))
    # a curved model reads alpha from its arrays, so its forms may omit it
    assert transformed_cubic_model(Cubic1DParams())[0].float_forms.alpha is None


# --- transition_jacobians ------------------------------------------------------


def test_zero_drift_identity_jacobians():
    model = make_scalar_model(lambda x: 0.0, lambda x: 0.0, lambda x: 0.0, 0.0)
    grid = FlowGrid(1.0, 8)
    _, jacs = integrate_flow(model, np.array([0.2]), grid)
    per_step = transition_jacobians(jacs, grid)
    assert per_step.shape == (8, 1, 1)
    for tau in per_step:
        assert np.allclose(tau, np.eye(1))
    assert np.allclose(_from_start(per_step, grid)[-1], np.eye(1))


def test_constant_jacobian_matches_matrix_exponential():
    rng = np.random.default_rng(22)
    a_mat = rng.standard_normal((3, 3)) * 0.8
    model = make_linear_model(a_mat, np.zeros((3, 3)))
    grid = FlowGrid(0.7, 32)
    _, jacs = integrate_flow(model, rng.standard_normal(3), grid)
    tau = _from_start(transition_jacobians(jacs, grid), grid)[-1]
    assert np.max(np.abs(tau - scipy.linalg.expm(0.7 * a_mat))) < 1e-10


def test_semigroup_association_order():
    grid = FlowGrid(1.0, 16)
    _, jacs = integrate_flow(CUBIC, np.array([1.0]), grid)
    per_step = transition_jacobians(jacs, grid)
    forward = np.eye(1)
    for tau in per_step:
        forward = tau @ forward
    backward = np.eye(1)
    for tau in reversed(per_step):
        backward = backward @ tau
    assert abs(forward[0, 0] - backward[0, 0]) < 1e-12
    assert abs(forward[0, 0] - _from_start(per_step, grid)[-1, 0, 0]) < 1e-12


def test_ill_conditioned_flow_detected():
    # strong saddle: cond(tau) ~ exp(32) over the interval
    a_mat = np.diag([16.0, -16.0])
    model = make_linear_model(a_mat, np.zeros((2, 2)))
    x0 = np.zeros(2)
    with pytest.raises(IllConditionedFlowError):
        precompute(model, x0, np.eye(2), FlowGrid(1.0, 64))


# --- propagate_covariance -------------------------------------------------------


def test_no_noise_no_drift_keeps_covariance():
    model = make_scalar_model(lambda x: 0.0, lambda x: 0.0, lambda x: 0.0, 0.0)
    grid = FlowGrid(1.0, 8)
    xis = _propagate(model, np.array([0.0]), np.array([[0.7]]), grid)[2]
    assert all(abs(x[0, 0] - 0.7) < 1e-15 for x in xis)


def test_ou_variance_matches_lyapunov_solution():
    a, sig, delta, sigma0 = 0.5, 0.3, 0.5, 0.2
    model = make_scalar_model(lambda x: -a * x, lambda x: -a, lambda x: 0.0, sig ** 2)
    grid = FlowGrid(delta, 64)
    xis = _propagate(model, np.array([1.0]), np.array([[sigma0]]), grid)[2]
    expected = np.exp(-2 * a * delta) * sigma0 + sig ** 2 * (1 - np.exp(-2 * a * delta)) / (2 * a)
    assert abs(xis[-1][0, 0] - expected) < 1e-6


def test_covariance_stays_symmetric_psd_along_grid():
    rng = np.random.default_rng(23)
    a_mat = rng.standard_normal((3, 3))
    sig = rng.standard_normal((3, 3)) * 0.5
    model = make_linear_model(a_mat, sig @ sig.T)
    grid = FlowGrid(0.5, 32)
    x0 = rng.standard_normal(3)
    raw = rng.standard_normal((3, 3))
    xis = _propagate(model, x0, raw @ raw.T, grid)[2]
    for x in xis:
        assert np.array_equal(x, x.T)
        eigs = np.linalg.eigvalsh(x)
        assert eigs[0] >= -1e-10 * max(eigs[-1], 0.0)


# --- ailp_state -----------------------------------------------------------------


def test_linear_model_has_zero_location_correction():
    rng = np.random.default_rng(24)
    a_mat = rng.standard_normal((3, 3))
    sig = rng.standard_normal((3, 3))
    model = make_linear_model(a_mat, sig @ sig.T)
    grid = FlowGrid(0.4, 16)
    x0 = rng.standard_normal(3)
    path, alphas, xis, from_start, to_end = _propagate(model, x0, np.eye(3), grid)
    m_delta = ailp_state(model, path, alphas, from_start, to_end, xis, np.eye(3), grid)
    assert np.array_equal(m_delta, np.zeros(3))


def test_cubic_location_correction_matches_analytic():
    grid = FlowGrid(1.0, 128)
    x0 = np.array([1.0])
    sigma0 = np.array([[0.01]])
    path, alphas, xis, from_start, to_end = _propagate(CUBIC, x0, sigma0, grid)
    m_num = ailp_state(CUBIC, path, alphas, from_start, to_end, xis, sigma0, grid)[0]
    m_ana = cubic1d_analytic_ailp(1.0, 0.01, 0.01, 1.0)
    assert abs(m_num - m_ana) / abs(m_ana) < 1e-4


# --- flow second fundamental form ------------------------------------------------


def _random_sym(rng, p):
    raw = rng.standard_normal((p, p))
    return raw + raw.T


def test_linear_flow_second_form_vanishes():
    rng = np.random.default_rng(25)
    model = make_linear_model(rng.standard_normal((3, 3)), np.zeros((3, 3)))
    grid = FlowGrid(0.3, 8)
    path, _, _, from_start, to_end = _propagate(model, rng.standard_normal(3), np.eye(3), grid)
    form = flow_second_fundamental_form(model, path, from_start, to_end, grid,
                                        _random_sym(rng, 3))
    assert np.array_equal(form, np.zeros(3))


def test_cubic_flow_second_form_matches_flow_map_hessian():
    # flat connector, so the form is the plain second derivative of the flow
    # map, checked against central differences of the closed-form flow
    delta, x0, h = 1.0, 1.0, 1e-4
    grid = FlowGrid(delta, 256)
    path, _, _, from_start, to_end = _propagate(CUBIC, np.array([x0]), np.eye(1), grid)
    form = flow_second_fundamental_form(CUBIC, path, from_start, to_end, grid,
                                        np.ones((1, 1)))[0]
    fd = (cubic1d_analytic_flow(x0 + h, delta) - 2.0 * cubic1d_analytic_flow(x0, delta)
          + cubic1d_analytic_flow(x0 - h, delta)) / h ** 2
    assert abs(form - fd) / abs(fd) < 1e-3


def test_flow_second_form_grid_refinement_second_order():
    x0 = np.array([1.0])
    values = []
    for n in (8, 16, 32, 64):
        grid = FlowGrid(1.0, n)
        path, _, _, from_start, to_end = _propagate(CUBIC, x0, np.eye(1), grid)
        values.append(flow_second_fundamental_form(CUBIC, path, from_start, to_end, grid,
                                                   np.ones((1, 1)))[0])
    diffs = [abs(a - b) for a, b in zip(values, values[1:])]
    for big, small in zip(diffs, diffs[1:]):
        assert 3.0 <= big / small <= 5.0


def test_tracking_flow_second_form_matches_pair_loop(tracking_models):
    # the stacked evaluation against the per-pair loop it replaced
    model, _ = tracking_models
    conn = model.conn
    rng = np.random.default_rng(28)
    x0 = random_tracking_state(rng, speed=200.0, scale=20.0)
    grid = FlowGrid(0.1, 8)
    path, _, _, from_start, to_end = _propagate(model, x0, np.eye(model.dim), grid)
    sym = _random_sym(rng, model.dim)
    form = flow_second_fundamental_form(model, path, from_start, to_end, grid, sym)
    p, n, h = model.dim, grid.n_steps, grid.step
    basis = np.eye(p)
    tau = from_start[-1]
    loop = np.zeros((p, p, p))
    for i in range(p):
        for j in range(p):
            for k in range(n + 1):
                weight = h * (0.5 if k in (0, n) else 1.0)
                a = from_start[k]
                chi = sym_outer(a[:, i], a[:, j])
                loop[:, i, j] += weight * to_end[k] @ model.d2xi_contract(path[k], chi)
            loop[:, i, j] += (conn.gamma(path[-1], tau[:, i], tau[:, j])
                              - tau @ conn.gamma(path[0], basis[i], basis[j]))
    expected = np.einsum("kij,ij->k", loop, sym)
    assert np.max(np.abs(form - expected)) <= 1e-12 * np.max(np.abs(expected))


# --- precompute -------------------------------------------------------------------


def test_precompute_degenerate_model_is_trivial():
    model = make_scalar_model(lambda x: 0.0, lambda x: 0.0, lambda x: 0.0, 0.0)
    x0 = np.array([0.4])
    grid = FlowGrid(1.0, 4)
    bundle = precompute(model, x0, np.array([[0.25]]), grid)
    assert np.allclose(bundle.x_delta, x0)
    assert np.allclose(bundle.from_start[-1], np.eye(1))
    assert np.allclose(bundle.xi_delta, 0.25)
    assert np.array_equal(bundle.m_delta, np.zeros(1))
    form = flow_second_fundamental_form(model, bundle.x_path, bundle.from_start, bundle.to_end,
                                        grid, np.ones((1, 1)))
    assert np.array_equal(form, np.zeros(1))


def test_precompute_linear_matches_kalman_predict():
    rng = np.random.default_rng(26)
    a_mat = rng.standard_normal((3, 3)) * 0.5
    sig = rng.standard_normal((3, 3)) * 0.4
    model = make_linear_model(a_mat, sig @ sig.T)
    delta = 0.05
    x0 = rng.standard_normal(3)
    p0 = np.eye(3) * 0.3
    bundle = precompute(model, x0, p0, FlowGrid(delta, 128))
    fmat, qd = van_loan_discretization(a_mat, sig @ sig.T, delta)
    assert np.max(np.abs(bundle.x_delta - fmat @ x0)) < 1e-9
    assert np.max(np.abs(bundle.xi_delta - (fmat @ p0 @ fmat.T + qd))) < 1e-8
    assert np.array_equal(bundle.m_delta, np.zeros(3))


def test_precompute_matches_finer_grid():
    x0 = np.array([1.0])
    sigma0 = np.array([[0.01]])
    coarse_grid, fine_grid = FlowGrid(1.0, 64), FlowGrid(1.0, 640)
    coarse = precompute(CUBIC, x0, sigma0, coarse_grid)
    fine = precompute(CUBIC, x0, sigma0, fine_grid)

    def rel(a, b):
        return abs(a - b) / max(abs(b), 1e-30)

    assert rel(coarse.x_delta[0], fine.x_delta[0]) < 1e-4
    assert rel(coarse.from_start[-1, 0, 0], fine.from_start[-1, 0, 0]) < 1e-4
    assert rel(coarse.xi_delta[0, 0], fine.xi_delta[0, 0]) < 1e-4
    assert rel(coarse.m_delta[0], fine.m_delta[0]) < 1e-4
    one = np.ones((1, 1))
    assert rel(flow_second_fundamental_form(CUBIC, coarse.x_path, coarse.from_start,
                                            coarse.to_end, coarse_grid, one),
               flow_second_fundamental_form(CUBIC, fine.x_path, fine.from_start, fine.to_end,
                                            fine_grid, one)) < 1e-4


def test_precompute_evaluates_alpha_and_hessian_once_on_the_path():
    # tracking9d: a curved connector, so ailp_state needs alpha as well; the
    # Taylor step calls d2xi_contract once per step, ailp_state once more;
    # the model's own Taylor loop replaces the step's callbacks but for xi
    # at the start
    scenario = build_scenario(ScenarioConfig(model="tracking9d", n_obs=1, delta=0.1))
    names = ("xi", "dxi", "alpha", "d2xi_contract")
    mu0 = scenario.mu0
    for loop, expected in ((None, {"xi": 8, "dxi": 9, "alpha": 1, "d2xi_contract": 9}),
                           (scenario.diffusion.taylor_loop,
                            {"xi": 1, "alpha": 1, "d2xi_contract": 1})):
        calls = Counter()
        model = counting(dataclasses.replace(scenario.diffusion, taylor_loop=loop), names, calls)
        precompute(model, mu0, scenario.sigma0, FlowGrid(0.1, 8))
        assert calls == expected


@pytest.mark.parametrize("n_steps", [8, 64])
def test_ailp_state_contracts_the_whole_path_in_one_call(n_steps):
    # tracking9d's curved connector: one stacked contraction of alpha over
    # the path, and one at each endpoint, whatever the grid size
    scenario = build_scenario(ScenarioConfig(model="tracking9d", n_obs=1, delta=0.1))
    model = scenario.diffusion
    calls = Counter()
    counted = dataclasses.replace(model, conn=counting(model.conn, ("contract_fn",), calls))
    grid = FlowGrid(0.1, n_steps)
    mu0 = scenario.mu0
    sigma0 = scenario.sigma0
    path, alphas, xis, from_start, to_end = _propagate(model, mu0, sigma0, grid)
    ailp_state(counted, path, alphas, from_start, to_end, xis, sigma0, grid)
    assert calls == {"contract_fn": 3}


def test_precompute_memory_stays_linear_in_the_grid():
    # one 2048-substep interval of a 9-D model, precompute plus one flow-form
    # contraction: (n + 1) p^2 arrays are 1.3 MB each, where a dense
    # (n + 1) p^3 Hessian stack would be 12 MB and a p^4 pair stack 108 MB
    scenario = build_scenario(ScenarioConfig(model="tracking9d", n_obs=1, delta=0.1))
    model = scenario.diffusion
    mu0 = scenario.mu0
    sigma0 = scenario.sigma0
    grid = FlowGrid(0.1, 2048)
    tracemalloc.start()
    try:
        bundle = precompute(model, mu0, sigma0, grid)
        flow_second_fundamental_form(model, bundle.x_path, bundle.from_start, bundle.to_end,
                                     grid, sigma0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50e6


def test_grids_and_the_ekf_drift_model_are_built_once(cubic_models):
    grid = flow_grid(0.5, 8)
    assert flow_grid(0.5, 8) is grid
    assert grid == FlowGrid(0.5, 8)
    assert not grid.weights.flags.writeable
    model = cubic_models[0]
    b_model = model.drift_b_model
    assert model.drift_b_model is b_model
    assert b_model.xi is model.drift_b and b_model.dxi is model.ddrift_b
    assert b_model.d2xi_contract is model.d2drift_b_contract


def _one_observation_of_coordinate_0(dim):
    """A flat observation of coordinate 0 of a dim-dimensional state."""
    jac = np.eye(1, dim)
    return ObservationModel(dim_obs=1, psi=lambda x: x[:1], dpsi=lambda x: jac,
                            d2psi=lambda x: np.zeros((1, dim, dim)),
                            beta=lambda y: np.array([[0.1]]), conn_obs=flat_connector(1))


def test_tau_delta_0_computed_once(monkeypatch, cubic_models):
    # one GIF cycle forms tau_delta^0 and the products to the end once each
    # (precompute), and rho_build and ailp_state read them from the bundle;
    # a 1x1 tau_0^delta is inverted on floats and a 2x2 one by one LAPACK
    # inv, and neither model's callbacks invert anything themselves
    inert = make_inert_2d_model(lambda x: -x ** 3, lambda x: -3 * x ** 2, lambda x: -6 * x)
    cases = [(cubic_models, 0), ((inert, _one_observation_of_coordinate_0(2)), 1)]
    inv, to_end = np.linalg.inv, flow._to_end
    for (model, obs), inversions in cases:
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(np.linalg, "inv", counted("inv", inv))
        monkeypatch.setattr(flow, "_to_end", counted("to_end", to_end))
        x0, sigma0 = np.full(model.dim, 0.8), 0.02 * np.eye(model.dim)
        filter_step(model, obs, (x0, sigma0), np.array([0.5]), FilterConfig(delta=1.0))
        assert (calls["inv"], calls["to_end"]) == (inversions, 1), model.dim
        monkeypatch.undo()
        bundle = precompute(model, x0, sigma0, FlowGrid(1.0, 8))
        assert np.array_equal(bundle.tau_delta_0, np.linalg.inv(bundle.from_start[-1]))


def test_tau_inverse_identity():
    bundle = precompute(CUBIC, np.array([1.0]), np.array([[0.01]]),
                        FlowGrid(1.0, 16))
    tau = bundle.from_start[-1]
    assert abs(bundle.tau_delta_0 @ tau - np.eye(1))[0, 0] < 1e-8
    assert np.linalg.cond(tau) < 1e12


def test_inverse_residual_check_rejects_a_flow_that_passes_the_condition_check():
    # a non-normal saddle: the condition number of tau_0^delta stays under
    # FLOW_COND_LIMIT, but its computed inverse is off the identity by more
    # than 1e-8, so only the identity-residual test of _checked_inverse
    # catches it
    basis = np.random.default_rng(1).standard_normal((2, 2))
    a_mat = basis @ np.diag([11.0, -11.0]) @ np.linalg.inv(basis)
    model = make_linear_model(a_mat, np.zeros((2, 2)))
    grid = FlowGrid(1.0, 64)
    x0 = np.zeros(2)
    tau = _from_start(transition_jacobians(integrate_flow(model, x0, grid)[1], grid), grid)[-1]
    assert np.linalg.cond(tau) < 1e12
    with pytest.raises(IllConditionedFlowError, match="deviates from identity"):
        precompute(model, x0, np.eye(2), grid)


@pytest.mark.parametrize("dim", [1, 2], ids=["1x1", "2x2"])
def test_singular_tau_0_delta_is_an_ill_conditioned_flow(dim):
    # all singular values 0 used to pass the condition test, and the inverse
    # then raised numpy's bare LinAlgError ("Singular matrix")
    with pytest.raises(IllConditionedFlowError, match="singular or not finite"):
        precompute(collapsing_model(dim), np.ones(dim), np.eye(dim), FlowGrid(1.0, 8))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2], ids=["1x1", "2x2"])
def test_overflowing_jacobian_sum_is_a_silent_ill_conditioned_flow(dim):
    # -1e308 + -1e308 is past the float range: transition_jacobians used to
    # print numpy's "overflow encountered in add" before the same error
    with pytest.raises(IllConditionedFlowError, match="singular or not finite"):
        precompute(collapsing_model(dim, slope=-1e308), np.ones(dim), np.eye(dim),
                   FlowGrid(1.0, 8))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [1, 2], ids=["1x1", "2x2"])
def test_expanding_jacobian_is_a_silent_ill_conditioned_flow(dim):
    # Dxi = +1e4 I overflows the per-step exponential, which used to print
    # numpy's overflow warnings (and invalid-value ones from the covariance
    # scan and _to_end at p = 2) before the same error
    with pytest.raises(IllConditionedFlowError, match="singular or not finite"):
        precompute(collapsing_model(dim, slope=1e4), np.ones(dim), np.eye(dim),
                   FlowGrid(1.0, 8))


@pytest.mark.parametrize("tau", [
    [[0.0]], [[-0.0]], [[np.inf]], [[-np.inf]], [[np.nan]],
    np.zeros((2, 2)), [[1.0, 0.0], [0.0, np.nan]], [[np.inf, 0.0], [0.0, 1.0]],
], ids=["0", "-0", "inf", "-inf", "nan", "2x2-zero", "2x2-nan", "2x2-inf"])
def test_degenerate_tau_0_delta_fails_the_condition_check(tau):
    # an svd of a NaN entry used to raise numpy's bare LinAlgError ("SVD did
    # not converge"); each of these is now the retried flow error
    with pytest.raises(IllConditionedFlowError, match="singular or not finite"):
        flow._checked_inverse(np.array(tau))


# --- the path-stacked evaluation against the per-grid-point loops ---------------


def test_path_callbacks_broadcast_over_points(cubic_models, linear_models, tracking_models):
    rng = np.random.default_rng(29)
    line = rng.uniform(-1.5, 1.5, size=(6, 1))
    models = [
        (cubic_models[0], line),
        (linear_models[0], rng.standard_normal((6, 3))),
        (tracking_models[0], np.array([random_tracking_state(rng) for _ in range(6)])),
        (transformed_cubic_model(Cubic1DParams())[0], line),
        (CUBIC, line),
        (make_scalar_model(lambda x: 0.0, lambda x: 0.0, lambda x: 0.0, 0.0), line),
        (make_linear_model(rng.standard_normal((3, 3)), np.eye(3)), rng.standard_normal((6, 3))),
        (_linear_flow_model(), rng.standard_normal((6, 3))),
        (_ou_model(), line),
        (_sq_drift_model(), line),
    ]
    for model, points in models:
        assert_broadcasts_over_points(model, points, rng)


def _loop_transition_maps(jacs, grid):
    # the former per-slice exponentials, and the step-by-step products
    def expm(m):
        return np.exp(m) if m.shape == (1, 1) else scipy.linalg.expm(m)

    n, h = grid.n_steps, grid.step
    per_step = np.array([expm(0.5 * h * (jacs[k] + jacs[k + 1])) for k in range(n)])
    return per_step, loop_from_start(per_step), loop_to_end(per_step)


def _loop_ailp_state(model, path, per_step, from_start, xis, sigma0, grid):
    # the former transport recursion, with per-point callbacks
    h, conn = grid.step, model.conn

    def integrand(k):
        val = model.d2xi_contract(path[k], xis[k])
        if not conn.flat:
            val = val - conn.contract(path[k], model.alpha(path[k]))
        return val

    kappa = np.zeros(model.dim)
    prev = integrand(0)
    for k in range(grid.n_steps):
        cur = integrand(k + 1)
        kappa = 0.5 * h * cur + per_step[k] @ (kappa + 0.5 * h * prev)
        prev = cur
    if not conn.flat:
        kappa = (kappa - from_start[-1] @ conn.contract(path[0], sigma0)
                 + conn.contract(path[-1], xis[-1]))
    return 0.5 * kappa


def _loop_second_form(model, path, from_start, to_end, grid):
    # the per-grid-point pair loop of the dense flow form, coefficients [a, i, j]
    p, n, h, conn = model.dim, grid.n_steps, grid.step, model.conn
    coeffs = np.zeros((p, p, p))
    for k in range(n + 1):
        weight = h * (0.5 if k in (0, n) else 1.0)
        for i in range(p):
            for j in range(p):
                chi = sym_outer(from_start[k][:, i], from_start[k][:, j])
                coeffs[:, i, j] += weight * to_end[k] @ model.d2xi_contract(path[k], chi)
    if not conn.flat:
        tau = from_start[-1]
        basis = np.eye(p)
        for i in range(p):
            for j in range(p):
                coeffs[:, i, j] += (conn.gamma(path[-1], tau[:, i], tau[:, j])
                                    - tau @ conn.gamma(path[0], basis[i], basis[j]))
    return 0.5 * (coeffs + coeffs.transpose(0, 2, 1))


def _rel_close(new, ref, rtol=1e-12):
    return np.max(np.abs(new - ref)) <= rtol * np.max(np.abs(ref))


def _propagation_cases(cubic_models, linear_models, tracking_models, rng):
    """(model, x0, covariance, delta) for each model the propagation tests run."""
    raw = rng.standard_normal((3, 3))
    return {
        "cubic1d": (cubic_models[0], np.array([0.8]), np.array([[0.02]]), 1.0),
        "linear": (linear_models[0], rng.standard_normal(3), raw @ raw.T, 0.05),
        "tracking9d": (tracking_models[0],
                       np.array([9000.0, 2000.0, 3000.0, -200.0, 80.0, 0.0, 0.0, 0.0, 20.0]),
                       np.diag([100.0, 100.0, 100.0, 25.0, 25.0, 25.0, 4.0, 4.0, 4.0]), 0.1),
        "transformed_cubic": (transformed_cubic_model(Cubic1DParams())[0], np.array([0.9]),
                              np.array([[0.02]]), 1.0),
    }


@pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 8, 13, 16, 96, 2048])
@pytest.mark.parametrize("name", ["cubic1d", "linear", "tracking9d", "transformed_cubic"])
def test_scanned_products_and_covariance_match_the_loops(cubic_models, linear_models,
                                                         tracking_models, name, n_steps):
    # grid sizes that are not powers of two run the scans on identity padding
    rng = np.random.default_rng(32)
    model, x0, cov0, delta = _propagation_cases(cubic_models, linear_models, tracking_models,
                                                rng)[name]
    grid = FlowGrid(delta, n_steps)
    path, jacs = integrate_flow(model, x0, grid)
    per_step = transition_jacobians(jacs, grid)
    alphas = model.alpha(path)
    xis, from_start = propagate_covariance(alphas, per_step, cov0, grid)
    assert _rel_close(from_start, loop_from_start(per_step))
    assert _rel_close(_to_end(per_step), loop_to_end(per_step))
    assert _rel_close(xis, loop_covariance(alphas, per_step, cov0, grid))
    for xi in xis:
        check_symmetric(xi, rtol=SYMMETRY_RTOL)


@pytest.mark.parametrize("n_steps", [8, 16])
@pytest.mark.parametrize("name", ["cubic1d", "linear", "tracking9d", "transformed_cubic"])
def test_path_stacked_propagation_matches_per_point_loops(cubic_models, linear_models,
                                                          tracking_models, name, n_steps):
    rng = np.random.default_rng(30)
    model, x0, cov0, delta = _propagation_cases(cubic_models, linear_models, tracking_models,
                                                rng)[name]
    grid = FlowGrid(delta, n_steps)
    sigma0 = cov0
    path, jacs = integrate_flow(model, x0, grid)
    scan_per_step = transition_jacobians(jacs, grid)
    per_step, from_start, to_end = _loop_transition_maps(jacs, grid)
    assert np.array_equal(scan_per_step, per_step)
    # the products come from a prefix scan, which reassociates them
    alphas = model.alpha(path)
    xis, scan_from_start = propagate_covariance(alphas, scan_per_step, sigma0, grid)
    scan_to_end = _to_end(scan_per_step)
    assert _rel_close(scan_from_start, from_start)
    assert _rel_close(scan_to_end, to_end)

    m_delta = ailp_state(model, path, alphas, scan_from_start, scan_to_end, xis, sigma0, grid)
    loop_m_delta = _loop_ailp_state(model, path, per_step, from_start, xis, sigma0, grid)
    assert _rel_close(m_delta, loop_m_delta)
    a = _random_sym(rng, model.dim)
    form = flow_second_fundamental_form(model, path, scan_from_start, scan_to_end, grid, a)
    loop = _loop_second_form(model, path, from_start, to_end, grid)
    assert _rel_close(form, np.einsum("kij,ij->k", loop, a))


@pytest.mark.parametrize("name", ["cubic1d", "linear", "tracking9d", "transformed_cubic"])
def test_contractions_match_the_dense_hessian_oracle(cubic_models, linear_models,
                                                     tracking_models, name):
    # the contractions through d2xi_contract against the dense Hessian stack
    # and flow form they replaced
    rng = np.random.default_rng(31)
    model, x0, cov0, delta = _propagation_cases(cubic_models, linear_models, tracking_models,
                                                rng)[name]
    grid = FlowGrid(delta, 16)
    path, _, xis, from_start, to_end = _propagate(model, x0, cov0, grid)
    integrand = dense_ailp_integrand(path_hessian(model, path), xis)
    contracted = model.d2xi_contract(path, xis)
    if np.any(integrand):
        assert _rel_close(contracted, integrand)
    else:
        assert not np.any(contracted)
    dense = dense_flow_form(model, path, from_start, to_end, grid)
    for _ in range(3):
        a = _random_sym(rng, model.dim)
        form = flow_second_fundamental_form(model, path, from_start, to_end, grid, a)
        expected = np.einsum("kij,ij->k", dense, a)
        if np.any(expected):
            assert _rel_close(form, expected)
        else:
            assert not np.any(form)


# --- drift consistency ----------------------------------------------------------


def test_drift_consistency_all_models(cubic_models, tracking_models, linear_models):
    from helpers import random_tracking_state

    rng = np.random.default_rng(27)
    cubic, _ = cubic_models
    for _ in range(1000):
        x = rng.standard_normal(1) * 2.0
        assert drift_consistency_residual(cubic, x) < 1e-10
    linear, _ = linear_models
    for _ in range(1000):
        x = rng.standard_normal(3)
        assert drift_consistency_residual(linear, x) < 1e-10
    tracking, _ = tracking_models
    for _ in range(1000):
        x = random_tracking_state(rng, scale=rng.uniform(0.5, 100.0))
        scale = max(1.0, float(np.linalg.norm(tracking.xi(x))))
        assert drift_consistency_residual(tracking, x) < 1e-10 * scale
