"""Registry of oracle-backed fixtures.

Each entry pairs a deterministic implementation output with the independent
oracle that validates it: closed forms, fine-grid reference integrations,
finite differences, naive index loops, or Monte Carlo moments.  The build
script freezes both values into ``tests/fixtures/derived.json``; the test
suite recomputes every implementation value and demands bitwise equality
with the frozen copy, re-running the cheap oracles inline and holding the
expensive (Monte Carlo) ones to their frozen values and standard errors.

Comparison modes:
  abs    |value - oracle| <= tolerance  (elementwise)
  rel    |value - oracle| <= tolerance * |oracle|
  sigma  |value - oracle| <= tolerance * se  (oracle returns (value, se))
  window consecutive ratios of the value list lie inside oracle = [lo, hi]
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from gifilter.ekf import ekf_predict, ekf_update
from gifilter.filter import (
    FilterConfig,
    assimilate,
    filter_step,
    gain,
    pull_back_observation,
    rho_build,
    update_estimate,
)
from gifilter.flow import (
    FlowGrid,
    _to_end,
    ailp_state,
    flow_second_fundamental_form,
    integrate_flow,
    precompute,
    propagate_covariance,
    transition_jacobians,
)
from gifilter.geometry import (
    ConnectorField,
    barycenter_correction,
    curvature,
    exp_map_series,
    flat_connector,
    symmetrize,
)
from gifilter.harness import (
    ScenarioConfig,
    build_scenario,
    run_filters,
    simulate_sde,
    trajectory_rng,
)
from gifilter.models.cubic1d import Cubic1DParams, cubic1d_build
from gifilter.models.tracking import (
    Tracking9DParams,
    observation_connector,
    pack_state,
    tracking_connector,
    tracking_diffusion,
    tracking_observation,
)
from gifilter.observation import (
    ailp_observation,
    map_second_fundamental_form,
    sample_observation,
)

import scipy.linalg

from oracles import (
    cubic1d_analytic_ailp,
    cubic1d_analytic_flow,
    geodesic_flow,
    levi_civita_connector,
    log_map_series,
    tracking_dbeta,
)


@dataclass(frozen=True)
class FixtureDef:
    name: str
    compute_value: Callable[[], object]
    compute_oracle: Callable[[], object]
    mode: str
    tolerance: float
    cheap_oracle: bool = True


def _tracking_state(seed: int, speed: float = 1.0, scale: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3)
    v *= speed / np.linalg.norm(v)
    a = rng.standard_normal(3) * scale
    a -= v * float(v @ a) / float(v @ v)
    return pack_state(rng.standard_normal(3) * scale, v, a)


def _cubic_model():
    return cubic1d_build(Cubic1DParams())


# --- geometry ------------------------------------------------------------------


def _lc_2d_value():
    def beta(y):
        return np.diag([np.exp(2.0 * y[0]), 1.0])

    return levi_civita_connector(beta, np.array([0.7, -0.3]))


def _lc_2d_oracle():
    out = np.zeros((2, 2, 2))
    out[0, 0, 0] = -1.0  # hand-derived: only Christoffel symbol of e^(-2u) du^2 + dw^2
    return out


def _exp_vs_geodesic_value():
    conn = tracking_connector()
    x = _tracking_state(1001)
    rng = np.random.default_rng(1002)
    v = rng.standard_normal(9)
    v *= 0.01 / np.linalg.norm(v)
    return exp_map_series(x, v, conn)


def _exp_vs_geodesic_oracle():
    conn = tracking_connector()
    x = _tracking_state(1001)
    rng = np.random.default_rng(1002)
    v = rng.standard_normal(9)
    v *= 0.01 / np.linalg.norm(v)
    return geodesic_flow(x, v, conn, steps=256)[0]


def _roundtrip_residuals():
    conn = tracking_connector()
    x = _tracking_state(1003)
    rng = np.random.default_rng(1004)
    direction = rng.standard_normal(9)
    direction /= np.linalg.norm(direction)
    out = []
    for scale in (0.1, 0.05, 0.025):
        v = scale * direction
        out.append(float(np.linalg.norm(
            log_map_series(x, exp_map_series(x, v, conn), conn) - v)))
    return out


def _geodesic_1d(steps: int):
    conn = ConnectorField(
        dim=1,
        gamma=lambda x, u, v: 0.8 * (u[..., :1] * v[..., :1]),
        dgamma=lambda x, w, u, v: np.zeros(np.broadcast_shapes(w.shape, u.shape, v.shape)),
    )
    return geodesic_flow(np.array([0.3]), np.array([0.4]), conn, steps=steps)[0]


def _holonomy_inputs():
    conn = tracking_connector()
    rng = np.random.default_rng(1005)
    x = _tracking_state(1006)
    return conn, x, rng.standard_normal(9), rng.standard_normal(9), rng.standard_normal(9)


def _holonomy_value():
    conn, x, u, v, w = _holonomy_inputs()
    return curvature(conn, x, u, v, w)


def _holonomy_oracle():
    conn, x, u, v, w = _holonomy_inputs()
    eps = 1e-3

    def transport(start, end, zeta, steps=60):
        tangent = end - start
        h = 1.0 / steps
        z = zeta.copy()
        for k in range(steps):
            def rhs(z_loc, s_loc):
                return -conn.gamma(start + s_loc * tangent, tangent, z_loc)
            s = k * h
            k1 = rhs(z, s)
            k2 = rhs(z + h / 2 * k1, s + h / 2)
            k3 = rhs(z + h / 2 * k2, s + h / 2)
            k4 = rhs(z + h * k3, s + h)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        return z

    corners = [x, x + eps * u, x + eps * (u + v), x + eps * v, x]
    z = w.copy()
    for a, b in zip(corners[:-1], corners[1:]):
        z = transport(a, b, z)
    return (z - w) / eps ** 2


def _barycenter_value():
    conn = tracking_connector()
    x = _tracking_state(1007)
    rng = np.random.default_rng(1008)
    raw = rng.standard_normal((9, 9)) * 0.3
    mu = rng.standard_normal(9) * 0.1
    return barycenter_correction(mu, raw @ raw.T, conn, x)


def _barycenter_oracle():
    conn = tracking_connector()
    x = _tracking_state(1007)
    rng = np.random.default_rng(1008)
    raw = rng.standard_normal((9, 9)) * 0.3
    smat = raw @ raw.T
    mu = rng.standard_normal(9) * 0.1
    basis = np.eye(9)
    acc = np.zeros(9)
    for i in range(9):
        for j in range(9):
            for k in range(9):
                acc += mu[i] * smat[j, k] * curvature(conn, x, basis[i], basis[j], basis[k])
    return mu - acc / 3.0


def _pushforward_value():
    # the covariance transport of update_estimate: F sigma F^T, symmetrized
    rng = np.random.default_rng(1009)
    raw = rng.standard_normal((4, 4))
    f = rng.standard_normal((4, 4))
    return symmetrize(f @ (raw @ raw.T) @ f.T)


def _pushforward_oracle():
    rng = np.random.default_rng(1009)
    raw = rng.standard_normal((4, 4))
    smat = raw @ raw.T
    f = rng.standard_normal((4, 4))
    out = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            for a in range(4):
                for b in range(4):
                    out[i, j] += f[i, a] * smat[a, b] * f[j, b]
    return 0.5 * (out + out.T)


# --- flow ----------------------------------------------------------------------


def _cubic_flow64_value():
    model, _ = _cubic_model()
    return float(integrate_flow(model, np.array([1.0]), FlowGrid(3.0, 64))[0][-1][0])


def _linear_flow_inputs():
    rng = np.random.default_rng(1010)
    return rng.standard_normal((3, 3)), rng.standard_normal(3)


def _linear_flow_model():
    from gifilter.flow import DiffusionModel

    a_mat, _ = _linear_flow_inputs()
    return DiffusionModel(
        dim=3, xi=lambda x: a_mat @ x, dxi=lambda x: a_mat,
        d2xi_contract=lambda x, chi: np.zeros(np.broadcast_shapes(x.shape, chi.shape[:-1])),
        alpha=lambda x: np.zeros(x.shape[:-1] + (3, 3)), conn=flat_connector(3),
        drift_b=lambda x: a_mat @ x,
    )


def _linear_flow_value():
    _, x0 = _linear_flow_inputs()
    return integrate_flow(_linear_flow_model(), x0, FlowGrid(0.1, 64))[0][-1]


def _linear_flow_oracle():
    a_mat, x0 = _linear_flow_inputs()
    return scipy.linalg.expm(0.1 * a_mat) @ x0


def _tau_value():
    _, x0 = _linear_flow_inputs()
    grid = FlowGrid(0.7, 32)
    model = _linear_flow_model()
    path, jacs = integrate_flow(model, x0, grid)
    # the products do not depend on the covariance the scan carries
    return propagate_covariance(model.alpha(path), transition_jacobians(jacs, grid),
                                np.zeros((3, 3)), grid)[1][-1]


def _tau_oracle():
    a_mat, _ = _linear_flow_inputs()
    return scipy.linalg.expm(0.7 * a_mat)


def _ou_model(a=0.5, sig=0.3):
    from gifilter.flow import DiffusionModel

    return DiffusionModel(
        dim=1, xi=lambda x: np.array([-a * x[0]]), dxi=lambda x: np.array([[-a]]),
        d2xi_contract=lambda x, chi: np.zeros(np.broadcast_shapes(x.shape, chi.shape[:-1])),
        alpha=lambda x: np.full(x.shape[:-1] + (1, 1), sig ** 2), conn=flat_connector(1),
        drift_b=lambda x: np.array([-a * x[0]]),
    )


def _ou_var_value():
    model = _ou_model()
    grid = FlowGrid(0.5, 64)
    path, jacs = integrate_flow(model, np.array([1.0]), grid)
    alphas = model.alpha(path)
    xis, _ = propagate_covariance(alphas, transition_jacobians(jacs, grid), np.array([[0.2]]),
                                  grid)
    return float(xis[-1][0, 0])


def _ou_var_oracle():
    a, sig, delta, sigma0 = 0.5, 0.3, 0.5, 0.2
    return math.exp(-2 * a * delta) * sigma0 + sig ** 2 * (1 - math.exp(-2 * a * delta)) / (2 * a)


def _cubic_var_value():
    model, _ = _cubic_model()
    grid = FlowGrid(1.0, 128)
    x0 = np.array([1.0])
    path, jacs = integrate_flow(model, x0, grid)
    alphas = model.alpha(path)
    xis, _ = propagate_covariance(alphas, transition_jacobians(jacs, grid), np.array([[0.0]]),
                                  grid)
    return float(xis[-1][0, 0])


def _cubic_var_mc_oracle():
    # vectorized Euler-Maruyama over 1e5 paths; returns (variance, se)
    rng = np.random.default_rng(777001)
    n_paths, n_sub, alpha = 10 ** 5, 4000, 0.01
    dt = 1.0 / n_sub
    root = math.sqrt(alpha * dt)
    x = np.full(n_paths, 1.0)
    for _ in range(n_sub):
        x += -0.5 * x ** 3 * dt + root * rng.standard_normal(n_paths)
    var = float(x.var(ddof=1))
    se = var * math.sqrt(2.0 / (n_paths - 1))
    return var, se


def _cubic_ailp_value():
    model, _ = _cubic_model()
    grid = FlowGrid(1.0, 128)
    x0 = np.array([1.0])
    sigma0 = np.array([[0.01]])
    path, jacs = integrate_flow(model, x0, grid)
    per_step = transition_jacobians(jacs, grid)
    alphas = model.alpha(path)
    xis, from_start = propagate_covariance(alphas, per_step, sigma0, grid)
    return float(ailp_state(model, path, alphas, from_start, _to_end(per_step), xis, sigma0,
                            grid)[0])


def _sq_drift_model():
    from gifilter.flow import DiffusionModel

    return DiffusionModel(
        dim=1, xi=lambda x: np.array([x[0] ** 2]), dxi=lambda x: np.array([[2.0 * x[0]]]),
        d2xi_contract=lambda x, chi: 2.0 * chi[..., 0, :] * np.ones_like(x),
        alpha=lambda x: np.full(x.shape[:-1] + (1, 1), 0.01), conn=flat_connector(1),
        drift_b=lambda x: np.array([x[0] ** 2]),
    )


def _sq_drift_ailp_value():
    model = _sq_drift_model()
    grid = FlowGrid(1.0, 256)
    x0 = np.array([0.5])
    sigma0 = np.array([[0.0]])
    path, jacs = integrate_flow(model, x0, grid)
    per_step = transition_jacobians(jacs, grid)
    alphas = model.alpha(path)
    xis, from_start = propagate_covariance(alphas, per_step, sigma0, grid)
    return float(ailp_state(model, path, alphas, from_start, _to_end(per_step), xis, sigma0,
                            grid)[0])


def _sq_drift_ailp_mc_oracle():
    # E[X_delta - x_delta] over 1e6 Euler-Maruyama paths; returns (mean, se)
    model = _sq_drift_model()
    x_det = integrate_flow(model, np.array([0.5]), FlowGrid(1.0, 4000))[0][-1][0]
    rng = np.random.default_rng(777002)
    n_paths, n_sub = 10 ** 6, 4000
    dt = 1.0 / n_sub
    root = math.sqrt(0.01 * dt)
    x = np.full(n_paths, 0.5)
    for _ in range(n_sub):
        x += x ** 2 * dt + root * rng.standard_normal(n_paths)
    diff = x - x_det
    return float(diff.mean()), float(diff.std(ddof=1) / math.sqrt(n_paths))


def _sff_fd_value():
    model, _ = _cubic_model()
    grid = FlowGrid(1.0, 256)
    bundle = precompute(model, np.array([1.0]), np.zeros((1, 1)), grid)
    # in 1-D, contracting with [[1]] gives the form's one coefficient
    return float(flow_second_fundamental_form(model, bundle.x_path, bundle.from_start,
                                              bundle.to_end, grid, np.ones((1, 1)))[0])


def _sff_fd_oracle():
    h = 1e-4
    return float((cubic1d_analytic_flow(1.0 + h, 1.0) - 2.0 * cubic1d_analytic_flow(1.0, 1.0)
                  + cubic1d_analytic_flow(1.0 - h, 1.0)) / h ** 2)


def _precompute_pair(n_steps):
    model, _ = _cubic_model()
    x0 = np.array([1.0])
    grid = FlowGrid(1.0, n_steps)
    bundle = precompute(model, x0, np.array([[0.01]]), grid)
    return np.array([
        bundle.x_delta[0],
        bundle.from_start[-1][0, 0],
        bundle.xi_delta[0, 0],
        bundle.m_delta[0],
        flow_second_fundamental_form(model, bundle.x_path, bundle.from_start, bundle.to_end,
                                     grid, np.ones((1, 1)))[0],
    ])


# --- observation -----------------------------------------------------------------


def _obs_sff_cubic_value():
    model, obs = _cubic_model()
    x = np.array([0.8])
    return float(map_second_fundamental_form(obs, model.conn, x, obs.dpsi(x),
                                             obs.psi(x))[0, 0, 0])


def _obs_sff_cubic_oracle():
    p = 0.1
    x = 0.8
    return float(2.0 * x * (x * x - 3.0 * p) / (p + x * x) ** 3)


def _tracking_sff_inputs():
    params = Tracking9DParams()
    model = tracking_diffusion(params)
    obs = tracking_observation(params)
    x = _tracking_state(1011)
    x[0:3] += np.array([4.0, 1.0, 2.0])
    return model, obs, x


def _tracking_sff_value():
    model, obs, x = _tracking_sff_inputs()
    return map_second_fundamental_form(obs, model.conn, x, obs.dpsi(x), obs.psi(x))


def _tracking_sff_oracle():
    model, obs, x = _tracking_sff_inputs()
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
    expected = d2psi_fd - np.einsum("ka,aij->kij", jac, model.conn.coefficients(x))
    expected += np.einsum("kab,ai,bj->kij", obs.conn_obs.coefficients(obs.psi(x)), jac, jac)
    return expected


def _obs_ailp_value():
    model, obs = _cubic_model()
    x0 = np.array([1.0])
    bundle = precompute(model, x0, np.array([[0.01]]), FlowGrid(1.0, 256))
    jac = obs.dpsi(bundle.x_delta)
    ndpsi = map_second_fundamental_form(obs, model.conn, bundle.x_delta, jac,
                                        obs.psi(bundle.x_delta))
    return float(ailp_observation(bundle, ndpsi, jac)[0])


def _obs_ailp_mc_oracle():
    # E[psi(X_delta)] - psi(x_delta) over 1e6 paths with random start
    rng = np.random.default_rng(777003)
    n_paths, n_sub, alpha, sigma0 = 10 ** 6, 4000, 0.01, 0.01
    dt = 1.0 / n_sub
    root = math.sqrt(alpha * dt)
    x = 1.0 + math.sqrt(sigma0) * rng.standard_normal(n_paths)
    for _ in range(n_sub):
        x += -0.5 * x ** 3 * dt + root * rng.standard_normal(n_paths)
    x_det = cubic1d_analytic_flow(1.0, 1.0)
    psi = lambda v: v / (0.1 + v * v)
    vals = psi(x) - psi(x_det)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n_paths))


def _sample_moments_value():
    model, obs = _cubic_model()
    rng = np.random.default_rng(777004)
    x = np.array([0.4])
    n = 10 ** 5
    samples = np.empty(n)
    for k in range(n):
        samples[k] = sample_observation(obs, x, rng)[0]
    return np.array([samples.mean(), samples.var(ddof=1)])


def _sample_moments_oracle():
    model, obs = _cubic_model()
    x = np.array([0.4])
    n = 10 ** 5
    beta = float(obs.beta(obs.psi(x))[0, 0])
    center = float(obs.psi(x)[0])
    se = np.array([math.sqrt(beta / n), beta * math.sqrt(2.0 / (n - 1))])
    return np.array([center, beta]), se


def _pull_back_gaps():
    params = Tracking9DParams()
    conn = observation_connector(params)
    rng = np.random.default_rng(1012)
    y = np.array([1.5, 1.0, 0.5, 8.0, 0.1])
    direction = rng.standard_normal(5)
    direction /= np.linalg.norm(direction)
    out = []
    for scale in (0.04, 0.02, 0.01):
        target = y + scale * direction
        gap = pull_back_observation(y, target, conn) - log_map_series(y, target, conn)
        out.append(float(np.linalg.norm(gap)))
    return out


# --- filter ------------------------------------------------------------------------


def _gain_residual_value():
    rng = np.random.default_rng(1013)
    raw = rng.standard_normal((9, 9))
    xi_mat = raw @ raw.T
    jac = rng.standard_normal((5, 9))
    raw_b = rng.standard_normal((5, 5))
    beta = raw_b @ raw_b.T + 0.5 * np.eye(5)
    g = gain(xi_mat, jac, beta)
    return float(np.max(np.abs(g @ (jac @ xi_mat @ jac.T + beta) - xi_mat @ jac.T)))


def _filter_fixture_pieces(n_steps=32):
    model, obs = _cubic_model()
    x0 = np.array([1.0])
    grid = FlowGrid(1.0, n_steps)
    bundle = precompute(model, x0, np.array([[0.01]]), grid)
    jac = obs.dpsi(bundle.x_delta)
    ndpsi = map_second_fundamental_form(obs, model.conn, bundle.x_delta, jac,
                                        obs.psi(bundle.x_delta))
    g = gain(bundle.xi_delta, jac, obs.beta(obs.psi(bundle.x_delta)))
    return model, obs, bundle, grid, jac, g, ndpsi


def _rho_eval_value():
    model, _, bundle, grid, jac, g, ndpsi = _filter_fixture_pieces()
    return float(rho_build(model, bundle, grid, g, jac, ndpsi, np.array([0.1]))[0])


def _scalar_rho(model, bundle, grid, jac, g, ndpsi, z):
    # 1-D term by term: the flow and observation forms are one coefficient
    # each, S = (g z)^2 - g j Xi_delta, pulled back by tau_delta^0 squared
    dphi = flow_second_fundamental_form(model, bundle.x_path, bundle.from_start, bundle.to_end,
                                        grid, np.ones((1, 1)))[0]
    dpsi = ndpsi[0, 0, 0]
    g, j, tau = g[0, 0], jac[0, 0], bundle.tau_delta_0[0, 0]
    s = (g * z) ** 2 - g * j * bundle.xi_delta[0, 0]
    return 0.5 * ((1.0 - g * j) * dphi * tau * tau * s - g * dpsi * s)


def _rho_eval_oracle():
    model, _, bundle, grid, jac, g, ndpsi = _filter_fixture_pieces()
    return float(_scalar_rho(model, bundle, grid, jac, g, ndpsi, 0.1))


def _assimilate_value():
    model, _, bundle, grid, jac, g, ndpsi = _filter_fixture_pieces()
    cfg = FilterConfig(delta=1.0, collar_enabled=False)
    z_hat = np.array([0.23]) - np.array([0.013])
    quad = rho_build(model, bundle, grid, g, jac, ndpsi, z_hat)
    mu, sigma = assimilate(bundle, g, jac, z_hat, quad, cfg)
    return np.array([mu[0], sigma[0, 0]])


def _assimilate_oracle():
    model, _, bundle, grid, jac, g, ndpsi = _filter_fixture_pieces()
    z_hat = 0.23 - 0.013
    mu = (bundle.m_delta[0] + g[0, 0] * z_hat
          + _scalar_rho(model, bundle, grid, jac, g, ndpsi, z_hat))
    sigma = (1.0 - g[0, 0] * jac[0, 0]) * bundle.xi_delta[0, 0]
    return np.array([mu, sigma])


def _filter_step_value():
    model, obs = _cubic_model()
    cfg = FilterConfig(delta=1.0, n_substeps=8)
    mu, sigma = filter_step(model, obs, (np.array([1.0]), np.array([[0.01]])),
                            np.array([0.55]), cfg)
    return np.array([mu[0], sigma[0, 0]])


def _update_geodesic_gaps():
    conn = tracking_connector()
    x = _tracking_state(1014)
    rng = np.random.default_rng(1015)
    raw = rng.standard_normal((9, 9)) * 0.05
    smat = raw @ raw.T
    direction = rng.standard_normal(9)
    direction /= np.linalg.norm(direction)
    out = []
    for scale in (0.04, 0.02):
        mu = scale * direction
        sigma = smat * scale ** 2
        series, _ = update_estimate(x, mu, sigma, conn)
        endpoint, _ = geodesic_flow(x, barycenter_correction(mu, sigma, conn, x), conn,
                                    steps=64)
        out.append(float(np.linalg.norm(series - endpoint)))
    return out


# --- EKF and models -------------------------------------------------------------------


def _ekf_predict_value():
    model, _ = _cubic_model()
    m0 = np.array([1.0])
    mean, _ = ekf_predict(model, (m0, np.array([[0.01]])), 1.0, 64)
    return float(mean[0])


def _ekf_update_value():
    _, obs = _cubic_model()
    mean, cov = ekf_update((np.array([0.5]), np.array([[0.04]])), obs, np.array([0.9]))
    return np.array([mean[0], cov[0, 0]])


def _ekf_update_oracle():
    m, p, y, pc, beta = 0.5, 0.04, 0.9, 0.1, 0.001
    jval = (pc - m * m) / (pc + m * m) ** 2
    s = jval * p * jval + beta
    k = p * jval / s
    return np.array([m + k * (y - m / (pc + m * m)), (1.0 - k * jval) * p])


def _noise_contraction_worst_value():
    params = Tracking9DParams()
    model = tracking_diffusion(params)
    worst = 0.0
    for seed in range(1000):
        x = _tracking_state(2000 + seed, speed=1.0 + (seed % 7), scale=0.5 + (seed % 5))
        resid = float(np.linalg.norm(model.conn.contract(x, model.alpha(x))))
        worst = max(worst, resid / max(1.0, float(np.max(np.abs(model.alpha(x))))))
    return worst


def _connector_closed_vs_numeric_value():
    params = Tracking9DParams()
    obs = tracking_observation(params)
    conn = observation_connector(params)
    rng = np.random.default_rng(1016)
    basis = np.eye(5)
    worst = 0.0
    for _ in range(25):
        y = np.array([rng.uniform(0.5, 5.0), rng.uniform(0.3, 2.8), rng.uniform(-3, 3),
                      rng.uniform(1.0, 20.0), rng.standard_normal()])
        numeric = levi_civita_connector(obs.beta, y, dbeta=tracking_dbeta(params))
        for i in range(5):
            for j in range(5):
                worst = max(worst, float(np.max(np.abs(
                    conn.gamma(y, basis[i], basis[j]) - numeric[:, i, j]))))
    return worst


def _cubic_flow_cross_value():
    model, _ = _cubic_model()
    return float(integrate_flow(model, np.array([0.7]), FlowGrid(1.0, 256))[0][-1][0])


def _run_filters_freeze_value():
    config = ScenarioConfig(model="cubic1d", n_obs=50, seed=424242)
    scenario = build_scenario(config)
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(424242, 0)))
    return np.concatenate([record.errors["gif"], record.errors["ekf"]])


def _tracking_run_freeze_value():
    """GIF and EKF estimates, then their aborted flags (as 0/1), of a short
    tracking9d run: pins the model callbacks' arithmetic bit for bit."""
    config = ScenarioConfig(model="tracking9d", delta=0.1, n_obs=10, seed=909)
    scenario = build_scenario(config)
    record = run_filters(scenario, simulate_sde(scenario, trajectory_rng(909, 0)))
    return np.concatenate([record.estimates["gif"].ravel(), record.estimates["ekf"].ravel(),
                           record.aborted["gif"].astype(float),
                           record.aborted["ekf"].astype(float)])


FIXTURES = [
    FixtureDef("geometry/levi_civita_exp_metric", _lc_2d_value, _lc_2d_oracle, "abs", 1e-7),
    FixtureDef("geometry/exp_series_vs_geodesic", _exp_vs_geodesic_value,
               _exp_vs_geodesic_oracle, "abs", 1e-8),
    FixtureDef("geometry/exp_log_roundtrip_residuals", _roundtrip_residuals,
               lambda: [12.0, 20.0], "window", 0.0),
    FixtureDef("geometry/geodesic_1d_fine_reference", lambda: _geodesic_1d(64),
               lambda: _geodesic_1d(6400), "abs", 1e-10),
    FixtureDef("geometry/curvature_vs_holonomy", _holonomy_value, _holonomy_oracle,
               "rel", 0.05),
    FixtureDef("geometry/barycenter_triple_loop", _barycenter_value, _barycenter_oracle,
               "abs", 1e-12),
    FixtureDef("geometry/pushforward_index_loop", _pushforward_value, _pushforward_oracle,
               "abs", 1e-10),
    FixtureDef("flow/cubic_endpoint_n64", _cubic_flow64_value, lambda: 0.5, "abs", 2e-6),
    FixtureDef("flow/linear_flow_expm", _linear_flow_value, _linear_flow_oracle,
               "abs", 1e-8),
    FixtureDef("flow/tau_matrix_exponential", _tau_value, _tau_oracle, "abs", 1e-10),
    FixtureDef("flow/ou_variance_closed_form", _ou_var_value, _ou_var_oracle, "abs", 1e-6),
    FixtureDef("flow/cubic_variance_monte_carlo", _cubic_var_value, _cubic_var_mc_oracle,
               "sigma", 3.0, cheap_oracle=False),
    FixtureDef("flow/cubic_ailp_analytic", _cubic_ailp_value,
               lambda: cubic1d_analytic_ailp(1.0, 0.01, 0.01, 1.0), "rel", 1e-4),
    FixtureDef("flow/square_drift_ailp_monte_carlo", _sq_drift_ailp_value,
               _sq_drift_ailp_mc_oracle, "sigma", 3.0, cheap_oracle=False),
    FixtureDef("flow/second_form_vs_flow_hessian", _sff_fd_value, _sff_fd_oracle,
               "rel", 1e-3),
    FixtureDef("flow/precompute_grid_refinement", lambda: _precompute_pair(64),
               lambda: _precompute_pair(640), "rel", 1e-4),
    FixtureDef("observation/cubic_second_form_analytic", _obs_sff_cubic_value,
               _obs_sff_cubic_oracle, "rel", 1e-12),
    FixtureDef("observation/tracking_second_form_fd", _tracking_sff_value,
               _tracking_sff_oracle, "abs", 1e-5),
    FixtureDef("observation/cubic_ailp_monte_carlo", _obs_ailp_value, _obs_ailp_mc_oracle,
               "sigma", 3.0, cheap_oracle=False),
    FixtureDef("observation/sample_moments", _sample_moments_value, _sample_moments_oracle,
               "sigma", 3.0),
    FixtureDef("observation/pull_back_log_series_gaps", _pull_back_gaps,
               lambda: [6.0, 12.0], "window", 0.0),
    FixtureDef("filter/gain_identity_residual", _gain_residual_value, lambda: 0.0,
               "abs", 1e-10),
    FixtureDef("filter/rho_term_by_term", _rho_eval_value, _rho_eval_oracle, "abs", 1e-15),
    FixtureDef("filter/assimilate_line_by_line", _assimilate_value, _assimilate_oracle,
               "abs", 1e-15),
    FixtureDef("filter/single_step_frozen", _filter_step_value, _filter_step_value,
               "abs", 0.0),
    FixtureDef("filter/update_vs_geodesic_gaps", _update_geodesic_gaps,
               lambda: [12.0, 20.0], "window", 0.0),
    FixtureDef("ekf/predict_cubic_closed_form", _ekf_predict_value,
               lambda: cubic1d_analytic_flow(1.0, 1.0), "abs", 1e-6),
    FixtureDef("ekf/update_hand_computed", _ekf_update_value, _ekf_update_oracle,
               "abs", 1e-14),
    FixtureDef("models/tracking_noise_contraction", _noise_contraction_worst_value, lambda: 0.0,
               "abs", 1e-12),
    FixtureDef("models/tracking_connector_vs_numeric", _connector_closed_vs_numeric_value, lambda: 0.0,
               "abs", 1e-6),
    FixtureDef("models/cubic_flow_cross_check", _cubic_flow_cross_value,
               lambda: cubic1d_analytic_flow(0.7, 1.0), "abs", 1e-8),
    FixtureDef("harness/run_filters_frozen_errors", _run_filters_freeze_value,
               _run_filters_freeze_value, "abs", 0.0),
    FixtureDef("harness/tracking_run_frozen", _tracking_run_freeze_value,
               _tracking_run_freeze_value, "abs", 0.0),
]


def check_against_oracle(value, oracle, mode: str, tolerance: float) -> None:
    """Raise AssertionError when the implementation value violates its oracle."""
    if mode == "window":
        seq = np.asarray(value, dtype=float)
        lo, hi = float(oracle[0]), float(oracle[1])
        for big, small in zip(seq, seq[1:]):
            ratio = big / small
            assert lo <= ratio <= hi, f"ratio {ratio} outside [{lo}, {hi}]"
        return
    if mode == "sigma":
        center, se = oracle
        diff = np.abs(np.asarray(value, dtype=float) - np.asarray(center, dtype=float))
        bound = tolerance * np.asarray(se, dtype=float)
        assert np.all(diff <= bound), f"|value - mc| = {diff} > {tolerance} * se({se})"
        return
    val = np.asarray(value, dtype=float)
    ora = np.asarray(oracle, dtype=float)
    diff = np.max(np.abs(val - ora))
    if mode == "abs":
        assert diff <= tolerance, f"abs diff {diff} > {tolerance}"
    elif mode == "rel":
        scale = np.max(np.abs(ora))
        assert diff <= tolerance * scale, f"rel diff {diff / scale} > {tolerance}"
    else:
        raise ValueError(f"unknown mode {mode}")


def to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, tuple):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, list):
        return [to_jsonable(v) for v in obj]
    return obj
