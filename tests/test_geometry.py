"""Tests for connectors, exponential maps, curvature, and tensor transport."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gifilter.errors import NonFiniteError, SingularMetricError
from gifilter.filter import update_estimate
from gifilter.geometry import (
    ConnectorField,
    barycenter_correction,
    check_symmetric,
    curvature,
    exp_map_series,
    flat_connector,
    identity,
    symmetric_condition,
)
from gifilter.harness import transformed_cubic_model
from gifilter.models.cubic1d import Cubic1DParams
from gifilter.models.tracking import tracking_connector

from helpers import random_tracking_state
from oracles import (
    geodesic_flow,
    levi_civita_connector,
    log_map_series,
    tracking_dbeta,
)

finite_floats = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


def vec_strategy(dim):
    return st.lists(finite_floats, min_size=dim, max_size=dim).map(np.array)


# --- Levi-Civita connector from a metric --------------------------------------


def test_constant_metric_has_zero_connector():
    beta = np.array([[2.0, 0.3], [0.3, 1.0]])
    coeffs = levi_civita_connector(lambda y: beta, np.array([0.4, -1.2]))
    assert np.max(np.abs(coeffs)) < 1e-9


def test_exp_metric_connector_matches_hand_derivation():
    # beta = diag(exp(2u), 1) in coordinates (u, w): the inverse metric
    # diag(exp(-2u), 1) has one nonvanishing Christoffel symbol, G^u_uu = -1
    def beta(y):
        return np.diag([np.exp(2.0 * y[0]), 1.0])

    for point in ([0.0, 0.0], [0.7, -0.3], [-1.1, 2.0]):
        coeffs = levi_civita_connector(beta, np.array(point))
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = -1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-7


def test_cross_coupled_metric_connector_matches_hand_derivation():
    # beta = diag(exp(2w), 1): inverse metric g = diag(exp(-2w), 1) gives
    # G^u_uw = G^u_wu = -1 and G^w_uu = exp(-2w), all else zero
    from helpers import exp_metric_2d, exp_metric_2d_partials

    for point in ([0.0, 0.0], [0.5, -0.7], [-0.4, 0.9]):
        y = np.array(point)
        coeffs = levi_civita_connector(exp_metric_2d, y, dbeta=exp_metric_2d_partials)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 1] = expected[0, 1, 0] = -1.0
        expected[1, 0, 0] = np.exp(-2.0 * y[1])
        assert np.max(np.abs(coeffs - expected)) < 1e-10


def test_tracking_metric_connector_matches_closed_form(tracking_params, tracking_models):
    # coefficients of the range-dependent diagonal observation metric at r = 1
    from gifilter.models.tracking import observation_connector

    _, obs = tracking_models
    conn = observation_connector(tracking_params)
    y = np.array([1.0, 1.2, 0.3, 7.0, -0.2])
    numeric = levi_civita_connector(obs.beta, y, dbeta=tracking_dbeta(tracking_params))
    basis = np.eye(5)
    closed = np.zeros((5, 5, 5))
    for i in range(5):
        for j in range(5):
            closed[:, i, j] = conn.gamma(y, basis[i], basis[j])
    assert np.max(np.abs(closed - numeric)) < 1e-10


def test_nonsymmetric_metric_rejected():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        levi_civita_connector(lambda y: bad, np.zeros(2))


def test_singular_metric_rejected():
    sing = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMetricError):
        levi_civita_connector(lambda y: sing, np.zeros(2))


# --- connector field invariants ------------------------------------------------


def test_torsion_freeness_all_registered_connectors(connector_registry):
    rng = np.random.default_rng(101)
    for name, conn, sampler in connector_registry:
        for _ in range(1000):
            x = sampler(rng)
            u = rng.standard_normal(conn.dim)
            v = rng.standard_normal(conn.dim)
            assert np.array_equal(conn.gamma(x, u, v), conn.gamma(x, v, u)), name


def test_dgamma_matches_finite_differences(connector_registry):
    rng = np.random.default_rng(202)
    for name, conn, sampler in connector_registry:
        x = sampler(rng)
        w = rng.standard_normal(conn.dim)
        w /= np.linalg.norm(w)
        u = rng.standard_normal(conn.dim)
        v = rng.standard_normal(conn.dim)
        ana = conn.dgamma(x, w, u, v)
        diffs = []
        for h in (1e-3, 5e-4):
            fd = (conn.gamma(x + h * w, u, v) - conn.gamma(x - h * w, u, v)) / (2.0 * h)
            diffs.append(float(np.linalg.norm(fd - ana)))
        assert diffs[0] < 1e-4, name
        if diffs[1] > 1e-10:  # below that, rounding noise dominates the ratio
            ratio = diffs[0] / diffs[1]
            assert 3.5 <= ratio <= 4.5, (name, ratio)


def test_contract_matches_basis_loop(connector_registry):
    rng = np.random.default_rng(303)
    for name, conn, sampler in connector_registry:
        x = sampler(rng)
        raw = rng.standard_normal((conn.dim, conn.dim))
        sym = 0.5 * (raw + raw.T)
        fast = conn.contract(x, sym)
        basis = np.eye(conn.dim)
        slow = np.zeros(conn.dim)
        for i in range(conn.dim):
            for j in range(conn.dim):
                slow += sym[i, j] * conn.gamma(x, basis[i], basis[j])
        assert np.max(np.abs(fast - slow)) < 1e-12 * max(1.0, np.max(np.abs(slow))), name


def _assert_rel_close(stacked, loop, what):
    stacked = np.asarray(stacked)
    loop = np.asarray(loop)
    assert stacked.shape == loop.shape, what
    assert np.max(np.abs(stacked - loop)) <= 1e-12 * np.max(np.abs(loop)), what


def _per_point_loop(fn, *args, core=None):
    """fn at every index of the broadcast leading axes of args, one point
    and one vector (core 1) or matrix (core 2) tuple per call."""
    core = core or (1,) * len(args)
    lead = [np.shape(a)[:np.ndim(a) - c] for a, c in zip(args, core)]
    batch = np.broadcast_shapes(*lead)
    full = [np.broadcast_to(a, batch + np.shape(a)[len(s):]) for a, s in zip(args, lead)]
    vals = [fn(*(f[idx] for f in full)) for idx in np.ndindex(batch)]
    return np.reshape(vals, batch + np.shape(vals[0]))


def test_connector_callbacks_broadcast_like_per_vector_loop(connector_registry):
    # the model protocol: one call over stacked points and vectors equals the
    # loop over the individual (point, vector tuple) cases, whatever leading
    # axes the stacks carry
    rng = np.random.default_rng(404)
    registry = connector_registry + [("flat", flat_connector(3),
                                      lambda rng: rng.standard_normal(3))]
    for name, conn, sampler in registry:
        p = conn.dim
        x = np.array([sampler(rng) for _ in range(3)])[:, None, None, :]
        u = rng.standard_normal((2, 1, p))
        v = rng.standard_normal((1, 4, p))
        w = rng.standard_normal((2, 1, 1, 1, p))
        raw = rng.standard_normal((4, p, p))
        chi = raw + raw.transpose(0, 2, 1)
        _assert_rel_close(conn.gamma(x, u, v), _per_point_loop(conn.gamma, x, u, v), name)
        _assert_rel_close(conn.dgamma(x, w, u, v),
                          _per_point_loop(conn.dgamma, x, w, u, v), name)
        _assert_rel_close(conn.coefficients(x), _per_point_loop(conn.coefficients, x), name)
        _assert_rel_close(conn.contract(x, chi),
                          _per_point_loop(conn.contract, x, chi, core=(1, 2)), name)
        if conn.contract_fn is not None:
            _assert_rel_close(conn.contract_fn(x, chi),
                              _per_point_loop(conn.contract_fn, x, chi, core=(1, 2)), name)
        # at one point: the basis-pair pattern of ConnectorField.coefficients
        basis = np.eye(p)
        point = x[0, 0, 0]
        coeff_loop = np.zeros((p, p, p))
        for i in range(p):
            for j in range(p):
                coeff_loop[:, i, j] = conn.gamma(point, basis[i], basis[j])
        _assert_rel_close(conn.coefficients(point), coeff_loop, name)


def test_d2xi_contract_broadcasts_like_per_matrix_loop(cubic_models, linear_models,
                                                      tracking_models):
    rng = np.random.default_rng(405)
    transformed = transformed_cubic_model(Cubic1DParams())[0]
    cases = [
        ("cubic1d", cubic_models[0], rng.uniform(-1.5, 1.5, size=1)),
        ("linear", linear_models[0], rng.standard_normal(3)),
        ("tracking9d", tracking_models[0], random_tracking_state(rng)),
        ("transformed_cubic", transformed, rng.uniform(-1.5, 1.5, size=1)),
    ]
    for name, model, x in cases:
        p = model.dim
        raw = rng.standard_normal((2, 3, p, p))
        chi = raw + raw.transpose(0, 1, 3, 2)
        loop = [[model.d2xi_contract(x, chi[i, j]) for j in range(3)] for i in range(2)]
        _assert_rel_close(model.d2xi_contract(x, chi), loop, name)


def test_symmetric_condition_matches_svd_condition():
    rng = np.random.default_rng(406)
    for dim in (1, 2, 5, 9):
        raw = rng.standard_normal((dim, dim))
        mat = raw + raw.T
        assert abs(symmetric_condition(mat) - np.linalg.cond(mat)) <= 1e-8 * np.linalg.cond(mat)
    assert symmetric_condition(np.zeros((2, 2))) == np.inf
    assert symmetric_condition(np.array([[np.nan, 0.0], [0.0, 1.0]])) == np.inf
    assert symmetric_condition(np.array([[np.inf, 0.0], [0.0, 1.0]])) == np.inf


# --- exponential map and inverse ----------------------------------------------


@given(x=vec_strategy(3), v=vec_strategy(3))
@settings(max_examples=50, deadline=None)
def test_exp_flat_is_translation(x, v):
    assert np.allclose(exp_map_series(x, v, flat_connector(3)), x + v)


def test_exp_zero_vector_is_identity():
    conn = tracking_connector()
    rng = np.random.default_rng(4)
    x = random_tracking_state(rng)
    assert np.array_equal(exp_map_series(x, np.zeros(9), conn), x)


@given(y=vec_strategy(3), z=vec_strategy(3))
@settings(max_examples=50, deadline=None)
def test_log_flat_is_difference(y, z):
    assert np.allclose(log_map_series(y, z, flat_connector(3)), z - y)


def test_log_same_point_is_zero():
    conn = tracking_connector()
    rng = np.random.default_rng(5)
    y = random_tracking_state(rng)
    assert np.array_equal(log_map_series(y, y, conn), np.zeros(9))


def test_exp_log_roundtrip_quartic_scaling():
    conn = tracking_connector()
    rng = np.random.default_rng(6)
    x = random_tracking_state(rng)
    direction = rng.standard_normal(9)
    direction /= np.linalg.norm(direction)
    residuals = []
    for scale in (0.1, 0.05, 0.025):
        v = scale * direction
        back = log_map_series(x, exp_map_series(x, v, conn), conn)
        residuals.append(float(np.linalg.norm(back - v)))
    for big, small in zip(residuals, residuals[1:]):
        assert 12.0 <= big / small <= 20.0


def test_exp_series_matches_geodesic_to_quartic_order():
    conn = tracking_connector()
    rng = np.random.default_rng(8)
    x = random_tracking_state(rng)
    direction = rng.standard_normal(9)
    direction /= np.linalg.norm(direction)
    gaps = []
    for scale in (0.02, 0.01):
        v = scale * direction
        endpoint, _ = geodesic_flow(x, v, conn, steps=128)
        gaps.append(float(np.linalg.norm(endpoint - exp_map_series(x, v, conn))))
    # C |v|^4 bound with C calibrated by the scaling ratio
    assert 12.0 <= gaps[0] / gaps[1] <= 20.0
    assert gaps[0] < 1e2 * 0.02 ** 4


# --- geodesic flow ---------------------------------------------------------


def test_geodesic_flat_straight_line():
    x = np.array([1.0, -2.0])
    v = np.array([0.5, 0.25])
    endpoint, dexp = geodesic_flow(x, v, flat_connector(2), steps=4)
    assert np.allclose(endpoint, x + v)
    assert np.allclose(dexp, np.eye(2))


def test_geodesic_zero_velocity_stays_put():
    conn = tracking_connector()
    rng = np.random.default_rng(9)
    x = random_tracking_state(rng)
    endpoint, dexp = geodesic_flow(x, np.zeros(9), conn, steps=8)
    assert np.allclose(endpoint, x)
    assert np.allclose(dexp, np.eye(9))


def test_geodesic_1d_quadratic_connector_against_fine_reference():
    c = 0.8

    def gamma(x, u, v):
        return c * u[..., :1] * v[..., :1]

    def dgamma(x, w, u, v):
        return np.zeros(np.broadcast_shapes(w.shape, u.shape, v.shape))

    conn = ConnectorField(dim=1, gamma=gamma, dgamma=dgamma)
    x = np.array([0.3])
    v = np.array([0.4])
    coarse, _ = geodesic_flow(x, v, conn, steps=64)
    fine, _ = geodesic_flow(x, v, conn, steps=6400)
    assert abs(coarse[0] - fine[0]) < 1e-10


def test_geodesic_requires_positive_steps():
    with pytest.raises(ValueError):
        geodesic_flow(np.zeros(1), np.zeros(1), flat_connector(1), steps=0)


# --- curvature --------------------------------------------------------------


def test_curvature_flat_vanishes():
    out = curvature(flat_connector(3), np.zeros(3), np.ones(3), np.ones(3), np.ones(3))
    assert np.array_equal(out, np.zeros(3))


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_curvature_first_pair_antisymmetry(data):
    conn = tracking_connector()
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = random_tracking_state(rng)
    u = rng.standard_normal(9)
    v = rng.standard_normal(9)
    w = rng.standard_normal(9)
    forward = curvature(conn, x, u, v, w)
    backward = curvature(conn, x, v, u, w)
    assert np.max(np.abs(forward + backward)) < 1e-12 * max(1.0, np.max(np.abs(forward)))


def _parallel_transport(conn, start, end, zeta, steps=60):
    """RK4 transport of zeta along the chart segment from start to end."""
    tangent = end - start
    h = 1.0 / steps
    z = zeta.copy()
    for k in range(steps):
        s = k * h

        def rhs(s_loc, z_loc):
            point = start + s_loc * tangent
            return -conn.gamma(point, tangent, z_loc)

        k1 = rhs(s, z)
        k2 = rhs(s + h / 2, z + h / 2 * k1)
        k3 = rhs(s + h / 2, z + h / 2 * k2)
        k4 = rhs(s + h, z + h * k3)
        z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return z


def test_curvature_matches_holonomy_estimate():
    # transporting around a small coordinate square picks up eps^2 R(u,v)w
    conn = tracking_connector()
    rng = np.random.default_rng(11)
    x = random_tracking_state(rng)
    u = rng.standard_normal(9)
    v = rng.standard_normal(9)
    w = rng.standard_normal(9)
    eps = 1e-3
    corners = [x, x + eps * u, x + eps * (u + v), x + eps * v, x]
    z = w.copy()
    for a, b in zip(corners[:-1], corners[1:]):
        z = _parallel_transport(conn, a, b, z)
    defect = (z - w) / eps ** 2
    reference = curvature(conn, x, u, v, w)
    assert np.linalg.norm(defect - reference) < 0.05 * np.linalg.norm(reference)


# --- barycenter correction and covariance transport -------------------------


def test_barycenter_flat_returns_mu():
    mu = np.array([0.2, -0.4, 1.0])
    sigma = np.eye(3)
    assert np.array_equal(barycenter_correction(mu, sigma, flat_connector(3), np.zeros(3)), mu)


def test_barycenter_zero_mu_is_zero():
    conn = tracking_connector()
    rng = np.random.default_rng(12)
    x = random_tracking_state(rng)
    raw = rng.standard_normal((9, 9))
    sigma = raw @ raw.T
    out = barycenter_correction(np.zeros(9), sigma, conn, x)
    assert np.array_equal(out, np.zeros(9))


def test_barycenter_matches_triple_loop():
    conn = tracking_connector()
    rng = np.random.default_rng(13)
    x = random_tracking_state(rng)
    raw = rng.standard_normal((9, 9)) * 0.3
    smat = raw @ raw.T
    mu = rng.standard_normal(9) * 0.1
    fast = barycenter_correction(mu, smat, conn, x)
    basis = np.eye(9)
    acc = np.zeros(9)
    for i in range(9):
        for j in range(9):
            for k in range(9):
                acc += mu[i] * smat[j, k] * curvature(conn, x, basis[i], basis[j], basis[k])
    assert np.allclose(fast, mu - acc / 3.0, atol=1e-12)


def _constant_connector(coeffs):
    """A connector with the constant coefficients coeffs[k, i, j]."""

    def gamma(x, u, v):
        return np.einsum("kij,...i,...j->...k", coeffs, u, v)

    def dgamma(x, w, u, v):
        return np.zeros(np.broadcast_shapes(np.shape(w), np.shape(u), np.shape(v)))

    return ConnectorField(dim=coeffs.shape[0], gamma=gamma, dgamma=dgamma)


def test_pushforward_identity_and_scaling():
    # update_estimate carries sigma through F = I - Gamma(x)(v, .): F = I
    # on flat geometry, and F = 2 in 1-D with Gamma = c u w and c v = -1
    sigma = np.array([[1.0, 0.2], [0.2, 2.0]])
    _, same = update_estimate(np.zeros(2), np.array([0.1, 0.2]), sigma, flat_connector(2))
    assert np.array_equal(same, sigma)
    conn = _constant_connector(np.array([[[-2.0]]]))
    _, scaled = update_estimate(np.zeros(1), np.array([0.5]), np.array([[0.3]]), conn)
    assert np.allclose(scaled, 4.0 * 0.3)


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_pushforward_matches_index_loop_and_stays_psd(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    dim = data.draw(st.integers(1, 4))
    raw = rng.standard_normal((dim, dim))
    smat = raw @ raw.T
    coeffs = rng.standard_normal((dim, dim, dim))
    conn = _constant_connector(coeffs + coeffs.transpose(0, 2, 1))
    x = np.zeros(dim)
    mu = rng.standard_normal(dim)
    _, out = update_estimate(x, mu, smat, conn)
    v = barycenter_correction(mu, smat, conn, x)
    fmat = np.eye(dim)
    for col in range(dim):
        fmat[:, col] -= conn.gamma(x, v, np.eye(dim)[col])
    loop = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(dim):
            for a in range(dim):
                for b in range(dim):
                    loop[i, j] += fmat[i, a] * smat[a, b] * fmat[j, b]
    assert np.allclose(out, 0.5 * (loop + loop.T), atol=1e-10)
    eigs = np.linalg.eigvalsh(out)
    assert eigs[0] >= -1e-10 * max(eigs[-1], 0.0)


# --- the symmetric-tensor check --------------------------------------------------
# run_filters applies check_symmetric to every covariance it accepts


def test_symtensor_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        check_symmetric(np.array([[1.0, 0.5], [0.1, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_symtensor_rejects_non_finite(bad):
    # one max|mat| serves the finiteness and the symmetry check
    with pytest.raises(NonFiniteError):
        check_symmetric(np.array([[1.0, 0.0], [0.0, bad]]))


def test_identity_is_shared_and_read_only():
    eye = identity(3)
    assert identity(3) is eye
    assert np.array_equal(eye, np.eye(3))
    with pytest.raises(ValueError):
        eye[0, 0] = 2.0
