"""Independent oracles the tests check the filter against.

None of these runs in a filter cycle.  Each is a second route to a
quantity the package computes another way: the Levi-Civita connector from
the metric by differentiation (criterion 5), the geodesic ODE and the
series log map for the exponential map (criterion 6), the closed-form
cubic flow and location correction (criterion 4), the drift-correction
identity of a diffusion model, the tracking model's constraint and inverse
spherical transform, the dense second-derivative arrays the quadratic
update was once built from (the Hessian stack, the flow form and the rho
coefficients), against which its contractions are checked, and the
step-by-step transition products and covariance recursion, against which
the flow module's prefix scans are checked.
"""

import math
from typing import Callable, Optional

import numpy as np

from gifilter.errors import DivergenceError, SingularMetricError, SingularStateError
from gifilter.flow import DiffusionModel, FlowGrid
from gifilter.geometry import ConnectorField, check_symmetric, symmetrize
from gifilter.models.tracking import SPEED_FLOOR, Tracking9DParams, split_state


def sym_outer(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Symmetrized outer product (u w^T + w u^T) / 2."""
    return 0.5 * (np.outer(u, w) + np.outer(w, u))


# --- criterion 5: connector from the metric ----------------------------------------


def metric_partials_fd(
    beta_field: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    step_scale: float = 1e-5,
) -> np.ndarray:
    """Central-difference partials d beta / d y_i, shape (dim, q, q).

    Step per coordinate is step_scale * (1 + |y_i|), balancing truncation
    against rounding at double precision.
    """
    y = np.asarray(y, dtype=float)
    q = np.asarray(beta_field(y)).shape[0]
    out = np.zeros((y.size, q, q))
    for i in range(y.size):
        h = step_scale * (1.0 + abs(float(y[i])))
        yp = y.copy()
        ym = y.copy()
        yp[i] += h
        ym[i] -= h
        out[i] = (np.asarray(beta_field(yp)) - np.asarray(beta_field(ym))) / (2.0 * h)
    return out


def levi_civita_connector(
    beta_field: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    dbeta: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    step_scale: float = 1e-5,
) -> np.ndarray:
    """Levi-Civita connector coefficients of the metric whose inverse is beta.

    beta(y) is the contravariant (inverse) metric tensor; the returned array
    G[m, i, j] is symmetric in (i, j).  Partials of beta are taken from
    ``dbeta`` when supplied, otherwise by central finite differences.
    """
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta_field(y), dtype=float)
    if beta.ndim != 2 or beta.shape[0] != beta.shape[1]:
        raise ValueError("beta must be a square matrix")
    check_symmetric(beta, rtol=1e-10, what="beta")
    eigs = np.linalg.eigvalsh(symmetrize(beta))
    if eigs[0] <= 0.0 or eigs[0] < 1e-14 * eigs[-1]:
        raise SingularMetricError(f"beta is not positive definite (min eig {eigs[0]:.3e})")
    g0 = np.linalg.inv(symmetrize(beta))

    if dbeta is not None:
        dbeta_arr = np.asarray(dbeta(y), dtype=float)
    else:
        dbeta_arr = metric_partials_fd(beta_field, y, step_scale)

    # d g0 / d y_k = -g0 (d beta / d y_k) g0
    dg0 = -np.einsum("ab,kbc,cd->kad", g0, dbeta_arr, g0)

    t1 = np.einsum("jk,ikm->mij", g0, dbeta_arr)
    t2 = np.einsum("ik,jkm->mij", g0, dbeta_arr)
    t3 = np.einsum("kij,mk->mij", dg0, beta)
    gam = -0.5 * (t1 + t2 + t3)
    return 0.5 * (gam + gam.transpose(0, 2, 1))


def tracking_dbeta(params: Tracking9DParams) -> Callable[[np.ndarray], np.ndarray]:
    """Analytic partials d beta / d y_i of the tracking observation metric,
    shape (5, 5, 5); only the range coordinate enters the metric."""

    def dbeta(y):
        r = float(y[0])
        dh = [2.0 * r * params.s0, -params.s1 / r ** 2, -params.s3 / r ** 2,
              2.0 * r * params.s5, 0.0]
        out = np.zeros((5, 5, 5))
        out[0] = np.diag(dh)
        return out

    return dbeta


# --- criterion 6: exponential map ------------------------------------------------------


def log_map_series(y: np.ndarray, z: np.ndarray, conn: ConnectorField) -> np.ndarray:
    """Third-order expansion of the inverse exponential map at y applied to z."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(z, dtype=float) - y
    if conn.flat:
        return w
    g = conn.gamma(y, w, w)
    return w + 0.5 * g + (conn.dgamma(y, w, w, w) + conn.gamma(y, g, w)) / 6.0


def geodesic_flow(
    x: np.ndarray, v: np.ndarray, conn: ConnectorField, steps: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the geodesic ODE and its derivative flow over s in [0, 1].

    Solves gamma' = zeta, zeta' = -Gamma(gamma)(zeta (x) zeta) together with
    the linearized flow F' = Dh(gamma, zeta) F, F(0) = I, using a classical
    fixed-step 4th-order Runge-Kutta integrator.  Returns the endpoint and
    the position-position block F11(1), which pushes tangent vectors from
    the start point to the endpoint.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    p = x.size
    basis = np.eye(p)

    def rhs(gam, zet, fmat):
        acc = -conn.gamma(gam, zet, zet)
        # column j of each block is the derivative along basis vector j
        a21 = -conn.dgamma(gam, basis, zet, zet).T
        a22 = -2.0 * conn.gamma(gam, zet, basis).T
        dh = np.block([[np.zeros((p, p)), basis], [a21, a22]])
        return zet, acc, dh @ fmat

    gam = x.copy()
    zet = v.copy()
    fmat = np.eye(2 * p)
    h = 1.0 / steps
    for k in range(steps):
        k1 = rhs(gam, zet, fmat)
        k2 = rhs(gam + 0.5 * h * k1[0], zet + 0.5 * h * k1[1], fmat + 0.5 * h * k1[2])
        k3 = rhs(gam + 0.5 * h * k2[0], zet + 0.5 * h * k2[1], fmat + 0.5 * h * k2[2])
        k4 = rhs(gam + h * k3[0], zet + h * k3[1], fmat + h * k3[2])
        gam = gam + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        zet = zet + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        fmat = fmat + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if not (np.all(np.isfinite(gam)) and np.all(np.isfinite(zet))):
            raise DivergenceError(f"geodesic flow diverged at step {k}")
    return gam, fmat[:p, :p]


# --- criterion 4: closed forms of the cubic model --------------------------------------


def cubic1d_analytic_flow(x0: float, t: float) -> float:
    """Closed-form flow of dx/dt = -x^3/2: x_t = x0 / sqrt(1 + x0^2 t)."""
    radicand = 1.0 + x0 * x0 * t
    if radicand <= 0.0:
        raise ValueError("flow is undefined: 1 + x0^2 t must be positive")
    return x0 / math.sqrt(radicand)


def cubic1d_analytic_ailp(x0: float, sigma0: float, alpha: float, delta: float) -> float:
    """Closed-form intrinsic location correction of X_delta for the cubic model.

    Singular at x0 = 0 (the expression carries x0^-4 and x0^-6 factors);
    the numerical path in :func:`gifilter.flow.ailp_state` stays finite
    there and is authoritative at that point.
    """
    if x0 == 0.0:
        raise ValueError("analytic location correction is undefined at x0 = 0")
    x_d = cubic1d_analytic_flow(x0, delta)
    return -1.5 * (
        alpha / (12.0 * x_d ** 3)
        + (sigma0 - alpha / (3.0 * x0 ** 2)) * x_d ** 3 / x0 ** 4
        - (sigma0 - alpha / (4.0 * x0 ** 2)) * x_d ** 5 / x0 ** 6
    )


# --- dense second-derivative forms of the quadratic update -----------------------------


def path_hessian(model: DiffusionModel, x_path: np.ndarray) -> np.ndarray:
    """Dense second derivative H[k, a, i, j] = D2xi^a_ij at every path point.

    One ``d2xi_contract`` call evaluates every symmetric basis pair
    (e_i e_j^T + e_j e_i^T) / 2 at every point of x_path (shape (n + 1, p))
    by broadcasting; the result has shape (n + 1, p, p, p).
    """
    basis = np.eye(model.dim)
    pairs = 0.5 * (basis[:, None, :, None] * basis[None, :, None, :]
                   + basis[None, :, :, None] * basis[:, None, None, :])
    return np.moveaxis(model.d2xi_contract(x_path[:, None, None, :], pairs), -1, 1)


def dense_ailp_integrand(hess: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """D2xi(Xi_k) at every path point, from the Hessian stack."""
    return np.einsum("kaij,kij->ka", hess, xis)


def dense_flow_form(model: DiffusionModel, x_path: np.ndarray, from_start: np.ndarray,
                    to_end: np.ndarray, grid: FlowGrid) -> np.ndarray:
    """Coefficients [a, i, j] of the flow map's second fundamental form.

    sum_k w_k tau_{t_k}^delta H_k(tau_0^{t_k} ., tau_0^{t_k} .) from the
    Hessian stack, plus Gamma(x_delta)(tau ., tau .) - tau Gamma(x_0)(., .),
    symmetrized in (i, j); (i, j) index the tangent space at x_0.
    """
    p = model.dim
    hess = path_hessian(model, x_path)
    start = from_start[:, None]
    pulled = np.swapaxes(start, -1, -2) @ hess @ start  # [k, a, i, j]
    pushed = grid.weights[:, None, None] * to_end  # [k, d, a]
    coeffs = (np.swapaxes(pushed, 0, 1).reshape(p, -1)
              @ pulled.reshape(-1, p * p)).reshape(p, p, p)
    conn = model.conn
    if not conn.flat:
        tau = from_start[-1]
        cols = tau.T
        end = conn.gamma(x_path[-1], cols[:, None], cols[None, :])
        corr = np.einsum("ab,bij->aij", tau, conn.coefficients(x_path[0]))
        coeffs += np.moveaxis(end, -1, 0) - corr
    return 0.5 * (coeffs + coeffs.transpose(0, 2, 1))


def dense_rho_correction(g: np.ndarray, j: np.ndarray, flow_coeffs: np.ndarray,
                         obs_coeffs: np.ndarray, tau_delta_0: np.ndarray,
                         xi_delta: np.ndarray, z_hat: np.ndarray) -> np.ndarray:
    """rho(z_hat (x) z_hat) - rho_mean from the dense rho coefficients.

    rho[k, a, b] = (1/2) {[I - GJ] ndphi(tau G e_a, tau G e_b) - G ndpsi(G e_a, G e_b)}
    with tau = tau_delta^0, and rho_mean the same forms contracted with
    G J Xi_delta in place of Gz (x) Gz.
    """
    p = g.shape[0]
    proj = np.eye(p) - g @ j
    back = tau_delta_0 @ g
    t_flow = np.einsum("kij,ia,jb->kab", flow_coeffs, back, back)
    t_flow = np.einsum("lk,kab->lab", proj, t_flow)
    t_obs = np.einsum("kij,ia,jb->kab", obs_coeffs, g, g)
    t_obs = np.einsum("lk,kab->lab", g, t_obs)
    coeffs = 0.5 * (t_flow - t_obs)
    coeffs = 0.5 * (coeffs + coeffs.transpose(0, 2, 1))
    gz_mean = symmetrize(g @ j @ xi_delta)
    gz_mean_back = tau_delta_0 @ gz_mean @ tau_delta_0.T
    rho_mean = 0.5 * (proj @ np.einsum("kij,ij->k", flow_coeffs, gz_mean_back)
                      - g @ np.einsum("kij,ij->k", obs_coeffs, gz_mean))
    return np.einsum("kab,a,b->k", coeffs, z_hat, z_hat) - rho_mean


# --- the sequential recursions the flow scans replace ----------------------------------


def loop_from_start(per_step: np.ndarray) -> np.ndarray:
    """tau_0^{t_k} for k = 0..n by the step-by-step product tau_k tau_0^{t_k}."""
    n, p, _ = per_step.shape
    out = np.empty((n + 1, p, p))
    out[0] = np.eye(p)
    for k in range(n):
        np.matmul(per_step[k], out[k], out=out[k + 1])
    return out


def loop_to_end(per_step: np.ndarray) -> np.ndarray:
    """tau_{t_k}^delta for k = 0..n by the backward product tau_{t_(k+1)}^delta tau_k."""
    n, p, _ = per_step.shape
    out = np.empty((n + 1, p, p))
    out[n] = np.eye(p)
    for k in range(n - 1, -1, -1):
        np.matmul(out[k + 1], per_step[k], out=out[k])
    return out


def loop_covariance(alphas: np.ndarray, per_step: np.ndarray, sigma0: np.ndarray,
                    grid: FlowGrid) -> np.ndarray:
    """Xi at every grid point by the trapezium recursion, one step at a time:
    Xi_(k+1) = H_(k+1) + tau_k (Xi_k + H_k) tau_k^T, H = (h/2) alpha."""
    half = 0.5 * grid.step * alphas
    xis = np.empty_like(half)
    xis[0] = symmetrize(np.asarray(sigma0, dtype=float))
    for k, tau in enumerate(per_step):
        xis[k + 1] = symmetrize(half[k + 1] + tau @ (xis[k] + half[k]) @ tau.T)
    return xis


# --- model identities ------------------------------------------------------------------


def drift_consistency_residual(model: DiffusionModel, x: np.ndarray) -> float:
    """|xi(x) - b(x) - (1/2) Gamma(x)(alpha(x))| at one point."""
    corr = 0.5 * model.conn.contract(x, model.alpha(x))
    return float(np.linalg.norm(model.xi(x) - model.drift_b(x) - corr))


def validate_state(x: np.ndarray, rtol: float = 1e-8) -> None:
    """Check tracking constraint manifold membership: |v| > 0 and v . a = 0."""
    _, v, a = split_state(x)
    speed = float(np.linalg.norm(v))
    if speed < SPEED_FLOOR:
        raise SingularStateError(f"speed {speed:.3e} below {SPEED_FLOOR:.0e}")
    cross = abs(float(v @ a))
    if cross > rtol * speed * max(float(np.linalg.norm(a)), 1e-300):
        raise SingularStateError("acceleration is not orthogonal to velocity")


def spherical_to_cartesian(y: np.ndarray) -> np.ndarray:
    """Forward spherical transform of (range, angle from vertical, azimuth)."""
    r, th, ph = y
    return np.array([
        r * math.sin(th) * math.cos(ph),
        r * math.sin(th) * math.sin(ph),
        r * math.cos(th),
    ])
