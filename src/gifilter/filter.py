"""The geometrically intrinsic filter update: gain, quadratic correction,
innovation pull-back, and exponential-barycenter state update."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import flow
from .errors import IllConditionedGainError, IndefiniteCovarianceError, NonFiniteError
from .flow import FlowGrid, DiffusionModel, PropagationBundle, flow_grid, precompute
from .geometry import (
    SYMMETRY_RTOL,
    ConnectorField,
    barycenter_correction,
    exp_map_series,
    identity,
    symmetric_condition,
    symmetrize,
)
from .observation import (
    ObservationModel,
    ailp_observation,
    map_second_fundamental_form,
    wrap_angles,
)

logger = logging.getLogger(__name__)

GAIN_COND_LIMIT = 1e12

# A filter estimate: the point mu, shape (p,), and the covariance sigma
# there, shape (p, p).  Nothing checks it within a cycle;
# gifilter.harness.run_filters checks each step's result once.
Estimate = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class FilterConfig:
    """Knobs for one filter track.

    ``delta`` and ``n_substeps`` are checked by building their grid.
    ``collar_enabled`` clamps the quadratic innovation term so its norm never
    exceeds the linear term's; ``quadratic_enabled=False`` drops the quadratic
    term entirely (ablation).
    """

    delta: float
    n_substeps: int = 8
    collar_enabled: bool = True
    quadratic_enabled: bool = True

    def __post_init__(self):
        self.grid()

    def grid(self) -> FlowGrid:
        return flow_grid(self.delta, self.n_substeps)


def gain(xi_delta: np.ndarray, j: np.ndarray, beta_at_ydelta: np.ndarray) -> np.ndarray:
    """Gain G = Xi J^T [J Xi J^T + beta]^(-1) via a linear solve.

    With a scalar state and a scalar innovation (p = q = 1) the solve is
    the float division b / a of J Xi by the innovation, which gives the
    bits of LAPACK's solve with its one right-hand side; any other shape
    keeps the LAPACK solve.
    """
    j = np.asarray(j, dtype=float)
    j_xi = j @ xi_delta
    innov = symmetrize(j_xi @ j.T + np.asarray(beta_at_ydelta, dtype=float))
    if symmetric_condition(innov) > GAIN_COND_LIMIT:
        raise IllConditionedGainError(
            f"innovation matrix condition number exceeds {GAIN_COND_LIMIT:.0e}"
        )
    if j_xi.shape == (1, 1):
        return np.array([[float(j_xi[0, 0]) / float(innov[0, 0])]])
    return np.linalg.solve(innov, j_xi).T


def rho_build(
    model: DiffusionModel,
    bundle: PropagationBundle,
    grid: FlowGrid,
    g: np.ndarray,
    j: np.ndarray,
    nabla_dpsi: np.ndarray,
    z_hat: np.ndarray,
) -> np.ndarray:
    """Quadratic innovation correction, centred on its mean.

    rho = (1/2) {[I - GJ] ndphi(tau S tau^T) - G ndpsi(S)},
    S = Gz (x) Gz - G J Xi_delta,
    with z = z_hat the innovation, tau = tau_delta^0 pulling S back to the
    interval start, ndpsi the (q, p, p) coefficients of
    :func:`gifilter.observation.map_second_fundamental_form` and ndphi the
    flow form of
    :func:`gifilter.flow.flow_second_fundamental_form`.  The correction is
    linear in S, so the quadratic term and its mean are one contraction:
    under the innovation distribution E[z (x) z] = J Xi_delta J^T + beta,
    hence E[Gz (x) Gz] = G (J Xi J^T + beta) G^T = G J Xi_delta, and S has
    zero mean.
    """
    gz = g @ z_hat
    s = np.outer(gz, gz) - symmetrize(g @ j @ bundle.xi_delta)
    back = bundle.tau_delta_0
    flow_term = flow.flow_second_fundamental_form(model, bundle.x_path, bundle.from_start,
                                                  bundle.to_end, grid, back @ s @ back.T)
    proj = identity(g.shape[0]) - g @ j
    return 0.5 * (proj @ flow_term - g @ np.einsum("kij,ij->k", nabla_dpsi, s))


def pull_back_observation(
    y_delta: np.ndarray,
    y_obs: np.ndarray,
    conn_obs: ConnectorField,
    angular_mask: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pull the observation back to the tangent space at the predicted point.

    Z = w + (1/2) Gamma_bar(y_delta)(w (x) w), w the wrapped chart residual.
    """
    w = wrap_angles(
        np.asarray(y_obs, dtype=float) - np.asarray(y_delta, dtype=float), angular_mask
    )
    if conn_obs.flat:
        return w
    return w + 0.5 * conn_obs.gamma(np.asarray(y_delta, dtype=float), w, w)


def assimilate(
    bundle: PropagationBundle,
    g: np.ndarray,
    j: np.ndarray,
    z_hat: np.ndarray,
    quad: Optional[np.ndarray],
    config: FilterConfig,
) -> Estimate:
    """Conditional moments of the state given the pulled-back observation.

    ``z_hat`` is the innovation: the pulled-back observation minus its
    predicted location.  The conditional mean correction is the linear
    term G z_hat plus ``quad``, the centred quadratic term of
    :func:`rho_build` (None when the quadratic term is disabled).  It is
    linear in S = Gz (x) Gz - G J Xi_delta, which has zero mean under the
    innovation distribution, so the correction adds no bias.  The collar
    rescales the quadratic part so its norm never exceeds the linear
    part's.  Returns the tangent-space mean at x_delta and the conditional
    covariance (I - GJ) Xi_delta, symmetrized.
    """
    linear = g @ z_hat
    mu = bundle.m_delta + linear
    if quad is not None:
        if config.collar_enabled:
            nq = math.sqrt(quad @ quad)
            nl = math.sqrt(linear @ linear)
            if nq > nl and nq > 0.0:
                quad = quad * (nl / nq)
        mu = mu + quad
    return mu, symmetrize((identity(g.shape[0]) - g @ j) @ bundle.xi_delta)


def update_estimate(
    x_delta: np.ndarray,
    mu: np.ndarray,
    sigma: np.ndarray,
    state_conn: ConnectorField,
) -> Estimate:
    """Map the conditional moments at x_delta to the new estimate (mu, sigma).

    The barycenter-corrected tangent vector is pushed through the
    third-order series exponential map, and the covariance through that
    map's derivative F = I - Gamma(x_delta)(v, .), as F sigma F^T.
    """
    v = barycenter_correction(mu, sigma, state_conn, x_delta)
    if state_conn.flat:
        return x_delta + v, sigma
    mu_hat = exp_map_series(x_delta, v, state_conn)
    basis = identity(x_delta.size)
    # column j of the derivative is e_j - Gamma(x_delta)(v (x) e_j)
    fmat = basis - state_conn.gamma(x_delta, v, basis).T
    return mu_hat, symmetrize(fmat @ sigma @ fmat.T)


def repair_psd(mat: np.ndarray) -> np.ndarray:
    """The updated covariance ``mat``, held to the PSD rule that ``sigma0`` meets.

    ``mat`` must be symmetric, as every caller's update leaves it.  An
    eigenvalue below zero by at most ``SYMMETRY_RTOL`` times max|mat| is
    rounding, clipped at zero and logged at debug level; one lower, as is
    any negative 1x1 entry, means the update failed and raises
    IndefiniteCovarianceError.  A non-finite entry passes through for the
    caller's check of the estimate (a NaN eigenvalue is not negative), or
    raises NonFiniteError where the eigendecomposition fails on it.
    """
    if mat.shape == (1, 1):
        min_eig = float(mat[0, 0])
        if not min_eig < 0.0:
            return mat
    else:
        try:
            eigs, vecs = np.linalg.eigh(mat)
        except np.linalg.LinAlgError as exc:
            raise NonFiniteError(f"covariance eigendecomposition failed: {exc}") from exc
        min_eig = float(eigs[0])
        if not min_eig < 0.0:
            return mat
        if min_eig >= -SYMMETRY_RTOL * float(np.abs(mat).max()):
            logger.debug("covariance eigenvalue floor applied (min eig %.3e)", min_eig)
            return (vecs * np.clip(eigs, 0.0, None)) @ vecs.T
    raise IndefiniteCovarianceError(f"covariance is indefinite, has eigenvalue {min_eig:g}")


def filter_step(
    model: DiffusionModel,
    obs: ObservationModel,
    est: Estimate,
    y_obs: np.ndarray,
    config: FilterConfig,
) -> Estimate:
    """One full filter cycle: propagate the estimate and assimilate one observation.

    Deterministic given its inputs.  An ill-conditioned gain, or an updated
    covariance :func:`repair_psd` finds indefinite, raises without modifying
    the estimate; the caller decides whether to skip the observation or stop the track.
    """
    grid = config.grid()
    bundle = precompute(model, *est, grid)
    x_delta = bundle.x_delta
    y_delta = obs.psi(x_delta)
    jac = np.asarray(obs.dpsi(x_delta), dtype=float)
    nabla_dpsi = map_second_fundamental_form(obs, model.conn, x_delta, jac, y_delta)
    obs_ailp = ailp_observation(bundle, nabla_dpsi, jac)

    g = gain(bundle.xi_delta, jac, obs.beta(y_delta))
    z_delta = pull_back_observation(y_delta, y_obs, obs.conn_obs, obs.angular_mask)
    z_hat = z_delta - obs_ailp
    quad = None
    if config.quadratic_enabled:
        quad = rho_build(model, bundle, grid, g, jac, nabla_dpsi, z_hat)
    mu, sigma = assimilate(bundle, g, jac, z_hat, quad, config)
    mu_hat, sigma_hat = update_estimate(x_delta, mu, sigma, model.conn)
    return mu_hat, repair_psd(sigma_hat)
