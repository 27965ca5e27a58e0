"""The geometrically intrinsic filter update: gain, quadratic correction,
innovation pull-back, and exponential-barycenter state update."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import flow
from .errors import IllConditionedGainError, NonFiniteError
from .flow import FlowGrid, DiffusionModel, PropagationBundle, precompute
from .geometry import (
    Bilinear3,
    ConnectorField,
    SymTensor2,
    barycenter_correction,
    exp_map_series,
    pushforward_covariance,
    symmetric_condition,
    symmetrize,
)
from .observation import (
    ObservationEvent,
    ObservationModel,
    ailp_observation,
    map_second_fundamental_form,
    wrap_angles,
)

logger = logging.getLogger(__name__)

GAIN_COND_LIMIT = 1e12


@dataclass
class StateEstimate:
    """Filter state: a point on state space plus a covariance tensor there."""

    mu_hat: np.ndarray
    sigma_hat: SymTensor2

    def __post_init__(self):
        self.mu_hat = np.asarray(self.mu_hat, dtype=float)
        if not np.isfinite(self.mu_hat).all():
            raise NonFiniteError("state estimate has non-finite coordinates")
        p = self.mu_hat.size
        if self.sigma_hat.mat.shape != (p, p):
            raise ValueError(f"covariance shape {self.sigma_hat.mat.shape} does not match "
                             f"state dimension {p}")


@dataclass(frozen=True)
class FilterConfig:
    """Knobs for one filter track.

    ``collar_enabled`` clamps the quadratic innovation term so its norm never
    exceeds the linear term's; ``quadratic_enabled=False`` drops the quadratic
    term entirely (ablation).
    """

    delta: float
    n_substeps: int = 8
    collar_enabled: bool = True
    quadratic_enabled: bool = True

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.n_substeps < 1:
            raise ValueError("n_substeps must be >= 1")

    def grid(self) -> FlowGrid:
        return FlowGrid(delta=self.delta, n_steps=self.n_substeps)


@dataclass
class FilterDiagnostics:
    """Mutable counters for numerics events across a filter run (aborted
    cycles are recorded per cycle in ``TrajectoryRecord.aborted``)."""

    psd_repairs: int = 0

    def record_repair(self, min_eig: float) -> None:
        self.psd_repairs += 1
        logger.debug("covariance eigenvalue floor applied (min eig %.3e)", min_eig)


def gain(xi_delta: SymTensor2, j: np.ndarray, beta_at_ydelta: np.ndarray) -> np.ndarray:
    """Gain G = Xi J^T [J Xi J^T + beta]^(-1) via a symmetric linear solve."""
    j = np.asarray(j, dtype=float)
    innov = symmetrize(j @ xi_delta.mat @ j.T + np.asarray(beta_at_ydelta, dtype=float))
    if symmetric_condition(innov) > GAIN_COND_LIMIT:
        raise IllConditionedGainError(
            f"innovation matrix condition number exceeds {GAIN_COND_LIMIT:.0e}"
        )
    return np.linalg.solve(innov, j @ xi_delta.mat).T


def rho_build(
    model: DiffusionModel,
    bundle: PropagationBundle,
    grid: FlowGrid,
    g: np.ndarray,
    j: np.ndarray,
    nabla_dpsi: Bilinear3,
    z_hat: np.ndarray,
) -> np.ndarray:
    """Quadratic innovation correction, centred on its mean.

    rho = (1/2) {[I - GJ] ndphi(tau S tau^T) - G ndpsi(S)},
    S = Gz (x) Gz - G J Xi_delta,
    with z = z_hat the innovation, tau = tau_delta^0 pulling S back to the
    interval start and ndphi the flow form of
    :func:`gifilter.flow.flow_second_fundamental_form`.  The correction is
    linear in S, so the quadratic term and its mean are one contraction:
    under the innovation distribution E[z (x) z] = J Xi_delta J^T + beta,
    hence E[Gz (x) Gz] = G (J Xi J^T + beta) G^T = G J Xi_delta, and S has
    zero mean.
    """
    gz = g @ z_hat
    s = np.outer(gz, gz) - symmetrize(g @ j @ bundle.xi_delta.mat)
    back = bundle.tau_delta_0
    flow_term = flow.flow_second_fundamental_form(model, bundle.x_path, bundle.taus, grid,
                                                  back @ s @ back.T)
    proj = np.eye(g.shape[0]) - g @ j
    return 0.5 * (proj @ flow_term - g @ nabla_dpsi.contract(s))


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
) -> tuple[np.ndarray, SymTensor2]:
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
            nq = float(np.linalg.norm(quad))
            nl = float(np.linalg.norm(linear))
            if nq > nl and nq > 0.0:
                quad = quad * (nl / nq)
        mu = mu + quad
    sigma = symmetrize((np.eye(g.shape[0]) - g @ j) @ bundle.xi_delta.mat)
    return mu, SymTensor2(sigma)


def update_estimate(
    x_delta: np.ndarray,
    mu: np.ndarray,
    sigma: SymTensor2,
    state_conn: ConnectorField,
) -> StateEstimate:
    """Map the conditional moments at x_delta to the new state estimate.

    The barycenter-corrected tangent vector is pushed through the
    third-order series exponential map, and the covariance through that
    map's derivative I - Gamma(x_delta)(v, .).
    """
    v = barycenter_correction(mu, sigma, state_conn, x_delta)
    if state_conn.flat:
        return StateEstimate(x_delta + v, sigma)
    mu_hat = exp_map_series(x_delta, v, state_conn)
    basis = np.eye(x_delta.size)
    # column j of the derivative is e_j - Gamma(x_delta)(v (x) e_j)
    fmat = basis - state_conn.gamma(x_delta, v, basis).T
    return StateEstimate(mu_hat, pushforward_covariance(sigma, fmat))


def repair_psd(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Clip negative covariance eigenvalues at zero.

    Returns the repaired matrix and the most negative eigenvalue found
    (0.0 when no repair was needed).
    """
    mat = symmetrize(mat)
    if mat.shape == (1, 1):
        val = float(mat[0, 0])
        if val >= 0.0:
            return mat, 0.0
        return np.zeros((1, 1)), val
    eigs, vecs = np.linalg.eigh(mat)
    if eigs[0] >= 0.0:
        return mat, 0.0
    clipped = np.clip(eigs, 0.0, None)
    return (vecs * clipped) @ vecs.T, float(eigs[0])


def filter_step(
    model: DiffusionModel,
    obs: ObservationModel,
    est: StateEstimate,
    y_obs: ObservationEvent,
    config: FilterConfig,
    diag: Optional[FilterDiagnostics] = None,
) -> StateEstimate:
    """One full filter cycle: propagate the estimate and assimilate one observation.

    Deterministic given its inputs.  An ill-conditioned gain raises
    IllConditionedGainError without modifying the estimate; the caller
    decides whether to skip the observation or stop the track.
    """
    grid = config.grid()
    bundle = precompute(model, est.mu_hat, est.sigma_hat, grid)
    x_delta = bundle.x_delta
    y_delta = obs.psi(x_delta)
    jac = np.asarray(obs.dpsi(x_delta), dtype=float)
    nabla_dpsi = map_second_fundamental_form(obs, model.conn, x_delta, jac, y_delta)
    obs_ailp = ailp_observation(bundle, nabla_dpsi, jac)

    g = gain(bundle.xi_delta, jac, obs.beta(y_delta))
    z_delta = pull_back_observation(y_delta, y_obs.y, obs.conn_obs, obs.angular_mask)
    z_hat = z_delta - obs_ailp
    quad = None
    if config.quadratic_enabled:
        quad = rho_build(model, bundle, grid, g, jac, nabla_dpsi, z_hat)
    mu, sigma = assimilate(bundle, g, jac, z_hat, quad, config)
    new_est = update_estimate(x_delta, mu, sigma, model.conn)
    repaired, min_eig = repair_psd(new_est.sigma_hat.mat)
    if min_eig < 0.0:
        if diag is not None:
            diag.record_repair(min_eig)
        else:
            logger.debug("covariance eigenvalue floor applied (min eig %.3e)", min_eig)
        new_est = StateEstimate(new_est.mu_hat, SymTensor2(repaired))
    return new_est
