"""Continuous-discrete extended Kalman filter baseline.

Runs in the same chart as the intrinsic filter and carries its estimate
across an interval with the same propagation: :mod:`gifilter.flow`'s
``integrate_flow``, ``transition_jacobians`` and ``propagate_covariance``,
run on the coordinate drift b in place of xi.  So the mean follows b with
the one-step third-order Taylor scheme, which needs the model's
``ddrift_b`` and ``d2drift_b_contract``, and the covariance follows the
trapezium transport of dP/dt = A P + P A^T + alpha with A = Db(m(t)).  The
update is the standard first-order correction.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from .filter import FilterDiagnostics, StateEstimate, gain, repair_psd
from .flow import (
    DiffusionModel,
    flow_grid,
    integrate_flow,
    propagate_covariance,
    transition_jacobians,
)
from .geometry import SymTensor2, identity, symmetrize
from .observation import ObservationEvent, ObservationModel, wrap_angles

logger = logging.getLogger(__name__)


def ekf_predict(
    model: DiffusionModel, est: StateEstimate, delta: float, n_substeps: int = 8
) -> StateEstimate:
    """Propagate mean and covariance over one inter-observation interval.

    Raises ValueError when the model lacks ``ddrift_b`` or
    ``d2drift_b_contract``.
    """
    b_model = model.drift_b_model
    grid = flow_grid(delta, n_substeps)
    path, jacs = integrate_flow(b_model, est.mu_hat, grid)
    cov = propagate_covariance(model.alpha(path), transition_jacobians(jacs, grid),
                               est.sigma_hat, grid)
    return StateEstimate(path[-1], SymTensor2(cov[-1]))


def ekf_update(
    pred: StateEstimate,
    obs: ObservationModel,
    y_obs: np.ndarray,
    diag: Optional[FilterDiagnostics] = None,
) -> StateEstimate:
    """Standard first-order measurement update with angular residual wrap,
    using the GIF's :func:`gifilter.filter.gain` for the Kalman gain."""
    m = pred.mu_hat
    cov = pred.sigma_hat.mat
    jac = np.asarray(obs.dpsi(m), dtype=float)
    y_pred = obs.psi(m)
    k_gain = gain(pred.sigma_hat, jac, obs.beta(y_pred))
    residual = wrap_angles(np.asarray(y_obs, dtype=float) - y_pred, obs.angular_mask)
    m_new = m + k_gain @ residual
    cov_new = symmetrize((identity(m.size) - k_gain @ jac) @ cov)
    repaired, min_eig = repair_psd(cov_new)
    if min_eig < 0.0:
        if diag is not None:
            diag.record_repair(min_eig)
        else:
            logger.debug("EKF covariance eigenvalue floor applied (min eig %.3e)", min_eig)
        cov_new = repaired
    return StateEstimate(m_new, SymTensor2(cov_new))


def ekf_step(
    model: DiffusionModel,
    obs: ObservationModel,
    est: StateEstimate,
    y_obs: ObservationEvent,
    delta: float,
    n_substeps: int = 8,
    diag: Optional[FilterDiagnostics] = None,
) -> StateEstimate:
    """One predict-update cycle."""
    pred = ekf_predict(model, est, delta, n_substeps)
    return ekf_update(pred, obs, y_obs.y, diag=diag)
