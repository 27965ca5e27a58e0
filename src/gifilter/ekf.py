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

import numpy as np

# flow's functions are looked up on the module at each call, so that a
# wrapper installed there (a tracer, a test double) sees the EKF's calls too
from . import flow
from .filter import Estimate, gain, repair_psd
from .flow import DiffusionModel
from .geometry import identity, symmetrize
from .observation import ObservationModel, wrap_angles


def ekf_predict(
    model: DiffusionModel, est: Estimate, delta: float, n_substeps: int = 8
) -> Estimate:
    """Propagate mean and covariance over one inter-observation interval.

    Raises ValueError when the model lacks ``ddrift_b`` or
    ``d2drift_b_contract``.  Overflow is silent, as in
    :func:`gifilter.flow.precompute`: an overflowing covariance comes back
    non-finite.
    """
    mean, cov = est
    b_model = model.drift_b_model
    grid = flow.flow_grid(delta, n_substeps)
    with np.errstate(over="ignore", invalid="ignore"):
        path, jacs = flow.integrate_flow(b_model, mean, grid)
        covs, _ = flow.propagate_covariance(model.alpha(path),
                                            flow.transition_jacobians(jacs, grid), cov, grid)
    return path[-1], covs[-1]


def ekf_update(pred: Estimate, obs: ObservationModel, y_obs: np.ndarray) -> Estimate:
    """Standard first-order measurement update with angular residual wrap,
    using the GIF's :func:`gifilter.filter.gain` and, on the covariance,
    :func:`gifilter.filter.repair_psd`."""
    m, cov = pred
    jac = np.asarray(obs.dpsi(m), dtype=float)
    y_pred = obs.psi(m)
    k_gain = gain(cov, jac, obs.beta(y_pred))
    residual = wrap_angles(np.asarray(y_obs, dtype=float) - y_pred, obs.angular_mask)
    m_new = m + k_gain @ residual
    cov_new = symmetrize((identity(m.size) - k_gain @ jac) @ cov)
    return m_new, repair_psd(cov_new)


def ekf_step(
    model: DiffusionModel,
    obs: ObservationModel,
    est: Estimate,
    y_obs: np.ndarray,
    delta: float,
    n_substeps: int = 8,
) -> Estimate:
    """One predict-update cycle: :func:`ekf_predict`, then :func:`ekf_update`."""
    pred = ekf_predict(model, est, delta, n_substeps)
    return ekf_update(pred, obs, y_obs)
