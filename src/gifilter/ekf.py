"""Continuous-discrete extended Kalman filter baseline.

Runs in the same chart as the intrinsic filter and carries its estimate
across an interval with the same propagation: :mod:`gifilter.flow`'s
``integrate_flow``, ``transition_jacobians`` and ``propagate_covariance``,
run on the coordinate drift b in place of xi.  So the mean follows b with
the one-step third-order Taylor scheme, which needs the model's
``ddrift_b`` and ``d2drift_b_contract`` (and runs in b's own loop,
``drift_b_taylor_loop``, where the model gives one), and the covariance
follows the trapezium transport of dP/dt = A P + P A^T + alpha with A =
Db(m(t)).  The update is the standard first-order correction.  A cycle that
:func:`gifilter.filter.scalar_cycle` admits runs on Python floats from
stage to stage, through the float forms of b, as the GIF's does.
"""

from __future__ import annotations

import numpy as np

# flow's functions are looked up on the module at each call, so that a
# wrapper installed there (a tracer, a test double) sees the EKF's calls too
from . import flow
from .filter import Estimate, _arrays, _floats, gain, repair_psd, scalar_cycle
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
    non-finite.  The float estimate of a scalar cycle gives floats.
    """
    mean, cov = est
    b_model = model.drift_b_model
    grid = flow.flow_grid(delta, n_substeps)
    with np.errstate(over="ignore", invalid="ignore"):
        path, jacs = flow.integrate_flow(b_model, mean, grid)
        covs, _ = flow.propagate_covariance(flow.alpha_path(model, path),
                                            flow.transition_jacobians(jacs, grid), cov, grid)
    return path[-1], covs[-1]


def ekf_update(pred: Estimate, obs: ObservationModel, y_obs: np.ndarray) -> Estimate:
    """Standard first-order measurement update with angular residual wrap,
    using the GIF's :func:`gifilter.filter.gain` and, on the covariance,
    :func:`gifilter.filter.repair_psd`.  The float estimate and
    observation of a scalar cycle give floats, each 1x1 product formed as
    0.0 + a * b, as matmul forms it."""
    m, cov = pred
    if isinstance(m, float):
        forms = obs.float_forms
        jac = forms.dpsi(m)
        y_pred = forms.psi(m)
        k_gain = gain(cov, jac, forms.beta(y_pred))
        cov_new = 0.0 + (1.0 - (0.0 + k_gain * jac)) * cov
        return m + (0.0 + k_gain * (y_obs - y_pred)), repair_psd(0.5 * (cov_new + cov_new))
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
    """One predict-update cycle: :func:`ekf_predict`, then :func:`ekf_update`,
    on floats from stage to stage when :func:`gifilter.filter.scalar_cycle`
    admits the cycle."""
    scalar = scalar_cycle(model, obs)
    if scalar:
        est, y_obs = _floats(est, y_obs)
    pred = ekf_predict(model, est, delta, n_substeps)
    est = ekf_update(pred, obs, y_obs)
    return _arrays(est) if scalar else est
