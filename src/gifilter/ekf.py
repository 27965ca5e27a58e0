"""Continuous-discrete extended Kalman filter baseline.

Runs in the same chart as the intrinsic filter: the mean follows the
coordinate drift b, the covariance follows the linearized Lyapunov equation
dP/dt = A P + P A^T + alpha with A = Db(m(t)), and the update is the
standard first-order correction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError, IllConditionedGainError, NonFiniteError
from .filter import FilterDiagnostics, repair_psd
from .flow import DiffusionModel, FlowGrid, _expm
from .geometry import SymTensor2, symmetric_condition, symmetrize
from .observation import ObservationEvent, ObservationModel, wrap_angles

logger = logging.getLogger(__name__)

EKF_COND_LIMIT = 1e12


@dataclass
class EkfEstimate:
    mean: np.ndarray
    cov: SymTensor2

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        if not np.all(np.isfinite(self.mean)):
            raise NonFiniteError("EKF estimate has non-finite coordinates")


def _drift_jacobian(model: DiffusionModel, x: np.ndarray) -> np.ndarray:
    if model.ddrift_b is not None:
        return np.asarray(model.ddrift_b(x), dtype=float)
    # central differences when the model ships no analytic Jacobian of b
    p = model.dim
    out = np.zeros((p, p))
    for i in range(p):
        h = 1e-6 * (1.0 + abs(float(x[i])))
        xp = np.array(x, dtype=float)
        xm = np.array(x, dtype=float)
        xp[i] += h
        xm[i] -= h
        out[:, i] = (model.drift_b(xp) - model.drift_b(xm)) / (2.0 * h)
    return out


def ekf_predict(
    model: DiffusionModel, est: EkfEstimate, delta: float, n_substeps: int = 8
) -> EkfEstimate:
    """Propagate mean and covariance over one inter-observation interval.

    The mean uses the same one-step Taylor scheme as the intrinsic flow,
    applied to the coordinate drift b; the covariance uses the trapezium
    transition recursion with A = Db evaluated along the mean path.
    When the model supplies no second derivative of b, the scheme's cubic
    term is dropped.
    """
    grid = FlowGrid(delta=delta, n_steps=n_substeps)
    h = grid.step
    m = np.array(est.mean, dtype=float)
    cov = symmetrize(np.array(est.cov.mat, dtype=float))
    a_prev = _drift_jacobian(model, m)
    alpha_prev = model.alpha(m)
    # overflow surfaces as the explicit divergence check below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            b = model.drift_b(m)
            ab = a_prev @ b
            m_next = m + h * b + 0.5 * h * h * ab
            if model.d2drift_b_contract is not None:
                third = model.d2drift_b_contract(m, np.outer(b, b)) + a_prev @ ab
                m_next = m_next + (h ** 3 / 6.0) * third
            if not np.all(np.isfinite(m_next)):
                raise DivergenceError(f"EKF mean propagation diverged at step {k + 1}",
                                      step=k + 1)
            a_next = _drift_jacobian(model, m_next)
            alpha_next = model.alpha(m_next)
            tau = _expm(0.5 * h * (a_prev + a_next))
            cov = symmetrize(0.5 * h * alpha_next
                             + tau @ (cov + 0.5 * h * alpha_prev) @ tau.T)
            m, a_prev, alpha_prev = m_next, a_next, alpha_next
    return EkfEstimate(m, SymTensor2(m, cov))


def ekf_update(
    pred: EkfEstimate,
    obs: ObservationModel,
    y_obs: np.ndarray,
    diag: Optional[FilterDiagnostics] = None,
) -> EkfEstimate:
    """Standard first-order measurement update with angular residual wrap."""
    m = pred.mean
    cov = pred.cov.mat
    jac = np.asarray(obs.dpsi(m), dtype=float)
    y_pred = obs.psi(m)
    innov = symmetrize(jac @ cov @ jac.T + np.asarray(obs.beta(y_pred), dtype=float))
    if symmetric_condition(innov) > EKF_COND_LIMIT:
        raise IllConditionedGainError(
            f"EKF innovation matrix condition number exceeds {EKF_COND_LIMIT:.0e}"
        )
    k_gain = np.linalg.solve(innov, jac @ cov).T
    residual = wrap_angles(np.asarray(y_obs, dtype=float) - y_pred, obs.angular_mask)
    m_new = m + k_gain @ residual
    cov_new = symmetrize((np.eye(m.size) - k_gain @ jac) @ cov)
    repaired, min_eig = repair_psd(cov_new)
    if min_eig < 0.0:
        if diag is not None:
            diag.record_repair(min_eig)
        else:
            logger.debug("EKF covariance eigenvalue floor applied (min eig %.3e)", min_eig)
        cov_new = repaired
    return EkfEstimate(m_new, SymTensor2(m_new, cov_new))


def ekf_step(
    model: DiffusionModel,
    obs: ObservationModel,
    est: EkfEstimate,
    y_obs: ObservationEvent,
    delta: float,
    n_substeps: int = 8,
    diag: Optional[FilterDiagnostics] = None,
) -> EkfEstimate:
    """One predict-update cycle."""
    pred = ekf_predict(model, est, delta, n_substeps)
    return ekf_update(pred, obs, y_obs.y, diag=diag)
