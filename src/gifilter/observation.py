"""Observation-side geometry: the map psi, its covariance metric, and AILPs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteError, SingularMetricError
from .flow import PropagationBundle
from .geometry import ConnectorField, exp_map_series, symmetrize


def wrap_angles(w: np.ndarray, angular_mask: Optional[np.ndarray]) -> np.ndarray:
    """Reduce angular components of a residual to (-pi, pi]."""
    if angular_mask is None or not np.any(angular_mask):
        return w
    out = np.array(w, dtype=float)
    wrapped = -(np.mod(-out[angular_mask] + np.pi, 2.0 * np.pi) - np.pi)
    out[angular_mask] = wrapped
    return out


@dataclass(frozen=True)
class ObservationModel:
    """Callable bundle for a nonlinear observation with metric covariance.

    ``psi`` maps state points to observation points; ``dpsi`` is its q x p
    Jacobian and ``d2psi`` its (q, p, p) second derivative.  ``beta`` is the
    observation covariance metric (symmetric positive definite wherever
    evaluated) with connector ``conn_obs``.  ``angular_mask`` flags
    observation coordinates that live on a circle, so residuals can be
    wrapped before use.

    ``psi``, ``dpsi``, ``d2psi`` and ``beta`` take one point: like the
    drift callbacks of :class:`~gifilter.flow.DiffusionModel`, they are
    called one point at a time, a few times per cycle, where broadcasting
    would only make each call dearer.  ``conn_obs`` broadcasts over points
    and vector arguments like every :class:`ConnectorField`.
    """

    dim_obs: int
    psi: Callable[[np.ndarray], np.ndarray]
    dpsi: Callable[[np.ndarray], np.ndarray]
    d2psi: Callable[[np.ndarray], np.ndarray]
    beta: Callable[[np.ndarray], np.ndarray]
    conn_obs: ConnectorField
    angular_mask: Optional[np.ndarray] = None


def _scalar_root(value: float) -> float:
    """sqrt(b) of the one entry b of a symmetrized 1x1 metric, as eigh's
    eigenvalue b and eigenvector 1 give it; SingularMetricError when b is
    not positive.  A NaN entry passes through as it does through eigh."""
    if value <= 0.0:
        raise SingularMetricError(f"observation covariance not SPD (min eig {value:.3e})")
    return math.sqrt(value)


def beta_sqrt(beta: np.ndarray) -> np.ndarray:
    """Symmetric square root of an SPD matrix via eigendecomposition;
    SingularMetricError when its smallest eigenvalue is not positive.

    A 1x1 matrix takes no eigh: its root is :func:`_scalar_root` of its one
    entry, the rule the scalar branch of :func:`sample_observation` applies
    too.
    """
    beta = symmetrize(np.asarray(beta, dtype=float))
    if beta.shape == (1, 1):
        return np.array([[_scalar_root(float(beta[0, 0]))]])
    eigs, vecs = np.linalg.eigh(beta)
    if eigs[0] <= 0.0:
        raise SingularMetricError(f"observation covariance not SPD (min eig {eigs[0]:.3e})")
    return (vecs * np.sqrt(eigs)) @ vecs.T


def map_second_fundamental_form(
    obs: ObservationModel,
    state_conn: ConnectorField,
    x: np.ndarray,
    jac: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Second fundamental form of psi at x, as the (q, p, p) coefficients
    of a bilinear map, symmetric in the last two indices.

    nabla dpsi(v, w) = D2psi(v, w) - Dpsi Gamma(v, w)
                     + Gamma_bar(y)(Dpsi v, Dpsi w),
    with ``jac`` the Jacobian Dpsi(x) and ``y`` the observation point psi(x).
    """
    x = np.asarray(x, dtype=float)
    coeffs = np.array(obs.d2psi(x), dtype=float)
    if not state_conn.flat:
        coeffs -= np.einsum("ka,aij->kij", jac, state_conn.coefficients(x))
    if not obs.conn_obs.flat:
        gbar = obs.conn_obs.coefficients(y)
        coeffs += np.einsum("kab,ai,bj->kij", gbar, jac, jac)
    return 0.5 * (coeffs + coeffs.transpose(0, 2, 1))


def ailp_observation(
    bundle: PropagationBundle, nabla_dpsi: np.ndarray, jac: np.ndarray
) -> np.ndarray:
    """Intrinsic location correction of psi(X_delta) in the tangent space at y_delta.

    The second fundamental form of psi at x_delta contracted with the
    propagated covariance, plus the state correction transported through
    the Jacobian ``jac``:
    (1/2) nabla dpsi(Xi_delta) + J m_delta
      = (1/2) {D2psi(Xi) - J Gamma(Xi) + Gamma_bar(J Xi J^T)} + J m_delta.
    """
    return 0.5 * np.einsum("kij,ij->k", nabla_dpsi, bundle.xi_delta) + jac @ bundle.m_delta


def sample_observation(
    obs: ObservationModel,
    true_state: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one noisy observation of psi(true_state), with its angular
    coordinates wrapped; NonFiniteError, a ValueError, when it is not
    finite: a numerical failure, not a bad argument.

    The noise is a zero-mean Gaussian in the tangent space at psi(X), with
    covariance beta there, pushed to the observation manifold through the
    exponential map of the observation connector.  For a flat observation
    geometry this reduces to Y = psi(X) + beta^(1/2) V.

    A scalar flat observation (``dim_obs == 1``, a flat ``conn_obs`` and no
    ``angular_mask``, as in cubic1d) is drawn on Python floats, with the
    same operations in the same order: the 1x1 product formed as
    ``0.0 + r * n``, as matmul forms it, and ``rng.standard_normal()``
    drawing the value ``standard_normal(1)`` would.  The observation and
    the random stream keep their bits.
    """
    y_center = np.asarray(obs.psi(np.asarray(true_state, dtype=float)), dtype=float)
    if obs.dim_obs == 1 and obs.conn_obs.flat and obs.angular_mask is None:
        b = float(np.asarray(obs.beta(y_center), dtype=float)[0, 0])
        y = y_center[0] + (0.0 + _scalar_root(0.5 * (b + b)) * rng.standard_normal())
        if not math.isfinite(y):
            raise NonFiniteError("observation has non-finite coordinates")
        return np.array([y])
    root = beta_sqrt(obs.beta(y_center))
    v = root @ rng.standard_normal(obs.dim_obs)
    if obs.conn_obs.flat:
        y = y_center + v
    else:
        y = exp_map_series(y_center, v, obs.conn_obs)
    if not np.isfinite(y).all():
        raise NonFiniteError("observation has non-finite coordinates")
    return wrap_angles(y, obs.angular_mask)
