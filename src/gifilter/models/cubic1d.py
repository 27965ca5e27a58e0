"""One-dimensional cubic benchmark model.

State drift -x^3/2 with constant process noise, observed through the
bimodal map x / (p + x^2) with constant observation noise.  Both noise
covariances are constant, so both local connectors vanish and the model
exercises the flat-geometry specialization of the filter while keeping the
location corrections and the quadratic update term nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..flow import DiffusionModel
from ..geometry import flat_connector
from ..observation import ObservationModel


@dataclass(frozen=True)
class Cubic1DParams:
    p_crit: float = 0.1
    alpha: float = 0.01
    beta: float = 0.001
    delta: float = 1.0

    def __post_init__(self):
        if self.p_crit <= 0.0 or self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError("p_crit, alpha and beta must be positive")


def cubic1d_build(params: Cubic1DParams) -> tuple[DiffusionModel, ObservationModel]:
    p_crit = params.p_crit
    beta_mat = np.array([[params.beta]])
    noise = np.array([[math.sqrt(params.alpha)]])

    def xi(x):
        return np.array([-0.5 * x[0] ** 3])

    def dxi(x):
        return np.array([[-1.5 * x[0] ** 2]])

    def d2xi_contract(x, chi):
        return -3.0 * x * chi[..., 0, :]

    diffusion = DiffusionModel(
        dim=1,
        xi=xi,
        dxi=dxi,
        d2xi_contract=d2xi_contract,
        alpha=lambda x: np.full(np.shape(x)[:-1] + (1, 1), params.alpha),
        conn=flat_connector(1),
        drift_b=xi,
        ddrift_b=dxi,
        d2drift_b_contract=d2xi_contract,
        noise_matrix=lambda x: noise,
    )

    def psi(x):
        return np.array([x[0] / (p_crit + x[0] ** 2)])

    def dpsi(x):
        den = p_crit + x[0] ** 2
        return np.array([[(p_crit - x[0] ** 2) / den ** 2]])

    def d2psi(x):
        den = p_crit + x[0] ** 2
        return np.array([[[2.0 * x[0] * (x[0] ** 2 - 3.0 * p_crit) / den ** 3]]])

    observation = ObservationModel(
        dim_obs=1,
        psi=psi,
        dpsi=dpsi,
        d2psi=d2psi,
        beta=lambda y: beta_mat,
        conn_obs=flat_connector(1),
    )
    return diffusion, observation
