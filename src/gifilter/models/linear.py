"""Linear/Gaussian reference model: constant coefficients, flat geometry."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flow import DiffusionModel
from ..geometry import flat_connector
from ..observation import ObservationModel


@dataclass(frozen=True)
class LinearParams:
    """Constant-coefficient linear SDE with linear observations."""

    a_mat: np.ndarray
    sigma_mat: np.ndarray
    j_mat: np.ndarray
    b_mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_mat", np.asarray(self.a_mat, dtype=float))
        object.__setattr__(self, "sigma_mat", np.asarray(self.sigma_mat, dtype=float))
        object.__setattr__(self, "j_mat", np.asarray(self.j_mat, dtype=float))
        object.__setattr__(self, "b_mat", np.asarray(self.b_mat, dtype=float))
        eigs = np.linalg.eigvalsh(0.5 * (self.b_mat + self.b_mat.T))
        if eigs[0] <= 0.0:
            raise ValueError("observation covariance b_mat must be SPD")

    @property
    def state_dim(self) -> int:
        return self.a_mat.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.j_mat.shape[0]


def linear_build(params: LinearParams) -> tuple[DiffusionModel, ObservationModel]:
    """Assemble the linear model with flat connectors on both spaces."""
    p = params.state_dim
    q = params.obs_dim
    a_mat = params.a_mat
    alpha_const = params.sigma_mat @ params.sigma_mat.T
    j_mat = params.j_mat
    b_mat = params.b_mat

    def xi(x):
        return a_mat @ x

    def dxi(x):
        return a_mat

    def d2xi_contract(x, chi):
        return np.zeros(np.shape(chi)[:-1])

    diffusion = DiffusionModel(
        dim=p,
        xi=xi,
        dxi=dxi,
        d2xi_contract=d2xi_contract,
        alpha=lambda x: alpha_const,
        conn=flat_connector(p),
        drift_b=xi,
        ddrift_b=dxi,
        d2drift_b_contract=d2xi_contract,
        noise_matrix=lambda x: params.sigma_mat,
    )

    observation = ObservationModel(
        dim_obs=q,
        psi=lambda x: j_mat @ x,
        dpsi=lambda x: j_mat,
        d2psi=lambda x: np.zeros((q, p, p)),
        beta=lambda y: b_mat,
        conn_obs=flat_connector(q),
        dbeta=lambda y: np.zeros((q, q, q)),
    )
    return diffusion, observation
