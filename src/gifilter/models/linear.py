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
        names = ("a_mat", "sigma_mat", "j_mat", "b_mat")
        for name in names:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        p = self.a_mat.shape[0] if self.a_mat.ndim else 0  # states
        m = self.sigma_mat.shape[-1] if self.sigma_mat.ndim else 0  # noise inputs
        q = self.j_mat.shape[0] if self.j_mat.ndim else 0  # observations
        for name, label, shape in (("a_mat", "(p, p)", (p, p)), ("sigma_mat", "(p, m)", (p, m)),
                                   ("j_mat", "(q, p)", (q, p)), ("b_mat", "(q, q)", (q, q))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {label} = {shape}, "
                                 f"got {getattr(self, name).shape}")
        if not all(np.isfinite(getattr(self, name)).all() for name in names):
            raise ValueError("a_mat, sigma_mat, j_mat and b_mat must be finite")
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
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(chi)[:-1]))

    diffusion = DiffusionModel(
        dim=p,
        xi=xi,
        dxi=dxi,
        d2xi_contract=d2xi_contract,
        alpha=lambda x: np.broadcast_to(alpha_const, np.shape(x)[:-1] + (p, p)),
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
    )
    return diffusion, observation
