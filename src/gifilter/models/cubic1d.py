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

from ..flow import DiffusionModel, FloatForms
from ..geometry import flat_connector
from ..observation import ObservationModel


@dataclass(frozen=True)
class Cubic1DParams:
    p_crit: float = 0.1
    alpha: float = 0.01
    beta: float = 0.001

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.p_crit, self.alpha, self.beta)):
            raise ValueError("p_crit, alpha and beta must be positive")


def cubic1d_build(params: Cubic1DParams) -> tuple[DiffusionModel, ObservationModel]:
    """The diffusion and observation models of ``params``.

    The drift is written once, in its float forms (:class:`FloatForms`):
    ``xi`` and ``dxi`` call theirs on their one entry, a numpy scalar, and
    ``d2xi_contract`` on ``chi[..., 0, :]``, so each array does its form's
    operations and gives its bits.  Where a float's ``**`` raises
    OverflowError, the forms return numpy's +-inf instead.
    """
    p_crit = params.p_crit
    beta_mat = np.array([[params.beta]])
    loading = math.sqrt(params.alpha)
    noise = np.array([[loading]])

    def xi_form(x):
        try:
            return -0.5 * x ** 3
        except OverflowError:
            return -0.5 * math.copysign(math.inf, x)

    def dxi_form(x):
        try:
            return -1.5 * x ** 2
        except OverflowError:
            return -1.5 * math.inf

    def d2xi_contract_form(x, chi):
        return -3.0 * x * chi

    def xi(x):
        return np.array([xi_form(x[0])])

    def dxi(x):
        return np.array([[dxi_form(x[0])]])

    def d2xi_contract(x, chi):
        return d2xi_contract_form(x, chi[..., 0, :])

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
        float_forms=FloatForms(
            xi=xi_form, dxi=dxi_form, d2xi_contract=d2xi_contract_form,
            drift_b=xi_form, ddrift_b=dxi_form, d2drift_b_contract=d2xi_contract_form,
            noise_matrix=lambda x: loading),
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
