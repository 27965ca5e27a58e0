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
from ..observation import ObservationFloatForms, ObservationModel


@dataclass(frozen=True)
class Cubic1DParams:
    p_crit: float = 0.1
    alpha: float = 0.01
    beta: float = 0.001

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.p_crit, self.alpha, self.beta)):
            raise ValueError("p_crit, alpha and beta must be positive")


def _on_numpy(form, *args) -> float:
    """``form`` evaluated on numpy float64 scalars, as a Python float: the
    value its array callback gives where Python float arithmetic raises
    (``**`` past the float range, a division by zero), +-inf or NaN."""
    with np.errstate(all="ignore"):
        return float(form(*map(np.float64, args)))


def cubic1d_build(params: Cubic1DParams) -> tuple[DiffusionModel, ObservationModel]:
    """The diffusion and observation models of ``params``.

    The drift and the observation map are written once, in their float
    forms (:class:`FloatForms`, :class:`ObservationFloatForms`): ``xi``,
    ``dxi``, ``psi``, ``dpsi`` and ``d2psi`` call theirs on their one
    entry, a numpy scalar, and ``d2xi_contract`` on ``chi[..., 0, :]``, so
    each array does its form's operations and gives its bits.  Where
    Python float arithmetic raises on a float, a form evaluates itself on
    numpy scalars instead (:func:`_on_numpy`), as its array does.
    """
    p_crit = params.p_crit
    beta_mat = np.array([[params.beta]])
    loading = math.sqrt(params.alpha)
    noise = np.array([[loading]])

    def xi_form(x):
        try:
            return -0.5 * x ** 3
        except ArithmeticError:
            return _on_numpy(xi_form, x)

    def dxi_form(x):
        try:
            return -1.5 * x ** 2
        except ArithmeticError:
            return _on_numpy(dxi_form, x)

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
            noise_matrix=lambda x: loading, alpha=lambda x: params.alpha),
    )

    def psi_form(x):
        try:
            return x / (p_crit + x ** 2)
        except ArithmeticError:
            return _on_numpy(psi_form, x)

    def dpsi_form(x):
        try:
            den = p_crit + x ** 2
            return (p_crit - x ** 2) / den ** 2
        except ArithmeticError:
            return _on_numpy(dpsi_form, x)

    def d2psi_form(x):
        try:
            den = p_crit + x ** 2
            return 2.0 * x * (x ** 2 - 3.0 * p_crit) / den ** 3
        except ArithmeticError:
            return _on_numpy(d2psi_form, x)

    observation = ObservationModel(
        dim_obs=1,
        psi=lambda x: np.array([psi_form(x[0])]),
        dpsi=lambda x: np.array([[dpsi_form(x[0])]]),
        d2psi=lambda x: np.array([[[d2psi_form(x[0])]]]),
        beta=lambda y: beta_mat,
        conn_obs=flat_connector(1),
        float_forms=ObservationFloatForms(psi=psi_form, dpsi=dpsi_form, d2psi=d2psi_form,
                                          beta=lambda y: params.beta),
    )
    return diffusion, observation
