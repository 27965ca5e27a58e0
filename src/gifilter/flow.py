"""Deterministic-flow precomputation over one inter-observation interval.

Given a diffusion model and an initial estimate, this module computes the
state path, transition Jacobians, propagated covariance, the intrinsic
location correction for the state, and the second fundamental form of the
flow map.  All quantities feed the filter update in :mod:`gifilter.filter`;
the path, transition Jacobians and covariance also carry the EKF estimate
of :mod:`gifilter.ekf`, run on the coordinate drift b.

Only the Taylor step of :func:`integrate_flow` and the covariance
recursion run point by point.  Everything else is evaluated once per
interval over the whole grid, as arrays with a leading grid axis: the
diffusion variance ``alpha(x_path)`` of shape (n + 1, p, p), the Hessian
stack of :func:`path_hessian` of shape (n + 1, p, p, p), and the transition
maps of :class:`TransitionJacobians` (one stacked matrix exponential).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import DivergenceError, IllConditionedFlowError
from .geometry import Bilinear3, ConnectorField, SymTensor2, symmetrize

FLOW_COND_LIMIT = 1e12


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of every (p, p) matrix in a stack (..., p, p)."""
    # scalar fast path matters in the 1-D benchmark hot loop
    if m.shape[-2:] == (1, 1):
        return np.exp(m)
    return scipy.linalg.expm(m)


@dataclass(frozen=True)
class FlowGrid:
    """Uniform subdivision of the inter-observation interval [0, delta]."""

    delta: float
    n_steps: int = 8

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def step(self) -> float:
        return self.delta / self.n_steps

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezium-rule weights of the n_steps + 1 grid points."""
        weights = np.full(self.n_steps + 1, self.step)
        weights[0] = weights[-1] = 0.5 * self.step
        return weights


@dataclass(frozen=True)
class DiffusionModel:
    """Callable bundle describing a Markov diffusion in one chart.

    ``xi`` is the intrinsic drift vector field, ``dxi`` its Jacobian and
    ``d2xi_contract(x, chi)`` the second derivative contracted against a
    symmetric 2-tensor chi.  ``alpha`` is the diffusion variance matrix
    (sigma sigma^T, possibly degenerate) and ``conn`` the state-space
    connector.  ``drift_b`` is the original coordinate drift, related to xi
    by xi^k = b^k + (1/2) sum_ij alpha^ij Gamma^k_ij; it is used only by the
    simulator and the EKF baseline.  The EKF runs this module's propagation
    (:func:`integrate_flow`, :func:`transition_jacobians`,
    :func:`propagate_covariance`) on b in place of xi, so it requires the
    Jacobian ``ddrift_b`` and the contracted second derivative
    ``d2drift_b_contract``; models never run by the EKF may leave them
    unset.  ``noise_matrix`` supplies sigma(x), with sigma sigma^T =
    alpha, for the noise loading in simulation; simulation requires it and
    raises ValueError without it, so only models that are never simulated
    may leave it unset.  ``constrain(x, ref)`` re-projects a simulated
    state onto the model's constraint manifold.

    ``xi``, ``dxi``, ``drift_b``, ``ddrift_b``, ``noise_matrix`` and
    ``constrain`` take one point x of shape (dim,).  ``alpha``,
    ``d2xi_contract`` and ``d2drift_b_contract`` broadcast over points:
    ``alpha(x)`` with x of shape (..., dim) returns (..., dim, dim), so
    ``alpha(x_path)`` gives the whole grid at once, and the contractions
    broadcast the leading axes of x against those of chi: x of shape
    (..., dim) and chi of shape (..., dim, dim) give a value of the
    broadcast shape (..., dim).  One call thus contracts a stack of tensors
    at one point, or every basis pair at every path point (see
    :func:`path_hessian`).  The connector broadcasts over its vector
    arguments but takes one point (see :class:`ConnectorField`).
    """

    dim: int
    xi: Callable[[np.ndarray], np.ndarray]
    dxi: Callable[[np.ndarray], np.ndarray]
    d2xi_contract: Callable[[np.ndarray, np.ndarray], np.ndarray]
    alpha: Callable[[np.ndarray], np.ndarray]
    conn: ConnectorField
    drift_b: Callable[[np.ndarray], np.ndarray]
    ddrift_b: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d2drift_b_contract: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    noise_matrix: Optional[Callable[[np.ndarray], np.ndarray]] = None
    constrain: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class TransitionJacobians:
    """Per-step linearized flow maps over one grid, and their products.

    Every field is an array stacked along the grid: ``per_step`` has shape
    (n, p, p), ``from_start`` and ``to_end`` shape (n + 1, p, p).  The
    products are formed on first use, so a caller that needs only the
    per-step maps (the covariance recursion) pays for nothing else.
    """

    per_step: np.ndarray  # tau_{t_k}^{t_(k+1)} for k = 0..n-1

    @cached_property
    def from_start(self) -> np.ndarray:
        """tau_0^{t_k} for k = 0..n."""
        n, p, _ = self.per_step.shape
        out = np.empty((n + 1, p, p))
        out[0] = np.eye(p)
        for k in range(n):
            np.matmul(self.per_step[k], out[k], out=out[k + 1])
        return out

    @cached_property
    def to_end(self) -> np.ndarray:
        """tau_{t_k}^delta for k = 0..n."""
        n, p, _ = self.per_step.shape
        out = np.empty((n + 1, p, p))
        out[n] = np.eye(p)
        for k in range(n - 1, -1, -1):
            np.matmul(out[k + 1], self.per_step[k], out=out[k])
        return out

    @cached_property
    def tau_0_delta(self) -> np.ndarray:
        return self.from_start[-1]

    @cached_property
    def tau_delta_0(self) -> np.ndarray:
        return np.linalg.inv(self.tau_0_delta)


def integrate_flow(
    model: DiffusionModel, x0: np.ndarray, grid: FlowGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate dx/dt = xi(x) with a one-step third-order Taylor scheme.

    Returns the state at every grid time, shape (n_steps + 1, dim), and the
    Jacobian Dxi at each of those points, shape (n_steps + 1, dim, dim),
    which the scheme evaluates anyway and :func:`transition_jacobians`
    reuses.
    """
    x0 = np.asarray(x0, dtype=float)
    h = grid.step
    path = np.empty((grid.n_steps + 1, model.dim))
    jacs = np.empty((grid.n_steps + 1, model.dim, model.dim))
    path[0] = x0
    x = x0
    # overflow surfaces as the explicit divergence check below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            xi = model.xi(x)
            dxi = model.dxi(x)
            jacs[k] = dxi
            dxi_xi = dxi @ xi
            third = model.d2xi_contract(x, xi[:, None] * xi) + dxi @ dxi_xi
            x = x + h * xi + 0.5 * h * h * dxi_xi + (h ** 3 / 6.0) * third
            if not np.isfinite(x).all():
                raise DivergenceError(f"flow integration diverged at step {k + 1}",
                                      step=k + 1)
            path[k + 1] = x
    jacs[-1] = model.dxi(x)
    return path, jacs


def transition_jacobians(jacs: np.ndarray, grid: FlowGrid) -> TransitionJacobians:
    """Per-step transition maps via the trapezium matrix exponential.

    tau over one sub-interval is exp((h/2) [Dxi(x_u) + Dxi(x_t)]), from the
    Jacobians at the grid points (shape (n + 1, p, p)), all n of them in
    one stacked exponential; products accumulate the two-parameter
    semigroup from the start and to the end of the interval.
    """
    return TransitionJacobians(per_step=_expm(0.5 * grid.step * (jacs[:-1] + jacs[1:])))


def propagate_covariance(
    alphas: np.ndarray,
    taus: TransitionJacobians,
    sigma0: SymTensor2,
    grid: FlowGrid,
) -> np.ndarray:
    """Trapezium recursion for the propagated covariance Xi_t along the grid,
    from the diffusion variance alpha at each grid point (shape
    (n + 1, p, p)); returns Xi at every grid point, shape (n + 1, p, p)."""
    half = 0.5 * grid.step * alphas
    xis = np.empty_like(half)
    xis[0] = symmetrize(np.asarray(sigma0.mat, dtype=float))
    for k, tau in enumerate(taus.per_step):
        xis[k + 1] = symmetrize(half[k + 1] + tau @ (xis[k] + half[k]) @ tau.T)
    return xis


def path_hessian(model: DiffusionModel, x_path: np.ndarray) -> np.ndarray:
    """Dense second derivative H[k, a, i, j] = D2xi^a_ij at every path point.

    One ``d2xi_contract`` call evaluates every symmetric basis pair
    (e_i e_j^T + e_j e_i^T) / 2 at every point of x_path (shape (n + 1, p))
    by broadcasting; the result has shape (n + 1, p, p, p).
    """
    basis = np.eye(model.dim)
    pairs = 0.5 * (basis[:, None, :, None] * basis[None, :, None, :]
                   + basis[None, :, :, None] * basis[:, None, None, :])
    return np.moveaxis(model.d2xi_contract(x_path[:, None, None, :], pairs), -1, 1)


def ailp_state(
    model: DiffusionModel,
    x_path: np.ndarray,
    hess: np.ndarray,
    alphas: np.ndarray,
    taus: TransitionJacobians,
    xis: np.ndarray,
    sigma0: SymTensor2,
    grid: FlowGrid,
) -> np.ndarray:
    """Intrinsic location correction m_delta for the state at the endpoint.

    kappa = integral of tau_t^delta [D2xi(Xi_t) - Gamma(alpha)] by the
    trapezium rule, with D2xi taken from the Hessian stack ``hess`` of
    :func:`path_hessian`; returns
    (1/2) {kappa - tau_0^delta Gamma(x_0)(Sigma_0) + Gamma(x_delta)(Xi_delta)}.
    """
    conn = model.conn
    integrand = np.einsum("kaij,kij->ka", hess, xis)
    if not conn.flat:
        integrand -= np.array([conn.contract(x, a) for x, a in zip(x_path, alphas)])
    weighted = grid.weights[:, None] * integrand
    m_delta = (taus.to_end @ weighted[:, :, None]).sum(axis=0)[:, 0]
    if not conn.flat:
        m_delta = (
            m_delta
            - taus.tau_0_delta @ conn.contract(x_path[0], sigma0.mat)
            + conn.contract(x_path[-1], xis[-1])
        )
    return 0.5 * m_delta


def flow_second_fundamental_form(
    model: DiffusionModel,
    x_path: np.ndarray,
    hess: np.ndarray,
    taus: TransitionJacobians,
    grid: FlowGrid,
) -> Bilinear3:
    """Second fundamental form of the flow map over [0, delta], at the start point.

    The D2xi integral, sum_k w_k tau_{t_k}^delta H_k(tau_0^{t_k} ., tau_0^{t_k} .)
    with trapezium weights w_k and the Hessian stack ``hess`` of
    :func:`path_hessian`, is formed by matmuls over the whole grid; the two
    connector terms are added at the endpoints.  Coefficients are indexed
    [k, i, j] with (i, j) arguments in the tangent space at x_0 and values
    in the tangent space at x_delta.
    """
    p = model.dim
    start = taus.from_start[:, None]
    pulled = np.swapaxes(start, -1, -2) @ hess @ start  # [k, a, i, j]
    pushed = grid.weights[:, None, None] * taus.to_end  # [k, d, a]
    coeffs = (np.swapaxes(pushed, 0, 1).reshape(p, -1)
              @ pulled.reshape(-1, p * p)).reshape(p, p, p)
    conn = model.conn
    if not conn.flat:
        tau = taus.tau_0_delta
        cols = tau.T
        end = conn.gamma(x_path[-1], cols[:, None], cols[None, :])
        corr = np.einsum("ab,bij->aij", tau, conn.coefficients(x_path[0]))
        coeffs += np.moveaxis(end, -1, 0) - corr
    coeffs = 0.5 * (coeffs + coeffs.transpose(0, 2, 1))
    return Bilinear3(base=np.asarray(x_path[0], dtype=float), coeffs=coeffs)


@dataclass
class PropagationBundle:
    """All precomputed flow quantities over one inter-observation interval."""

    x_path: np.ndarray
    taus: TransitionJacobians
    xis: np.ndarray
    xi_delta: SymTensor2
    m_delta: np.ndarray
    nabla_dphi: Bilinear3

    def __post_init__(self):
        p = self.x_path.shape[1]
        resid = self.taus.tau_delta_0 @ self.taus.tau_0_delta - np.eye(p)
        if np.abs(resid).max() > 1e-8:
            raise IllConditionedFlowError("tau_delta_0 . tau_0_delta deviates from identity")

    @property
    def x_delta(self) -> np.ndarray:
        return self.x_path[-1]

    @property
    def tau_0_delta(self) -> np.ndarray:
        return self.taus.tau_0_delta

    @property
    def tau_delta_0(self) -> np.ndarray:
        return self.taus.tau_delta_0


def precompute(
    model: DiffusionModel, x0: np.ndarray, sigma0: SymTensor2, grid: FlowGrid
) -> PropagationBundle:
    """Run the full flow precomputation from an estimate (x0, sigma0).

    The Taylor step evaluates ``xi``, ``dxi`` and ``d2xi_contract`` once per
    grid step; ``alpha`` and the Hessian stack are then evaluated once each,
    over the whole path.
    """
    x_path, jacs = integrate_flow(model, x0, grid)
    taus = transition_jacobians(jacs, grid)
    if np.linalg.cond(taus.tau_0_delta) > FLOW_COND_LIMIT:
        raise IllConditionedFlowError(
            f"accumulated transition Jacobian condition number exceeds {FLOW_COND_LIMIT:.0e}"
        )
    alphas = model.alpha(x_path)
    hess = path_hessian(model, x_path)
    xis = propagate_covariance(alphas, taus, sigma0, grid)
    m_delta = ailp_state(model, x_path, hess, alphas, taus, xis, sigma0, grid)
    nabla_dphi = flow_second_fundamental_form(model, x_path, hess, taus, grid)
    return PropagationBundle(
        x_path=x_path,
        taus=taus,
        xis=xis,
        xi_delta=SymTensor2(x_path[-1], xis[-1]),
        m_delta=m_delta,
        nabla_dphi=nabla_dphi,
    )
