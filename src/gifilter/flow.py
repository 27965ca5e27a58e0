"""Deterministic-flow precomputation over one inter-observation interval.

Given a diffusion model and an initial estimate, this module computes the
state path, transition Jacobians, propagated covariance, the intrinsic
location correction for the state, and the second fundamental form of the
flow map.  All quantities feed the filter update in :mod:`gifilter.filter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import DivergenceError, IllConditionedFlowError
from .geometry import Bilinear3, ConnectorField, SymTensor2, symmetrize

FLOW_COND_LIMIT = 1e12


def _expm(m: np.ndarray) -> np.ndarray:
    # scalar fast path matters in the 1-D benchmark hot loop
    if m.shape == (1, 1):
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
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.delta, self.n_steps + 1)

    @property
    def step(self) -> float:
        return self.delta / self.n_steps


@dataclass(frozen=True)
class DiffusionModel:
    """Callable bundle describing a Markov diffusion in one chart.

    ``xi`` is the intrinsic drift vector field, ``dxi`` its Jacobian and
    ``d2xi_contract(x, chi)`` the second derivative contracted against a
    symmetric 2-tensor chi.  ``alpha`` is the diffusion variance matrix
    (sigma sigma^T, possibly degenerate) and ``conn`` the state-space
    connector.  ``drift_b`` is the original coordinate drift, related to xi
    by xi^k = b^k + (1/2) sum_ij alpha^ij Gamma^k_ij; it is used only by the
    simulator and the EKF baseline, together with its optional Jacobian
    ``ddrift_b``.  ``noise_matrix`` supplies sigma(x) directly for exact
    noise loading in simulation; ``constrain(x, ref)`` re-projects a
    simulated state onto the model's constraint manifold.

    Callbacks take one point x.  Those with matrix arguments,
    ``d2xi_contract`` and ``d2drift_b_contract``, broadcast over their
    leading axes: chi of shape (..., dim, dim) gives a value of shape
    (..., dim), so one call contracts a whole stack of tensors.  The
    connector follows the same rule (see :class:`ConnectorField`).
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

    def drift_consistency_residual(self, x: np.ndarray) -> float:
        """|xi(x) - b(x) - (1/2) Gamma(x)(alpha(x))| at one point."""
        corr = 0.5 * self.conn.contract(x, self.alpha(x))
        return float(np.linalg.norm(self.xi(x) - self.drift_b(x) - corr))


@dataclass(frozen=True)
class TransitionJacobians:
    """Per-step and accumulated linearized flow maps over one grid."""

    per_step: tuple  # tau_{t_k}^{t_(k+1)} for k = 0..n-1
    from_start: tuple  # tau_0^{t_k} for k = 0..n
    to_end: tuple  # tau_{t_k}^delta for k = 0..n

    @property
    def tau_0_delta(self) -> np.ndarray:
        return self.from_start[-1]

    @cached_property
    def tau_delta_0(self) -> np.ndarray:
        return np.linalg.inv(self.tau_0_delta)


def integrate_flow(model: DiffusionModel, x0: np.ndarray, grid: FlowGrid) -> np.ndarray:
    """Integrate dx/dt = xi(x) with a one-step third-order Taylor scheme.

    Returns the state at every grid time, shape (n_steps + 1, dim).
    """
    x0 = np.asarray(x0, dtype=float)
    h = grid.step
    path = np.empty((grid.n_steps + 1, model.dim))
    path[0] = x0
    x = x0
    # overflow surfaces as the explicit divergence check below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(grid.n_steps):
            xi = model.xi(x)
            dxi = model.dxi(x)
            third = model.d2xi_contract(x, np.outer(xi, xi)) + dxi @ (dxi @ xi)
            x = x + h * xi + 0.5 * h * h * (dxi @ xi) + (h ** 3 / 6.0) * third
            if not np.all(np.isfinite(x)):
                raise DivergenceError(f"flow integration diverged at step {k + 1}",
                                      step=k + 1)
            path[k + 1] = x
    return path


def transition_jacobians(
    model: DiffusionModel, x_path: np.ndarray, grid: FlowGrid
) -> TransitionJacobians:
    """Per-step transition maps via the trapezium matrix exponential.

    tau over one sub-interval is exp((h/2) [Dxi(x_u) + Dxi(x_t)]); products
    accumulate the two-parameter semigroup from the start and to the end of
    the interval.
    """
    h = grid.step
    eye = np.eye(model.dim)
    jacs = [model.dxi(x) for x in x_path]
    per_step = [
        _expm(0.5 * h * (jacs[k] + jacs[k + 1])) for k in range(grid.n_steps)
    ]
    from_start = [eye]
    for tau in per_step:
        from_start.append(tau @ from_start[-1])
    to_end = [eye] * (grid.n_steps + 1)
    for k in range(grid.n_steps - 1, -1, -1):
        to_end[k] = to_end[k + 1] @ per_step[k]
    tau_total = from_start[-1]
    if np.linalg.cond(tau_total) > FLOW_COND_LIMIT:
        raise IllConditionedFlowError(
            f"accumulated transition Jacobian condition number exceeds {FLOW_COND_LIMIT:.0e}"
        )
    return TransitionJacobians(
        per_step=tuple(per_step), from_start=tuple(from_start), to_end=tuple(to_end)
    )


def propagate_covariance(
    model: DiffusionModel,
    x_path: np.ndarray,
    taus: TransitionJacobians,
    sigma0: SymTensor2,
    grid: FlowGrid,
) -> list[np.ndarray]:
    """Trapezium recursion for the propagated covariance Xi_t along the grid."""
    h = grid.step
    alphas = [model.alpha(x) for x in x_path]
    xis = [symmetrize(np.asarray(sigma0.mat, dtype=float))]
    for k in range(grid.n_steps):
        tau = taus.per_step[k]
        nxt = 0.5 * h * alphas[k + 1] + tau @ (xis[k] + 0.5 * h * alphas[k]) @ tau.T
        xis.append(symmetrize(nxt))
    return xis


def ailp_state(
    model: DiffusionModel,
    x_path: np.ndarray,
    taus: TransitionJacobians,
    xis: Sequence[np.ndarray],
    sigma0: SymTensor2,
    grid: FlowGrid,
) -> np.ndarray:
    """Intrinsic location correction m_delta for the state at the endpoint.

    Accumulates kappa_t = integral of tau_t^delta [D2xi(Xi_t) - Gamma(alpha)]
    by the trapezium transport recursion, then returns
    (1/2) {kappa - tau_0^delta Gamma(x_0)(Sigma_0) + Gamma(x_delta)(Xi_delta)}.
    """
    h = grid.step
    conn = model.conn

    def integrand(k):
        x = x_path[k]
        val = model.d2xi_contract(x, xis[k])
        if not conn.flat:
            val = val - conn.contract(x, model.alpha(x))
        return val

    kappa = np.zeros(model.dim)
    prev = integrand(0)
    for k in range(grid.n_steps):
        cur = integrand(k + 1)
        kappa = 0.5 * h * cur + taus.per_step[k] @ (kappa + 0.5 * h * prev)
        prev = cur
    m_delta = kappa.copy()
    if not conn.flat:
        m_delta = (
            kappa
            - taus.tau_0_delta @ conn.contract(x_path[0], sigma0.mat)
            + conn.contract(x_path[-1], xis[-1])
        )
    return 0.5 * m_delta


def flow_second_fundamental_form(
    model: DiffusionModel,
    x_path: np.ndarray,
    taus: TransitionJacobians,
    grid: FlowGrid,
) -> Bilinear3:
    """Second fundamental form of the flow map over [0, delta], at the start point.

    The D2xi integral is discretized with the trapezium rule; the two
    connector terms are added at the endpoints.  Coefficients are indexed
    [k, i, j] with (i, j) arguments in the tangent space at x_0 and values
    in the tangent space at x_delta.
    """
    p = model.dim
    h = grid.step
    n = grid.n_steps
    coeffs = np.zeros((p, p, p))
    for k in range(n + 1):
        weight = h * (0.5 if k in (0, n) else 1.0)
        # cols[i] is column i of tau_0^{t_k}; pairs[i, j] = sym_outer(cols[i], cols[j])
        cols = taus.from_start[k].T
        pairs = 0.5 * (cols[:, None, :, None] * cols[None, :, None, :]
                       + cols[None, :, :, None] * cols[:, None, None, :])
        block = model.d2xi_contract(x_path[k], pairs)
        coeffs += weight * np.einsum("ab,ijb->aij", taus.to_end[k], block)
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
    xis: list
    xi_delta: SymTensor2
    m_delta: np.ndarray
    nabla_dphi: Bilinear3
    grid: FlowGrid

    def __post_init__(self):
        p = self.x_path.shape[1]
        resid = self.taus.tau_delta_0 @ self.taus.tau_0_delta - np.eye(p)
        if float(np.max(np.abs(resid))) > 1e-8:
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
    """Run the full flow precomputation from an estimate (x0, sigma0)."""
    x_path = integrate_flow(model, x0, grid)
    taus = transition_jacobians(model, x_path, grid)
    xis = propagate_covariance(model, x_path, taus, sigma0, grid)
    m_delta = ailp_state(model, x_path, taus, xis, sigma0, grid)
    nabla_dphi = flow_second_fundamental_form(model, x_path, taus, grid)
    return PropagationBundle(
        x_path=x_path,
        taus=taus,
        xis=xis,
        xi_delta=SymTensor2(x_path[-1], xis[-1]),
        m_delta=m_delta,
        nabla_dphi=nabla_dphi,
        grid=grid,
    )
