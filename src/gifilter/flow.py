"""Deterministic-flow precomputation over one inter-observation interval.

Given a diffusion model and an initial estimate, this module computes the
state path, transition Jacobians, propagated covariance and the intrinsic
location correction for the state; :func:`flow_second_fundamental_form`
contracts the second fundamental form of the flow map with one symmetric
tensor when the filter update asks for it.  All quantities feed the filter
update in :mod:`gifilter.filter`; the path, transition Jacobians and
covariance also carry the EKF estimate of :mod:`gifilter.ekf`, run on the
coordinate drift b.

Only the Taylor step of :func:`integrate_flow` runs point by point, and
it checks the finished path for a divergence once per interval.
Everything else is evaluated once per interval over the whole grid, as
plain arrays with a leading grid axis: the diffusion variance
``alpha(x_path)`` of shape (n + 1, p, p), the per-step transition maps of
:func:`transition_jacobians` (one stacked matrix exponential), each
second-derivative integrand (one ``d2xi_contract`` call over the path with
a stack of (n + 1, p, p) tensors), and the recursions along the grid.  The
transition products and the covariance recursion compose associatively,
so a parallel-prefix scan (:func:`_compose_scan`) forms them in
ceil(log2 n) array rounds instead of n sequential steps.  Each product has
one producer: :func:`propagate_covariance` returns tau_0^{t_k} with the
covariance, from the same scan, and :func:`precompute` forms
tau_{t_k}^delta and the inverse tau_delta^0 once per cycle.  No dense
second-derivative array is formed.

A one-dimensional state takes a float path, chosen from the array shapes
alone: the Taylor step when ``model.dim == 1``, and the covariance and
tau_{t_k}^delta when the per-step maps are 1x1.  On 1-element arrays
numpy's per-call overhead outweighs the arithmetic, so these run on Python
floats.  The Taylor step (:func:`_taylor_floats`) performs the array
step's operations in its order and gives its bits.  The scans have no
per-call overhead to amortise on floats, so :func:`_covariance_floats`
and :func:`_to_end_floats` run the step-by-step recursions instead, each
1x1 product a @ b formed as 0.0 + a * b, as matmul does; they may differ
from the array scans in the last bits.  The array helpers
(:func:`_taylor_arrays`, :func:`_covariance_arrays`,
:func:`_to_end_arrays`) serve every other dimension.  A 1x1 tau_0^delta
reaches no LAPACK call either: :func:`_check_condition` tests |tau| in
place of an svd, and :func:`_checked_inverse` forms 1 / tau in place of
``inv``, with LAPACK's bits.  The filter update does the same for 1x1
matrices in :func:`gifilter.filter.gain` (the solve),
:func:`gifilter.geometry.symmetric_condition` (the eigvalsh) and
:func:`gifilter.observation.beta_sqrt` (the eigh), so a scalar model's
cycle makes no LAPACK call at all.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .errors import DivergenceError, IllConditionedFlowError
from .geometry import ConnectorField, identity

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
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not isinstance(self.n_steps, numbers.Integral) or self.n_steps < 1:
            raise ValueError("n_steps must be an integer >= 1")

    @property
    def step(self) -> float:
        return self.delta / self.n_steps

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezium-rule weights of the n_steps + 1 grid points (read-only)."""
        weights = np.full(self.n_steps + 1, self.step)
        weights[0] = weights[-1] = 0.5 * self.step
        weights.flags.writeable = False
        return weights


@lru_cache(maxsize=32)
def flow_grid(delta: float, n_steps: int) -> FlowGrid:
    """The grid of (delta, n_steps), built once and then shared, so that a
    filter cycle neither rebuilds it nor its weights."""
    return FlowGrid(delta=delta, n_steps=n_steps)


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

    ``alpha``, ``d2xi_contract``, ``d2drift_b_contract`` and the
    connector broadcast over points: ``alpha(x)`` with x of shape
    (..., dim) returns (..., dim, dim), so ``alpha(x_path)`` gives the
    whole grid at once, and the contractions broadcast the leading axes of
    x against those of chi: x of shape (..., dim) and chi of shape
    (..., dim, dim) give a value of the broadcast shape (..., dim).  One
    call thus contracts one tensor at every path point (see
    :func:`ailp_state` and :func:`flow_second_fundamental_form`); this
    contraction is the only form of D2xi the filter uses.  The connector
    follows the same rule (see :class:`ConnectorField`).  ``xi``, ``dxi``,
    ``drift_b``, ``ddrift_b``, ``noise_matrix`` and ``constrain`` take one
    point x of shape (dim,): they run one call at a time in the sequential
    Taylor and Euler loops, where broadcasting would make each call dearer
    (a broadcasting cubic ``xi`` costs about twice as much per point).
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

    @cached_property
    def drift_b_model(self) -> "DiffusionModel":
        """This model with the coordinate drift b, ``ddrift_b`` and
        ``d2drift_b_contract`` in place of xi and its derivatives: what the
        EKF propagates.  Built once per model; ValueError when either
        derivative of b is unset."""
        for name in ("ddrift_b", "d2drift_b_contract"):
            if getattr(self, name) is None:
                raise ValueError(f"the EKF needs the model's {name}")
        return dataclasses.replace(self, xi=self.drift_b, dxi=self.ddrift_b,
                                   d2xi_contract=self.d2drift_b_contract)


def _compose_scan(maps: np.ndarray, offsets: Optional[np.ndarray] = None) -> None:
    """Inclusive prefix composition, in place, of the maps X -> A_k X A_k^T + B_k.

    ``maps`` holds the A_k, shape (N, p, p) with N a power of two, and
    ``offsets`` the B_k of the same shape (None when only the products are
    wanted).  Afterwards entry k holds the composition of maps 0..k: the
    product A_k ... A_0 and the offset C_k with
    (map_k o ... o map_0)(X) = (A_k ... A_0) X (A_k ... A_0)^T + C_k.
    This is Sklansky's scan: in round r every block of 2^(r+1) entries
    composes its upper half with the last entry of its lower half, so
    log2 N array rounds replace N sequential steps.  Two maps compose as
    (A2, B2) o (A1, B1) = (A2 A1, A2 B1 A2^T + B2).
    """
    size, p, _ = maps.shape
    half = 1
    while half < size:
        blocks = maps.reshape(-1, 2 * half, p, p)
        later = blocks[:, half:]
        if offsets is not None:
            off = offsets.reshape(-1, 2 * half, p, p)
            off[:, half:] += later @ off[:, half - 1:half] @ np.swapaxes(later, -1, -2)
        blocks[:, half:] = later @ blocks[:, half - 1:half]
        half *= 2


def _scan_buffer(per_step: np.ndarray) -> np.ndarray:
    """(N + 2, p, p) stack: the identity, the n per-step maps, then
    identities to the end, with N the power of two at or above n.  The
    scans run over entries 1..N, so the identities past the maps pad them
    and the first and last entries stay the identity."""
    n, p, _ = per_step.shape
    buf = np.empty((2 + (1 << (n - 1).bit_length()), p, p))
    buf[0] = buf[n + 1:] = identity(p)
    buf[1:n + 1] = per_step
    return buf


def _to_end(per_step: np.ndarray) -> np.ndarray:
    """tau_{t_k}^delta for k = 0..n, shape (n + 1, p, p), from the per-step maps.

    Entry k is tau_(n-1) ... tau_k.  On arrays, read in reverse order and
    transposed, the scan's products A_j ... A_0 are the transposes of
    exactly these, so the scan runs on that view of the buffer and leaves
    them in place, in grid order.  A 1x1 map takes the backward recursion
    of :func:`_to_end_floats`.
    """
    if per_step.shape[-1] == 1:
        return _to_end_floats(per_step)
    return _to_end_arrays(per_step)


def _to_end_arrays(per_step: np.ndarray) -> np.ndarray:
    """:func:`_to_end` on arrays, for any p."""
    buf = _scan_buffer(per_step)
    _compose_scan(np.swapaxes(buf[-2:0:-1], -1, -2))
    return buf[1:per_step.shape[0] + 2]


def _to_end_floats(per_step: np.ndarray) -> np.ndarray:
    """:func:`_to_end` of 1x1 maps on Python floats, step by step:
    to_end_n = 1 and to_end_k = to_end_(k+1) tau_k."""
    to_end = [1.0]
    for tau in per_step[::-1, 0, 0].tolist():
        to_end.append(0.0 + to_end[-1] * tau)
    return np.array(to_end[::-1]).reshape(-1, 1, 1)


def integrate_flow(
    model: DiffusionModel, x0: np.ndarray, grid: FlowGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate dx/dt = xi(x) with a one-step third-order Taylor scheme.

    Returns the state at every grid time, shape (n_steps + 1, dim), and the
    Jacobian Dxi at each of those points, shape (n_steps + 1, dim, dim),
    which the scheme evaluates anyway and :func:`transition_jacobians`
    reuses.  A non-finite state raises DivergenceError naming its step; the
    path is checked once, when it is finished, or when a callback raises
    on a state that has already diverged.  A one-dimensional state steps on
    Python floats (:func:`_taylor_floats`), any other on arrays
    (:func:`_taylor_arrays`); both give the same path bit for bit.
    """
    x0 = np.asarray(x0, dtype=float)
    # zeros: the rows a failed step never reached pass the divergence check
    path = np.zeros((grid.n_steps + 1, model.dim))
    jacs = np.empty((grid.n_steps + 1, model.dim, model.dim))
    path[0] = x0
    taylor_steps = _taylor_floats if model.dim == 1 else _taylor_arrays
    # overflow surfaces as the one divergence check of the finished path,
    # not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            x = taylor_steps(model, x0, grid.step, path, jacs)
        except Exception:
            # a callback that fails on a state already gone non-finite
            # reports the divergence, as a check after every step would
            _check_diverged(path)
            raise
    _check_diverged(path)
    jacs[-1] = model.dxi(x)
    return path, jacs


def _taylor_arrays(model: DiffusionModel, x: np.ndarray, h: float,
                   path: np.ndarray, jacs: np.ndarray) -> np.ndarray:
    """The Taylor steps of :func:`integrate_flow` on arrays, for any dim:
    from ``x``, the state in row 0 of ``path``, fills rows 1..n of ``path``
    and rows 0..n-1 of ``jacs``, and returns the last state."""
    for k in range(path.shape[0] - 1):
        xi = model.xi(x)
        dxi = model.dxi(x)
        jacs[k] = dxi
        dxi_xi = dxi @ xi
        third = model.d2xi_contract(x, xi[:, None] * xi) + dxi @ dxi_xi
        x = x + h * xi + 0.5 * h * h * dxi_xi + (h ** 3 / 6.0) * third
        path[k + 1] = x
    return x


def _taylor_floats(model: DiffusionModel, x0: np.ndarray, h: float,
                   path: np.ndarray, jacs: np.ndarray) -> np.ndarray:
    """:func:`_taylor_arrays` for a one-dimensional state, on Python floats.

    The arithmetic is the array step's, operation by operation, with each
    1x1 product a @ b formed as 0.0 + a * b as matmul forms it, so every
    row equals the array path's bit for bit.  The callbacks still get (1,)
    states, as views of ``path``, and (1, 1) tensors chi, as views of one
    stack.  Float arithmetic overflows to inf without raising, as the
    arrays do under :func:`integrate_flow`'s errstate.
    """
    n = path.shape[0] - 1
    states = path.reshape(-1)
    slopes = jacs.reshape(-1)
    chis = np.empty((n, 1, 1))
    chi_values = chis.reshape(-1)
    xi_at, dxi_at, d2xi_contract = model.xi, model.dxi, model.d2xi_contract
    h2 = 0.5 * h * h
    h3 = h ** 3 / 6.0
    x_arr = x0
    x = float(states[0])
    for k in range(n):
        xi = xi_at(x_arr).item()
        dxi = dxi_at(x_arr).item()
        slopes[k] = dxi
        dxi_xi = 0.0 + dxi * xi
        chi_values[k] = xi * xi
        third = d2xi_contract(x_arr, chis[k]).item() + (0.0 + dxi * dxi_xi)
        x = x + h * xi + h2 * dxi_xi + h3 * third
        states[k + 1] = x
        x_arr = path[k + 1]
    return x_arr


def _check_diverged(path: np.ndarray) -> None:
    """DivergenceError naming the first step whose state, a row of ``path``
    past the start, is non-finite."""
    finite = np.isfinite(path[1:]).all(axis=1)
    if not finite.all():
        step = 1 + int(np.argmin(finite))
        raise DivergenceError(f"flow integration diverged at step {step}", step=step)


def transition_jacobians(jacs: np.ndarray, grid: FlowGrid) -> np.ndarray:
    """Per-step transition maps tau_{t_k}^{t_(k+1)}, k = 0..n-1, shape (n, p, p).

    tau over one sub-interval is exp((h/2) [Dxi(x_u) + Dxi(x_t)]), from the
    Jacobians at the grid points (shape (n + 1, p, p)), all n of them in
    one stacked exponential.
    """
    return _expm(0.5 * grid.step * (jacs[:-1] + jacs[1:]))


def propagate_covariance(
    alphas: np.ndarray,
    per_step: np.ndarray,
    sigma0: np.ndarray,
    grid: FlowGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Trapezium recursion for the propagated covariance Xi_t along the grid,
    from the diffusion variance alpha at each grid point (shape
    (n + 1, p, p)) and the per-step maps of :func:`transition_jacobians`.
    Returns Xi and the products tau_0^{t_k} at every grid point, each of
    shape (n + 1, p, p).

    Step k is the map X -> tau_k (X + H_k) tau_k^T + H_(k+1), H = (h/2)
    alpha, i.e. X -> tau_k X tau_k^T + B_k with B_k = tau_k H_k tau_k^T +
    H_(k+1).  On arrays, with Sigma_0 folded into B_0, the composed map of
    steps 0..k sends 0 to Xi_(k+1), so one scan of :func:`_compose_scan`
    gives every Xi and, as the products of the same compositions,
    tau_0^{t_k}.  A 1x1 map takes the step-by-step recursion of
    :func:`_covariance_floats`.
    """
    h_half = 0.5 * grid.step
    if per_step.shape[-1] == 1:
        return _covariance_floats(alphas, per_step, sigma0, h_half)
    return _covariance_arrays(alphas, per_step, sigma0, h_half)


def _covariance_arrays(alphas: np.ndarray, per_step: np.ndarray, sigma0: np.ndarray,
                       h_half: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`propagate_covariance` on arrays, for any p, with h_half = h / 2."""
    n = per_step.shape[0]
    products = _scan_buffer(per_step)
    xis = np.zeros_like(products)
    xis[0] = sigma0
    offsets = xis[1:n + 1]  # B_k, formed in place: the path can be long
    np.multiply(h_half, alphas[:-1], out=offsets)
    offsets[0] += sigma0
    np.matmul(per_step @ offsets, np.swapaxes(per_step, -1, -2), out=offsets)
    offsets += h_half * alphas[1:]
    _compose_scan(products[1:-1], xis[1:-1])
    # congruence keeps the skew part of Sigma_0 skew, so one symmetrization
    # at the end removes it from every Xi_k (in place, like B_k)
    xis = xis[:n + 1]
    xis += np.swapaxes(xis, -1, -2)
    xis *= 0.5
    return xis, products[:n + 1]


def _covariance_floats(alphas: np.ndarray, per_step: np.ndarray, sigma0: np.ndarray,
                       h_half: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`propagate_covariance` of 1x1 maps on Python floats, step by
    step: Xi_(k+1) = H_(k+1) + tau_k (Xi_k + H_k) tau_k and
    from_start_(k+1) = tau_k from_start_k."""
    halves = [h_half * a for a in alphas[:, 0, 0].tolist()]
    sigma = float(sigma0[0, 0])
    xis = [0.5 * (sigma + sigma)]
    from_start = [1.0]
    for k, tau in enumerate(per_step[:, 0, 0].tolist()):
        # 0.0 + a * b drops a zero's sign as a 1x1 matmul does, and
        # 0.5 * (v + v) sends v past half the float range to inf as a
        # symmetrization does: both keep the bits of the matrix recursion
        v = halves[k + 1] + (0.0 + (0.0 + tau * (xis[k] + halves[k])) * tau)
        xis.append(0.5 * (v + v))
        from_start.append(0.0 + tau * from_start[k])
    return (np.array(xis).reshape(-1, 1, 1),
            np.array(from_start).reshape(-1, 1, 1))


def ailp_state(
    model: DiffusionModel,
    x_path: np.ndarray,
    alphas: np.ndarray,
    from_start: np.ndarray,
    to_end: np.ndarray,
    xis: np.ndarray,
    sigma0: np.ndarray,
    grid: FlowGrid,
) -> np.ndarray:
    """Intrinsic location correction m_delta for the state at the endpoint.

    kappa = integral of tau_t^delta [D2xi(Xi_t) - Gamma(alpha)] by the
    trapezium rule, with D2xi(Xi_t) from one ``d2xi_contract`` call over the
    whole path, ``from_start`` and ``to_end`` the products tau_0^{t_k} and
    tau_{t_k}^delta (each (n + 1, p, p)); returns
    (1/2) {kappa - tau_0^delta Gamma(x_0)(Sigma_0) + Gamma(x_delta)(Xi_delta)}.
    """
    conn = model.conn
    integrand = model.d2xi_contract(x_path, xis)
    if not conn.flat:
        integrand -= conn.contract(x_path, alphas)
    weighted = grid.weights[:, None] * integrand
    m_delta = (to_end @ weighted[:, :, None]).sum(axis=0)[:, 0]
    if not conn.flat:
        m_delta = (
            m_delta
            - from_start[-1] @ conn.contract(x_path[0], sigma0)
            + conn.contract(x_path[-1], xis[-1])
        )
    return 0.5 * m_delta


def flow_second_fundamental_form(
    model: DiffusionModel,
    x_path: np.ndarray,
    from_start: np.ndarray,
    to_end: np.ndarray,
    grid: FlowGrid,
    a: np.ndarray,
) -> np.ndarray:
    """Second fundamental form of the flow map over [0, delta], contracted
    with one symmetric tensor ``a`` at the start point.

    nabla dphi(A) = sum_k w_k tau_{t_k}^delta D2xi(x_k)(tau_0^{t_k} A tau_0^{t_k}^T)
                    + Gamma(x_delta)(tau A tau^T) - tau Gamma(x_0)(A),
    with trapezium weights w_k, tau = tau_0^delta and the products
    ``from_start`` and ``to_end`` as in :func:`ailp_state`; the integrand is
    one ``d2xi_contract`` call over the whole path.  The value is a tangent
    vector at x_delta.
    """
    integrand = model.d2xi_contract(x_path, from_start @ a @ np.swapaxes(from_start, -1, -2))
    weighted = grid.weights[:, None] * integrand
    out = (to_end @ weighted[:, :, None]).sum(axis=0)[:, 0]
    conn = model.conn
    if not conn.flat:
        tau = from_start[-1]
        out = (out + conn.contract(x_path[-1], tau @ a @ tau.T)
               - tau @ conn.contract(x_path[0], a))
    return out


@dataclass
class PropagationBundle:
    """All precomputed flow quantities over one inter-observation interval:
    the path (n + 1, p), the products tau_0^{t_k} and tau_{t_k}^delta
    (n + 1, p, p), the inverse tau_delta^0 of tau_0^delta, the propagated
    covariance Xi_delta and the location correction m_delta."""

    x_path: np.ndarray
    from_start: np.ndarray
    to_end: np.ndarray
    tau_delta_0: np.ndarray
    xi_delta: np.ndarray
    m_delta: np.ndarray

    @property
    def x_delta(self) -> np.ndarray:
        return self.x_path[-1]


def _check_condition(tau: np.ndarray) -> None:
    """IllConditionedFlowError unless ``tau`` (tau_0^delta) is finite and
    nonsingular, with a 2-norm condition number of at most FLOW_COND_LIMIT.

    A 1x1 map takes no svd: its one singular value is |tau|, so it passes
    exactly when |tau| is finite and nonzero.  (LAPACK's svd rescales a
    value far from 1 and may return |tau| off by an ulp; no value passes
    or fails on that.)
    """
    if tau.shape == (1, 1):
        largest = smallest = abs(float(tau[0, 0]))
    elif np.isfinite(tau).all():
        singular = np.linalg.svd(tau, compute_uv=False)
        largest, smallest = float(singular[0]), float(singular[-1])
    else:
        largest = smallest = math.nan
    if not 0.0 < smallest < math.inf:
        raise IllConditionedFlowError("accumulated transition Jacobian is singular or not finite")
    if largest > FLOW_COND_LIMIT * smallest:
        raise IllConditionedFlowError(
            f"accumulated transition Jacobian condition number exceeds {FLOW_COND_LIMIT:.0e}"
        )


def _checked_inverse(tau: np.ndarray) -> np.ndarray:
    """The inverse tau_delta^0 of a ``tau`` that passed :func:`_check_condition`;
    IllConditionedFlowError when tau_delta^0 tau deviates from the identity
    by more than 1e-8 in some entry.  A 1x1 map is inverted as 1 / tau, the
    bits of LAPACK's inverse."""
    if tau.shape == (1, 1):
        value = float(tau[0, 0])
        reciprocal = 1.0 / value
        off = abs(reciprocal * value - 1.0)
        inverse = np.array([[reciprocal]])
    else:
        inverse = np.linalg.inv(tau)
        off = np.abs(inverse @ tau - identity(tau.shape[0])).max()
    if off > 1e-8:
        raise IllConditionedFlowError("tau_delta_0 . tau_0_delta deviates from identity")
    return inverse


def precompute(
    model: DiffusionModel, x0: np.ndarray, sigma0: np.ndarray, grid: FlowGrid
) -> PropagationBundle:
    """Run the full flow precomputation from an estimate (x0, sigma0).

    The Taylor step evaluates ``xi``, ``dxi`` and ``d2xi_contract`` once per
    grid step; ``alpha`` and the location correction's ``d2xi_contract``
    are then evaluated once each, over the whole path.  tau_0^delta is
    checked twice: its condition number once the covariance scan has formed
    it (:func:`_check_condition`), and its computed inverse tau_delta^0
    after the location correction (:func:`_checked_inverse`).
    """
    x_path, jacs = integrate_flow(model, x0, grid)
    per_step = transition_jacobians(jacs, grid)
    alphas = model.alpha(x_path)
    xis, from_start = propagate_covariance(alphas, per_step, sigma0, grid)
    tau_0_delta = from_start[-1]
    _check_condition(tau_0_delta)
    to_end = _to_end(per_step)
    m_delta = ailp_state(model, x_path, alphas, from_start, to_end, xis, sigma0, grid)
    tau_delta_0 = _checked_inverse(tau_0_delta)
    return PropagationBundle(
        x_path=x_path,
        from_start=from_start,
        to_end=to_end,
        tau_delta_0=tau_delta_0,
        xi_delta=xis[-1].copy(),  # a view would keep the whole path
        m_delta=m_delta,
    )
