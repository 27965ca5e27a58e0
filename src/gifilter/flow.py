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
second-derivative array is formed.  Overflow is silenced once per
interval, by the ``np.errstate`` of :func:`precompute` and
:func:`gifilter.ekf.ekf_predict`: it ends as an error or a non-finite
covariance, not a numpy warning.

The Taylor step runs on Python floats in two cases.  A model of any
dimension may supply its own loop of the scheme (``taylor_loop``, see
:class:`DiffusionModel`), as tracking9d does: one pass over the state's
floats per step, from the drift at the start that the model's ``xi``
gives, with the path and the Jacobian stack built as arrays once per
interval, and the same scheme within rounding.  A one-dimensional
state takes a float path throughout.  Its Taylor step runs on Python
floats when the model supplies the float forms of its one-point callbacks
(:class:`FloatForms`), and the covariance and tau_{t_k}^delta when the
per-step maps are 1x1, chosen from the array shapes alone.  On
1-element arrays numpy's per-call overhead outweighs the arithmetic, and
so does building the array a callback returns.  The Taylor step
(:func:`_taylor_floats`) performs the array step's operations in its
order and, with forms that give their array callbacks' bits, gives its
bits.  The scans have no per-call overhead to amortise on floats, so
:func:`_covariance_floats` and :func:`_to_end_floats` run the
step-by-step recursions instead, each 1x1 product a @ b formed as
0.0 + a * b, as matmul does; they may differ from the array scans in the
last bits.  The array helpers (:func:`_taylor_arrays`,
:func:`_covariance_arrays`, :func:`_to_end_arrays`) serve every other
model and dimension.  A 1x1 tau_0^delta reaches no LAPACK call either:
:func:`_checked_inverse` tests |tau| in place of an svd and forms 1 / tau
in place of ``inv``, with LAPACK's bits.  The filter update does the same
for 1x1 matrices in :func:`gifilter.filter.gain` (the eigvalsh of its
condition test and the solve) and :func:`gifilter.observation.beta_sqrt`
(the eigh), so a scalar model's cycle makes no LAPACK call at all.

A scalar flat cycle (:func:`gifilter.filter.scalar_cycle`, cubic1d's)
goes further and builds no array between its stages.  Its estimate
reaches :func:`precompute` and :func:`gifilter.ekf.ekf_predict` as two
Python floats, and every stage here takes its float branch from the type
of its arguments: a path, its Jacobians, the per-step maps, the
variances and the products are lists of floats, and Xi_delta,
tau_delta^0 and m_delta are floats.  The same float recursions serve the
1x1 arrays above.  Two steps stay numpy, for their bits: the n per-step
exponentials of :func:`transition_jacobians`, one ``np.exp`` over a list
(``math.exp`` differs from it in the last bit on some arguments), and
each trapezium sum of :func:`_trapezium_floats`, one ``.sum()`` of a
1-D array, which adds in the pairwise order of the arrays' sum over the
grid axis, where a Python loop would not.
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

# a model's own Taylor loop: (x0, drift at x0, h, n) -> (path, Dxi at every point)
TaylorLoop = Callable[[np.ndarray, np.ndarray, float, int], tuple[np.ndarray, np.ndarray]]


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
        if (not isinstance(self.n_steps, numbers.Integral) or isinstance(self.n_steps, bool)
                or self.n_steps < 1):
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


@lru_cache(maxsize=32, typed=True)
def flow_grid(delta: float, n_steps: int) -> FlowGrid:
    """The grid of (delta, n_steps), built once and then shared, so that a
    filter cycle neither rebuilds it nor its weights; typed, so that True
    never finds the grid of 1."""
    return FlowGrid(delta=delta, n_steps=n_steps)


@dataclass(frozen=True)
class FloatForms:
    """Float forms of a one-dimensional model's one-point callbacks, named
    after the :class:`DiffusionModel` fields they stand for.

    Each takes and returns Python floats in place of (1,) and (1, 1)
    arrays: ``xi``, ``dxi``, ``drift_b`` and ``ddrift_b`` take the
    coordinate x; ``d2xi_contract`` and ``d2drift_b_contract`` take x and
    the one entry chi of the tensor; ``noise_matrix`` returns the one
    loading entry sigma(x) and ``alpha`` the one entry of alpha(x).  A
    form does its array callback's operations in the same order and gives
    its bits, a non-finite value included.  Where Python float arithmetic
    raises (``**`` past the float range, a division by zero), numpy
    returns +-inf or NaN, so a form must return that value in place of
    raising.  The xi forms are required; the b forms are optional, as for
    the arrays.  A flat model's forms must include ``alpha``, and the b
    forms, since :func:`gifilter.filter.scalar_cycle` admits its cycles
    with any observation that gives float forms.
    """

    xi: Callable[[float], float]
    dxi: Callable[[float], float]
    d2xi_contract: Callable[[float, float], float]
    drift_b: Optional[Callable[[float], float]] = None
    ddrift_b: Optional[Callable[[float], float]] = None
    d2drift_b_contract: Optional[Callable[[float, float], float]] = None
    noise_matrix: Optional[Callable[[float], float]] = None
    alpha: Optional[Callable[[float], float]] = None


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

    A one-dimensional model may also give ``float_forms``, the
    :class:`FloatForms` of its one-point callbacks.  The Taylor loop of
    :func:`integrate_flow` then calls the xi forms, and the Euler loop of
    :func:`gifilter.harness.simulate_sde` the ``drift_b`` and
    ``noise_matrix`` forms, in place of the array callbacks, so that no
    array is built per call.  A scalar flat cycle (see
    :func:`gifilter.filter.scalar_cycle`) calls the forms for every use,
    the whole-path contractions and ``alpha`` included; any other cycle
    keeps the arrays there.

    A model of any other dimension may give ``taylor_loop(x0, xi0, h, n)``,
    its own run of :func:`integrate_flow`'s scheme: from the start x0,
    where the drift is xi0, n steps of size h, returning the path, shape
    (n + 1, dim), and Dxi at every point of it, shape (n + 1, dim, dim).
    Each step is x + h xi + (h^2 / 2) Dxi xi + (h^3 / 6) (D2xi(xi, xi) +
    Dxi Dxi xi) with the model's xi, Dxi and D2xi, so the loop may differ
    from the callbacks' steps by rounding alone; it raises what the
    callbacks raise.  :func:`integrate_flow` then calls ``xi`` once, at the
    start, and the loop in place of the per-step calls of ``xi``, ``dxi``
    and ``d2xi_contract``, which every other stage still uses.  The loop of
    b's scheme is ``drift_b_taylor_loop``, which the EKF runs on the same
    terms; a model whose b is xi gives the same loop for both.
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
    float_forms: Optional[FloatForms] = None
    taylor_loop: Optional[TaylorLoop] = None
    drift_b_taylor_loop: Optional[TaylorLoop] = None

    def __post_init__(self):
        if self.float_forms is not None and self.dim != 1:
            raise ValueError("float forms need a one-dimensional state")
        if self.float_forms is not None and (self.taylor_loop is not None
                                             or self.drift_b_taylor_loop is not None):
            raise ValueError("a model gives float forms or a Taylor loop, not both")

    @cached_property
    def drift_b_model(self) -> "DiffusionModel":
        """This model with the coordinate drift b, ``ddrift_b`` and
        ``d2drift_b_contract`` in place of xi and its derivatives: what the
        EKF propagates.  The float forms of b take the xi slots likewise,
        when all three are given, and b's Taylor loop takes xi's.  Built
        once per model; ValueError when either derivative of b is unset."""
        for name in ("ddrift_b", "d2drift_b_contract"):
            if getattr(self, name) is None:
                raise ValueError(f"the EKF needs the model's {name}")
        forms = self.float_forms
        if forms is not None:
            b_forms = (forms.drift_b, forms.ddrift_b, forms.d2drift_b_contract)
            forms = None if None in b_forms else dataclasses.replace(
                forms, xi=b_forms[0], dxi=b_forms[1], d2xi_contract=b_forms[2])
        return dataclasses.replace(self, xi=self.drift_b, dxi=self.ddrift_b,
                                   d2xi_contract=self.d2drift_b_contract, float_forms=forms,
                                   taylor_loop=self.drift_b_taylor_loop)


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


def _to_end(per_step):
    """tau_{t_k}^delta for k = 0..n, shape (n + 1, p, p), from the per-step maps.

    Entry k is tau_(n-1) ... tau_k.  On arrays, read in reverse order and
    transposed, the scan's products A_j ... A_0 are the transposes of
    exactly these, so the scan runs on that view of the buffer and leaves
    them in place, in grid order.  A 1x1 map takes the backward recursion
    of :func:`_to_end_floats`, and the list of a float path gives a list.
    """
    if isinstance(per_step, list):
        return _to_end_floats(per_step)
    if per_step.shape[-1] == 1:
        return np.array(_to_end_floats(per_step[:, 0, 0].tolist())).reshape(-1, 1, 1)
    return _to_end_arrays(per_step)


def _to_end_arrays(per_step: np.ndarray) -> np.ndarray:
    """:func:`_to_end` on arrays, for any p."""
    buf = _scan_buffer(per_step)
    _compose_scan(np.swapaxes(buf[-2:0:-1], -1, -2))
    return buf[1:per_step.shape[0] + 2]


def _to_end_floats(per_step: list) -> list:
    """:func:`_to_end` of 1x1 maps on Python floats, step by step:
    to_end_n = 1 and to_end_k = to_end_(k+1) tau_k."""
    to_end = [1.0]
    for tau in reversed(per_step):
        to_end.append(0.0 + to_end[-1] * tau)
    return to_end[::-1]


def integrate_flow(
    model: DiffusionModel, x0, grid: FlowGrid
) -> tuple:
    """Integrate dx/dt = xi(x) with a one-step third-order Taylor scheme.

    Returns the state at every grid time, shape (n_steps + 1, dim), and the
    Jacobian Dxi at each of those points, shape (n_steps + 1, dim, dim),
    which the scheme evaluates anyway and :func:`transition_jacobians`
    reuses.  A non-finite state raises DivergenceError; the path is
    checked once, when it is finished, or when a callback raises on a
    state that has already diverged.  A model with float forms
    (:class:`FloatForms`) steps on Python floats through them
    (:func:`_taylor_floats`), the last Jacobian included; a model with a
    ``taylor_loop`` runs it from ``xi(x0)``; any other steps on arrays
    (:func:`_taylor_arrays`).  The float steps give the array path bit for
    bit, a model's loop within rounding.  A float ``x0``, the start of a
    scalar flat cycle, gives the path and the Jacobians as two lists of
    n_steps + 1 floats.  Called outside the callers' errstate, the array
    steps may show numpy's overflow warnings before the DivergenceError.
    """
    if model.taylor_loop is not None:
        path, jacs = model.taylor_loop(x0, model.xi(x0), grid.step, grid.n_steps)
        _check_diverged(path)
        return path, jacs
    on_floats = isinstance(x0, float)
    if model.float_forms is None:
        # zeros: the rows a failed step never reached pass the divergence check
        path = np.zeros((grid.n_steps + 1, model.dim))
        jacs = np.empty((grid.n_steps + 1, model.dim, model.dim))
        path[0] = x0
        taylor_steps = _taylor_arrays
    else:
        path = [x0 if on_floats else float(x0[0])] + [0.0] * grid.n_steps
        jacs = [0.0] * (grid.n_steps + 1)
        taylor_steps = _taylor_floats
    try:
        taylor_steps(model, grid.step, path, jacs)
    except Exception:
        # a callback that fails on a state already gone non-finite
        # reports the divergence, as a check after every step would
        _check_diverged(path)
        raise
    _check_diverged(path)
    if on_floats or model.float_forms is None:
        return path, jacs
    return np.array(path)[:, None], np.array(jacs)[:, None, None]


def _taylor_arrays(model: DiffusionModel, h: float, path: np.ndarray,
                   jacs: np.ndarray) -> None:
    """The Taylor steps of :func:`integrate_flow` on arrays, for any dim:
    from the state in row 0 of ``path``, fills rows 1..n of ``path`` and
    every row of ``jacs``."""
    x = path[0]
    for k in range(path.shape[0] - 1):
        xi = model.xi(x)
        dxi = model.dxi(x)
        jacs[k] = dxi
        dxi_xi = dxi @ xi
        third = model.d2xi_contract(x, xi[:, None] * xi) + dxi @ dxi_xi
        x = x + h * xi + 0.5 * h * h * dxi_xi + (h ** 3 / 6.0) * third
        path[k + 1] = x
    jacs[-1] = model.dxi(x)


def _taylor_floats(model: DiffusionModel, h: float, path: list, jacs: list) -> None:
    """:func:`_taylor_arrays` through the model's float forms, on lists of
    Python floats: from the state in entry 0 of ``path``, fills entries
    1..n of ``path`` and every entry of ``jacs``.

    The arithmetic is the array step's, operation by operation, with each
    1x1 product a @ b formed as 0.0 + a * b as matmul forms it, so with
    forms that give their array callbacks' bits every entry equals the
    array path's bit for bit.  Float arithmetic overflows to inf without
    raising or warning, as the arrays do under the callers' errstate.
    """
    forms = model.float_forms
    xi_at, dxi_at, d2xi_contract = forms.xi, forms.dxi, forms.d2xi_contract
    n = len(path) - 1
    h2 = 0.5 * h * h
    h3 = h ** 3 / 6.0
    x = path[0]
    for k in range(n):
        xi = xi_at(x)
        dxi = dxi_at(x)
        jacs[k] = dxi
        dxi_xi = 0.0 + dxi * xi
        third = d2xi_contract(x, xi * xi) + (0.0 + dxi * dxi_xi)
        x = x + h * xi + h2 * dxi_xi + h3 * third
        path[k + 1] = x
    jacs[n] = dxi_at(x)


def _check_diverged(path) -> None:
    """DivergenceError when a state of ``path`` (an array or a list of
    floats) past the start is non-finite; it names no step, as a
    non-finite coordinate stays non-finite through every later Taylor
    step."""
    if isinstance(path, list):
        finite = all(map(math.isfinite, path[1:]))
    else:
        finite = np.isfinite(path[1:]).all()
    if not finite:
        raise DivergenceError("flow integration diverged")


def transition_jacobians(jacs, grid: FlowGrid):
    """Per-step transition maps tau_{t_k}^{t_(k+1)}, k = 0..n-1, shape (n, p, p).

    tau over one sub-interval is exp((h/2) [Dxi(x_u) + Dxi(x_t)]), from the
    Jacobians at the grid points (shape (n + 1, p, p)), all n of them in
    one stacked exponential.  The list of a float path gives a list: its n
    arguments, formed on floats, go through one ``np.exp``, whose bits
    ``math.exp`` does not always give.  Called outside the callers'
    errstate, a sum past the float range may show numpy's overflow
    warnings.
    """
    if isinstance(jacs, list):
        half_step = 0.5 * grid.step
        return np.exp([half_step * (a + b) for a, b in zip(jacs, jacs[1:])]).tolist()
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
    :func:`_covariance_floats`; the lists and float ``sigma0`` of a
    scalar flat cycle give it two lists of floats.
    """
    h_half = 0.5 * grid.step
    if isinstance(sigma0, float):
        return _covariance_floats(alphas, per_step, sigma0, h_half)
    if per_step.shape[-1] == 1:
        xis, from_start = _covariance_floats(alphas[:, 0, 0].tolist(),
                                             per_step[:, 0, 0].tolist(),
                                             float(sigma0[0, 0]), h_half)
        return np.array(xis).reshape(-1, 1, 1), np.array(from_start).reshape(-1, 1, 1)
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


def _covariance_floats(alphas: list, per_step: list, sigma: float,
                       h_half: float) -> tuple[list, list]:
    """:func:`propagate_covariance` of 1x1 maps on Python floats, step by
    step: Xi_(k+1) = H_(k+1) + tau_k (Xi_k + H_k) tau_k and
    from_start_(k+1) = tau_k from_start_k."""
    halves = [h_half * a for a in alphas]
    xis = [0.5 * (sigma + sigma)]
    from_start = [1.0]
    for k, tau in enumerate(per_step):
        # 0.0 + a * b drops a zero's sign as a 1x1 matmul does, and
        # 0.5 * (v + v) sends v past half the float range to inf as a
        # symmetrization does: both keep the bits of the matrix recursion
        v = halves[k + 1] + (0.0 + (0.0 + tau * (xis[k] + halves[k])) * tau)
        xis.append(0.5 * (v + v))
        from_start.append(0.0 + tau * from_start[k])
    return xis, from_start


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
    A scalar flat cycle passes lists, a float ``sigma0`` and a flat
    connector, and gets a float: its integrand is the float form of
    ``d2xi_contract`` at each point, summed by :func:`_trapezium_floats`.
    """
    if isinstance(sigma0, float):
        d2xi_contract = model.float_forms.d2xi_contract
        return 0.5 * _trapezium_floats(grid, to_end, list(map(d2xi_contract, x_path, xis)))
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
    vector at x_delta.  A scalar flat cycle passes lists, a float ``a`` and
    a flat connector, and gets a float, as in :func:`ailp_state`.
    """
    if isinstance(a, float):
        d2xi_contract = model.float_forms.d2xi_contract
        # from_start @ a @ from_start^T, one 1x1 matmul at a time
        pulled = [0.0 + (0.0 + f * a) * f for f in from_start]
        return _trapezium_floats(grid, to_end, list(map(d2xi_contract, x_path, pulled)))
    integrand = model.d2xi_contract(x_path, from_start @ a @ np.swapaxes(from_start, -1, -2))
    weighted = grid.weights[:, None] * integrand
    out = (to_end @ weighted[:, :, None]).sum(axis=0)[:, 0]
    conn = model.conn
    if not conn.flat:
        tau = from_start[-1]
        out = (out + conn.contract(x_path[-1], tau @ a @ tau.T)
               - tau @ conn.contract(x_path[0], a))
    return out


def _trapezium_floats(grid: FlowGrid, to_end: list, integrand: list) -> float:
    """sum_k w_k tau_{t_k}^delta v_k over the grid, with v_k the floats of
    ``integrand``: the array path's (n + 1, 1, 1) sum, bit for bit.  Each
    term is formed as 0.0 + e * (w v), as the 1x1 matmul forms it, and the
    terms are summed by one numpy ``.sum()`` of a 1-D array, which adds
    them in the pairwise order of the array's ``.sum(axis=0)``, where a
    Python loop would add them in turn."""
    terms = [0.0 + e * (w * v) for e, w, v in zip(to_end, grid.weights.tolist(), integrand)]
    return float(np.array(terms).sum())


@dataclass
class PropagationBundle:
    """All precomputed flow quantities over one inter-observation interval:
    the path (n + 1, p), the products tau_0^{t_k} and tau_{t_k}^delta
    (n + 1, p, p), the inverse tau_delta^0 of tau_0^delta, the propagated
    covariance Xi_delta and the location correction m_delta.  In a scalar
    flat cycle the path and the products are lists of floats and the rest
    floats."""

    x_path: np.ndarray
    from_start: np.ndarray
    to_end: np.ndarray
    tau_delta_0: np.ndarray
    xi_delta: np.ndarray
    m_delta: np.ndarray

    @property
    def x_delta(self) -> np.ndarray:
        return self.x_path[-1]


def _checked_inverse(tau: np.ndarray) -> np.ndarray:
    """The inverse tau_delta^0 of ``tau`` (tau_0^delta); IllConditionedFlowError
    unless tau is finite and nonsingular, with a 2-norm condition number of
    at most FLOW_COND_LIMIT, and tau_delta^0 tau is within 1e-8 of the
    identity in every entry.

    A 1x1 map takes no svd: its one singular value is |tau|, so it passes
    exactly when |tau| is finite and nonzero.  (LAPACK's svd rescales a
    value far from 1 and may return |tau| off by an ulp; no value passes
    or fails on that.)  It is inverted as 1 / tau, the bits of LAPACK's
    inverse.  The float tau of a scalar flat cycle is checked alike and
    gives a float.
    """
    scalar = isinstance(tau, float)
    if scalar or tau.shape == (1, 1):
        value = tau if scalar else float(tau[0, 0])
        largest = smallest = abs(value)
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
    if scalar or tau.shape == (1, 1):
        reciprocal = 1.0 / value
        off = abs(reciprocal * value - 1.0)
        inverse = reciprocal if scalar else np.array([[reciprocal]])
    else:
        inverse = np.linalg.inv(tau)
        off = np.abs(inverse @ tau - identity(tau.shape[0])).max()
    if off > 1e-8:
        raise IllConditionedFlowError("tau_delta_0 . tau_0_delta deviates from identity")
    return inverse


def alpha_path(model: DiffusionModel, x_path):
    """The diffusion variance alpha at every point of ``x_path``: one
    ``alpha`` call over a path array, or the float form of ``alpha`` at
    each point of the list of a float path."""
    if isinstance(x_path, list):
        return list(map(model.float_forms.alpha, x_path))
    return model.alpha(x_path)


def precompute(model: DiffusionModel, x0, sigma0, grid: FlowGrid) -> PropagationBundle:
    """Run the full flow precomputation from an estimate (x0, sigma0).

    The Taylor step evaluates ``xi``, ``dxi`` and ``d2xi_contract`` once per
    grid step; ``alpha`` and the location correction's ``d2xi_contract``
    are then evaluated once each, over the whole path.  tau_0^delta is
    checked once, by :func:`_checked_inverse` as soon as the covariance
    scan has formed it.  Overflow is silent and ends as a flow error.
    Python floats x0 and sigma0, those of a scalar flat cycle, run every
    stage on floats and give a bundle of floats and lists of floats.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x_path, jacs = integrate_flow(model, x0, grid)
        per_step = transition_jacobians(jacs, grid)
        alphas = alpha_path(model, x_path)
        xis, from_start = propagate_covariance(alphas, per_step, sigma0, grid)
        tau_delta_0 = _checked_inverse(from_start[-1])
        to_end = _to_end(per_step)
        m_delta = ailp_state(model, x_path, alphas, from_start, to_end, xis, sigma0, grid)
    xi_delta = xis[-1]
    return PropagationBundle(
        x_path=x_path,
        from_start=from_start,
        to_end=to_end,
        tau_delta_0=tau_delta_0,
        # a view would keep the whole path
        xi_delta=xi_delta if isinstance(xi_delta, float) else xi_delta.copy(),
        m_delta=m_delta,
    )
