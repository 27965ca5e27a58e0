"""Chart-level differential geometry: connectors, exponential maps, curvature.

All operations are pure functions of their arguments and safe to call from
any number of threads.  Points and tangent vectors are plain 1-D numpy
arrays in chart coordinates; symmetric 2-tensors and rank-3 bilinear maps
carry their base point explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, NonFiniteError, SingularMetricError

SYMMETRY_RTOL = 1e-12


def sym_outer(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Symmetrized outer product (u w^T + w u^T) / 2."""
    return 0.5 * (np.outer(u, w) + np.outer(w, u))


def symmetrize(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def symmetric_condition(mat: np.ndarray) -> float:
    """Condition number max|lambda| / min|lambda| of a symmetric matrix.

    Infinite when the matrix is singular or has non-finite entries.
    """
    if not np.all(np.isfinite(mat)):
        return math.inf
    eigs = np.abs(np.linalg.eigvalsh(mat))
    smallest = float(eigs.min())
    return float(eigs.max()) / smallest if smallest > 0.0 else math.inf


def check_symmetric(mat: np.ndarray, rtol: float = SYMMETRY_RTOL, what: str = "matrix") -> None:
    scale = max(float(np.abs(mat).max()), 1.0)
    if float(np.abs(mat - mat.T).max()) > rtol * scale:
        raise ValueError(f"{what} is not symmetric within {rtol:g} relative")


@dataclass
class SymTensor2:
    """A contravariant symmetric 2-tensor attached to a base point."""

    base: np.ndarray
    mat: np.ndarray

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.mat = np.asarray(self.mat, dtype=float)
        if self.mat.shape != (self.base.size, self.base.size):
            raise ValueError("tensor shape does not match base dimension")
        if not (np.isfinite(self.base).all() and np.isfinite(self.mat).all()):
            raise NonFiniteError("non-finite entries in SymTensor2")
        check_symmetric(self.mat, what="SymTensor2")

    @property
    def dim(self) -> int:
        return self.base.size


@dataclass
class Bilinear3:
    """A bilinear map coeffs[k, i, j], symmetric in (i, j), based at a point."""

    base: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] != self.coeffs.shape[2]:
            raise ValueError("Bilinear3 coefficients must have shape (out, in, in)")
        scale = max(float(np.abs(self.coeffs).max()), 1.0)
        skew = float(np.abs(self.coeffs - self.coeffs.transpose(0, 2, 1)).max())
        if skew > SYMMETRY_RTOL * scale:
            raise ValueError("Bilinear3 coefficients not symmetric in trailing indices")

    def __call__(self, u: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.einsum("kij,i,j->k", self.coeffs, u, w)

    def contract(self, sym: np.ndarray) -> np.ndarray:
        """Contract the trailing index pair against a symmetric matrix."""
        return np.einsum("kij,ij->k", self.coeffs, sym)


@dataclass(frozen=True)
class ConnectorField:
    """Local connector of an affine connection, as callable coefficients.

    ``gamma(x, u, v)`` is the symmetric bilinear map on tangent vectors at
    the point x; ``dgamma(x, w, u, v)`` is its directional derivative along
    w.  Both broadcast over the leading axes of their vector arguments:
    vectors of shapes (..., dim) give values of their broadcast shape
    (..., dim), so one call evaluates a whole stack of vector tuples, e.g.
    every basis pair with u = I[:, None] and v = I[None, :].  The ``flat``
    flag short-circuits evaluation for identically-zero connectors.
    ``contract_fn``, when given, computes sum_ij sym[i,j] gamma(x, e_i, e_j)
    without forming the coefficients, broadcasting over the leading axes of
    sym (..., dim, dim) in the same way.
    """

    dim: int
    gamma: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    dgamma: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    flat: bool = False
    contract_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def contract(self, x: np.ndarray, sym: np.ndarray) -> np.ndarray:
        if self.flat:
            return np.zeros(self.dim)
        if self.contract_fn is not None:
            return self.contract_fn(x, sym)
        return np.einsum("kij,ij->k", self.coefficients(x), sym)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Dense coefficient array G[k, i, j] = gamma(x, e_i, e_j)[k]."""
        basis = np.eye(self.dim)
        return np.moveaxis(self.gamma(x, basis[:, None], basis[None, :]), -1, 0)


def flat_connector(dim: int) -> ConnectorField:
    def gamma(x, u, v):
        return np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v)))

    def dgamma(x, w, u, v):
        return np.zeros(np.broadcast_shapes(np.shape(w), np.shape(u), np.shape(v)))

    return ConnectorField(dim=dim, gamma=gamma, dgamma=dgamma, flat=True)


def metric_partials_fd(
    beta_field: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    step_scale: float = 1e-5,
) -> np.ndarray:
    """Central-difference partials d beta / d y_i, shape (dim, q, q).

    Step per coordinate is step_scale * (1 + |y_i|), balancing truncation
    against rounding at double precision.
    """
    y = np.asarray(y, dtype=float)
    q = np.asarray(beta_field(y)).shape[0]
    out = np.zeros((y.size, q, q))
    for i in range(y.size):
        h = step_scale * (1.0 + abs(float(y[i])))
        yp = y.copy()
        ym = y.copy()
        yp[i] += h
        ym[i] -= h
        out[i] = (np.asarray(beta_field(yp)) - np.asarray(beta_field(ym))) / (2.0 * h)
    return out


def levi_civita_connector(
    beta_field: Callable[[np.ndarray], np.ndarray],
    y: np.ndarray,
    dbeta: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    step_scale: float = 1e-5,
) -> np.ndarray:
    """Levi-Civita connector coefficients of the metric whose inverse is beta.

    beta(y) is the contravariant (inverse) metric tensor; the returned array
    G[m, i, j] is symmetric in (i, j).  Partials of beta are taken from
    ``dbeta`` when supplied, otherwise by central finite differences.
    """
    y = np.asarray(y, dtype=float)
    beta = np.asarray(beta_field(y), dtype=float)
    if beta.ndim != 2 or beta.shape[0] != beta.shape[1]:
        raise ValueError("beta must be a square matrix")
    check_symmetric(beta, rtol=1e-10, what="beta")
    eigs = np.linalg.eigvalsh(symmetrize(beta))
    if eigs[0] <= 0.0 or eigs[0] < 1e-14 * eigs[-1]:
        raise SingularMetricError(f"beta is not positive definite (min eig {eigs[0]:.3e})")
    g0 = np.linalg.inv(symmetrize(beta))

    if dbeta is not None:
        dbeta_arr = np.asarray(dbeta(y), dtype=float)
    else:
        dbeta_arr = metric_partials_fd(beta_field, y, step_scale)

    # d g0 / d y_k = -g0 (d beta / d y_k) g0
    dg0 = -np.einsum("ab,kbc,cd->kad", g0, dbeta_arr, g0)

    t1 = np.einsum("jk,ikm->mij", g0, dbeta_arr)
    t2 = np.einsum("ik,jkm->mij", g0, dbeta_arr)
    t3 = np.einsum("kij,mk->mij", dg0, beta)
    gam = -0.5 * (t1 + t2 + t3)
    return 0.5 * (gam + gam.transpose(0, 2, 1))


def exp_map_series(x: np.ndarray, v: np.ndarray, conn: ConnectorField) -> np.ndarray:
    """Third-order expansion of the exponential map at x applied to v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if conn.flat:
        return x + v
    g = conn.gamma(x, v, v)
    return x + v - 0.5 * g + (2.0 * conn.gamma(x, g, v) - conn.dgamma(x, v, v, v)) / 6.0


def log_map_series(y: np.ndarray, z: np.ndarray, conn: ConnectorField) -> np.ndarray:
    """Third-order expansion of the inverse exponential map at y applied to z."""
    y = np.asarray(y, dtype=float)
    w = np.asarray(z, dtype=float) - y
    if conn.flat:
        return w
    g = conn.gamma(y, w, w)
    return w + 0.5 * g + (conn.dgamma(y, w, w, w) + conn.gamma(y, g, w)) / 6.0


def geodesic_flow(
    x: np.ndarray, v: np.ndarray, conn: ConnectorField, steps: int = 16
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the geodesic ODE and its derivative flow over s in [0, 1].

    Solves gamma' = zeta, zeta' = -Gamma(gamma)(zeta (x) zeta) together with
    the linearized flow F' = Dh(gamma, zeta) F, F(0) = I, using a classical
    fixed-step 4th-order Runge-Kutta integrator.  Returns the endpoint and
    the position-position block F11(1), which pushes tangent vectors from
    the start point to the endpoint.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    p = x.size
    basis = np.eye(p)

    def rhs(gam, zet, fmat):
        acc = -conn.gamma(gam, zet, zet)
        # column j of each block is the derivative along basis vector j
        a21 = -conn.dgamma(gam, basis, zet, zet).T
        a22 = -2.0 * conn.gamma(gam, zet, basis).T
        dh = np.block([[np.zeros((p, p)), basis], [a21, a22]])
        return zet, acc, dh @ fmat

    gam = x.copy()
    zet = v.copy()
    fmat = np.eye(2 * p)
    h = 1.0 / steps
    for k in range(steps):
        k1 = rhs(gam, zet, fmat)
        k2 = rhs(gam + 0.5 * h * k1[0], zet + 0.5 * h * k1[1], fmat + 0.5 * h * k1[2])
        k3 = rhs(gam + 0.5 * h * k2[0], zet + 0.5 * h * k2[1], fmat + 0.5 * h * k2[2])
        k4 = rhs(gam + h * k3[0], zet + h * k3[1], fmat + h * k3[2])
        gam = gam + (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        zet = zet + (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        fmat = fmat + (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if not (np.all(np.isfinite(gam)) and np.all(np.isfinite(zet))):
            raise DivergenceError(f"geodesic flow diverged at step {k}", step=k)
    return gam, fmat[:p, :p]


def curvature(
    conn: ConnectorField, x: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Curvature operator R(u, v)w of the connection at x.

    R(u, v)w = DGamma(v)(u (x) w) - DGamma(u)(v (x) w)
             + Gamma(Gamma(u (x) w) (x) v) - Gamma(Gamma(v (x) w) (x) u),
    the unique trilinear extension of the printed R(zeta, eta)zeta formula
    consistent with connector symmetry.  Broadcasts over the leading axes
    of u, v and w like the connector callbacks.
    """
    if conn.flat:
        return np.zeros(np.broadcast_shapes(np.shape(u), np.shape(v), np.shape(w)))
    return (
        conn.dgamma(x, v, u, w)
        - conn.dgamma(x, u, v, w)
        + conn.gamma(x, conn.gamma(x, u, w), v)
        - conn.gamma(x, conn.gamma(x, v, w), u)
    )


def barycenter_correction(
    mu: np.ndarray, sigma: SymTensor2, conn: ConnectorField, x: np.ndarray
) -> np.ndarray:
    """Approximate exponential-barycenter tangent vector from (mu, sigma).

    Returns mu - (1/3) sum_ijk R_ijk mu^i sigma^jk, with R_ijk the curvature
    vector fields R(d_i, d_j) d_k contracted by linearity in the first slot.
    """
    mu = np.asarray(mu, dtype=float)
    if conn.flat or not np.any(mu):
        return mu.copy()
    basis = np.eye(conn.dim)
    rmat = curvature(conn, x, mu, basis[:, None], basis[None, :])
    return mu - np.einsum("jk,jkl->l", sigma.mat, rmat) / 3.0


def pushforward_covariance(sigma: SymTensor2, f: np.ndarray, new_base: np.ndarray) -> SymTensor2:
    """Push a covariance tensor forward through a linear map: F sigma F^T."""
    f = np.asarray(f, dtype=float)
    return SymTensor2(new_base, symmetrize(f @ sigma.mat @ f.T))
