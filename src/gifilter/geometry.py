"""Chart-level differential geometry: connectors, exponential maps, curvature.

All operations are pure functions of their arguments and safe to call from
any number of threads.  Points, tangent vectors, symmetric 2-tensors and
bilinear maps are plain numpy arrays in chart coordinates; a tensor's base
point is the estimate or grid point that holds it.  A filter estimate is a
``(mu, sigma)`` pair of arrays, shapes (p,) and (p, p); nothing checks it
on the way through a cycle, and :func:`gifilter.harness.run_filters`
checks each step's result once (finite, of those shapes, and symmetric
within ``SYMMETRY_RTOL`` by :func:`check_symmetric`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import NonFiniteError

SYMMETRY_RTOL = 1e-12


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """The symmetric part of a matrix."""
    return 0.5 * (mat + mat.T)


@lru_cache(maxsize=16)
def identity(dim: int) -> np.ndarray:
    """The dim x dim identity matrix, one read-only array per dim."""
    eye = np.eye(dim)
    eye.flags.writeable = False
    return eye


def symmetric_condition(mat: np.ndarray) -> float:
    """Condition number max|lambda| / min|lambda| of a symmetric matrix.

    Infinite when the matrix is singular or has non-finite entries.  A 1x1
    matrix takes no eigvalsh: its condition number is 1 when its entry is
    finite and nonzero.
    """
    if mat.shape == (1, 1):
        value = float(mat[0, 0])
        return 1.0 if 0.0 < abs(value) < math.inf else math.inf
    if not np.all(np.isfinite(mat)):
        return math.inf
    eigs = np.abs(np.linalg.eigvalsh(mat))
    smallest = float(eigs.min())
    return float(eigs.max()) / smallest if smallest > 0.0 else math.inf


def check_symmetric(mat: np.ndarray, rtol: float = SYMMETRY_RTOL, what: str = "matrix") -> None:
    """Raise NonFiniteError on a non-finite entry and ValueError when the
    matrix is not symmetric within rtol of max(max|mat|, 1); one max|mat|
    serves both checks."""
    scale = float(np.abs(mat).max())
    if not math.isfinite(scale):
        raise NonFiniteError(f"non-finite entries in {what}")
    if float(np.abs(mat - mat.T).max()) > rtol * max(scale, 1.0):
        raise ValueError(f"{what} is not symmetric within {rtol:g} relative")


@dataclass(frozen=True)
class ConnectorField:
    """Local connector of an affine connection, as callable coefficients.

    ``gamma(x, u, v)`` is the symmetric bilinear map on tangent vectors at
    the point x; ``dgamma(x, w, u, v)`` is its directional derivative along
    w.  Every callback broadcasts over points as well as over its vector
    arguments: a point x of shape (..., dim) and vectors of shapes
    (..., dim) give a value of the broadcast shape (..., dim).  One call
    thus evaluates a whole stack of vector tuples at one point, e.g. every
    basis pair with u = I[:, None] and v = I[None, :], or one tuple at every
    point of a flow path, as ``ailp_state`` does with ``contract``.  (The
    drift and observation callbacks take one point instead: they run one
    call at a time in sequential loops.)  The ``flat`` flag short-circuits
    evaluation for identically-zero connectors.  ``contract_fn``, when
    given, computes sum_ij sym[i,j] gamma(x, e_i, e_j) without forming the
    coefficients, broadcasting the leading axes of x against those of sym
    (..., dim, dim) in the same way.
    """

    dim: int
    gamma: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    dgamma: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    flat: bool = False
    contract_fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def contract(self, x: np.ndarray, sym: np.ndarray) -> np.ndarray:
        if self.flat:
            return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(sym)[:-1]))
        if self.contract_fn is not None:
            return self.contract_fn(x, sym)
        return np.einsum("...kij,...ij->...k", self.coefficients(x), sym)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Dense coefficients G[..., k, i, j] = gamma(x, e_i, e_j)[k] at
        every point of x (..., dim)."""
        basis = identity(self.dim)
        pairs = self.gamma(x[..., None, None, :], basis[:, None], basis[None, :])
        return np.moveaxis(pairs, -1, -3)


def flat_connector(dim: int) -> ConnectorField:
    def gamma(x, u, v):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(u), np.shape(v)))

    def dgamma(x, w, u, v):
        return np.zeros(np.broadcast_shapes(np.shape(x), np.shape(w), np.shape(u),
                                            np.shape(v)))

    return ConnectorField(dim=dim, gamma=gamma, dgamma=dgamma, flat=True)


def exp_map_series(x: np.ndarray, v: np.ndarray, conn: ConnectorField) -> np.ndarray:
    """Third-order expansion of the exponential map at x applied to v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if conn.flat:
        return x + v
    g = conn.gamma(x, v, v)
    return x + v - 0.5 * g + (2.0 * conn.gamma(x, g, v) - conn.dgamma(x, v, v, v)) / 6.0


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
    mu: np.ndarray, sigma: np.ndarray, conn: ConnectorField, x: np.ndarray
) -> np.ndarray:
    """Approximate exponential-barycenter tangent vector from (mu, sigma).

    Returns mu - (1/3) sum_ijk R_ijk mu^i sigma^jk, with R_ijk the curvature
    vector fields R(d_i, d_j) d_k contracted by linearity in the first slot.
    """
    mu = np.asarray(mu, dtype=float)
    if conn.flat or not np.any(mu):
        return mu.copy()
    basis = identity(conn.dim)
    rmat = curvature(conn, x, mu, basis[:, None], basis[None, :])
    return mu - np.einsum("jk,jkl->l", sigma, rmat) / 3.0

