"""Nine-dimensional constrained target-tracking model.

State is (position, velocity, acceleration) in a Cartesian chart, with the
acceleration an Ornstein-Uhlenbeck process constrained to stay orthogonal
to the velocity (equivalently, the speed is conserved).  The diffusion
variance is degenerate: noise enters only the acceleration block through
the projection onto the plane orthogonal to the velocity.  Observations
are range, polar angle, azimuth (all relative to a missile with known
state), the relative speed, and a fictitious zero observation of the
velocity-acceleration inner product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from ..errors import SingularObservationError, SingularStateError
from ..flow import DiffusionModel
from ..geometry import ConnectorField
from ..observation import ObservationModel

MissileState = Callable[[float], tuple[np.ndarray, np.ndarray, np.ndarray]]

SPEED_FLOOR = 1e-6
RANGE_FLOOR = 1e-6

OBS_ANGULAR_MASK = np.array([False, False, True, False, False])


def constant_velocity_missile(p0, v0, a0=None) -> MissileState:
    """Missile trajectory with constant velocity (the benchmark default)."""
    p0 = np.asarray(p0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    a0 = np.zeros(3) if a0 is None else np.asarray(a0, dtype=float)

    def state(t: float):
        return p0 + t * v0, v0, a0

    return state


@dataclass(frozen=True)
class Tracking9DParams:
    """Time constant, noise intensity, and observation variance constants.

    ``gamma_noise`` is the acceleration noise intensity (gamma = sqrt(lam c1)
    in the underlying OU parametrization; we parametrize by gamma directly).
    ``s0 .. s5`` and ``sigma_f`` set the range-dependent observation
    variances; ``missile`` maps an observation time to the known missile
    (position, velocity, acceleration).
    """

    lam: float = 0.5
    gamma_noise: float = 5.0
    s0: float = 1e-6
    s1: float = 1e-2
    s2: float = 1e-6
    s3: float = 1e-2
    s4: float = 1e-6
    s5: float = 1e-8
    sigma_f: float = 1.0
    missile: MissileState = field(
        default_factory=lambda: constant_velocity_missile(
            np.zeros(3), np.array([250.0, 0.0, 0.0])
        )
    )

    def __post_init__(self):
        if self.lam <= 0.0 or self.gamma_noise <= 0.0:
            raise ValueError("lam and gamma_noise must be positive")
        if min(self.s0, self.s5) <= 0.0 or self.sigma_f <= 0.0:
            raise ValueError("s0, s5 and sigma_f must be positive")
        if min(self.s1, self.s2, self.s3, self.s4) < 0.0:
            raise ValueError("variance constants must be non-negative")
        if self.s1 + self.s2 <= 0.0 or self.s3 + self.s4 <= 0.0:
            raise ValueError("angle variances must be positive")

    @cached_property
    def variance_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Constant vectors (quad, inv, const) of the diagonal observation
        variances h(r) = r^2 quad + inv / r + const."""
        return (np.array([self.s0, 0.0, 0.0, self.s5, 0.0]),
                np.array([0.0, self.s1, self.s3, 0.0, 0.0]),
                np.array([0.0, self.s2, self.s4, 0.0, self.sigma_f ** 2]))


def split_state(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    return x[0:3], x[3:6], x[6:9]


def pack_state(p, v, a) -> np.ndarray:
    return np.concatenate([np.asarray(p, dtype=float), np.asarray(v, dtype=float),
                           np.asarray(a, dtype=float)])


def project_state(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Re-project onto the constraint manifold of the reference state.

    The velocity is rescaled to the reference speed and the acceleration is
    projected orthogonal to the new velocity.
    """
    p, v, a = split_state(x)
    speed_ref = float(np.linalg.norm(ref[3:6]))
    nv = float(np.linalg.norm(v))
    if nv < SPEED_FLOOR:
        raise SingularStateError("cannot project a state with vanishing speed")
    v_new = v * (speed_ref / nv)
    a_new = a - v_new * float(v_new @ a) / float(v_new @ v_new)
    return pack_state(p, v_new, a_new)


def _sq_norm(v: np.ndarray) -> np.ndarray:
    """|v|^2 over the last axis, kept as a length-1 axis: shape (..., 1)."""
    return (v[..., None, :] @ v[..., :, None])[..., 0]


def velocity_projection(v: np.ndarray) -> np.ndarray:
    """Projection onto the orthogonal complement of v, for every velocity
    in a stack (..., 3)."""
    return np.eye(3) - v[..., :, None] * v[..., None, :] / _sq_norm(v)[..., None]


def tracking_connector() -> ConnectorField:
    """State-space connector of the degenerate diffusion metric.

    gamma(x)(z, s) = S(z (x) s) v / (2 |v|^2), with the middle block of S the
    symmetrization z_a s_a^T + s_a z_a^T and the bottom block
    -(z_v s_a^T + s_v z_a^T).  The derivative is the full chart derivative,
    including the variation of the 1/|v|^2 factor; it reduces to
    S(z (x) s) w_v / (2 |v|^2) when the direction keeps the speed constant.
    """

    def form(ze, si, d, inv2):
        # S(ze (x) si) d * inv2; d is v or a stack of velocity blocks w_v
        zv, za = ze[..., 3:6], ze[..., 6:9]
        sv, sa = si[..., 3:6], si[..., 6:9]
        sad = np.sum(sa * d, axis=-1, keepdims=True)
        zad = np.sum(za * d, axis=-1, keepdims=True)
        mid = (za * sad + sa * zad) * inv2
        bottom = -(zv * sad + sv * zad) * inv2
        return np.concatenate([np.zeros_like(mid), mid, bottom], axis=-1)

    def gamma(x, ze, si):
        v = x[..., 3:6]
        return form(ze, si, v, 0.5 / _sq_norm(v))

    def dgamma(x, w, ze, si):
        v = x[..., 3:6]
        vv = _sq_norm(v)
        wv = w[..., 3:6]
        radial = 2.0 * (wv[..., None, :] @ v[..., :, None])[..., 0] / vv
        return form(ze, si, wv, 0.5 / vv) - radial * form(ze, si, v, 0.5 / vv)

    def contract(x, chi):
        v = x[..., 3:6, None]
        inv2 = 0.5 / _sq_norm(x[..., 3:6])
        chi_aa = chi[..., 6:9, 6:9]
        chi_va = chi[..., 3:6, 6:9]
        chi_av = chi[..., 6:9, 3:6]
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(chi)[:-1]))
        out[..., 3:6] = ((chi_aa + np.swapaxes(chi_aa, -1, -2)) @ v)[..., 0] * inv2
        out[..., 6:9] = (-(chi_va + np.swapaxes(chi_av, -1, -2)) @ v)[..., 0] * inv2
        return out

    return ConnectorField(dim=9, gamma=gamma, dgamma=dgamma, contract_fn=contract)


def tracking_diffusion(params: Tracking9DParams) -> DiffusionModel:
    lam = params.lam
    gam2 = params.gamma_noise ** 2

    def xi(x):
        _, v, a = split_state(x)
        vv = float(v @ v)
        if vv < SPEED_FLOOR ** 2:
            raise SingularStateError("speed collapsed during flow evaluation")
        rho = float(a @ a) / vv
        proj_a = a - v * float(v @ a) / vv
        return np.concatenate([v, a, -rho * v - lam * proj_a])

    def dxi(x):
        _, v, a = split_state(x)
        vv = float(v @ v)
        rho = float(a @ a) / vv
        proj = np.eye(3) - np.outer(v, v) / vv
        q_mat = np.outer(v, a) / vv
        out = np.zeros((9, 9))
        out[0:3, 3:6] = np.eye(3)
        out[3:6, 6:9] = np.eye(3)
        out[6:9, 3:6] = lam * q_mat - rho * np.eye(3)
        out[6:9, 6:9] = -lam * proj - 2.0 * q_mat
        return out

    def d2xi_contract(x, chi):
        v, a = x[..., 3:6], x[..., 6:9]
        chi_aa = chi[..., 6:9, 6:9]
        chi_va = chi[..., 3:6, 6:9]
        chi_av = chi[..., 6:9, 3:6]
        trace = np.trace(chi_aa, axis1=-2, axis2=-1)[..., None]
        out = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(chi)[:-1]))
        chi_a = ((chi_va + chi_av) @ a[..., None])[..., 0]
        out[..., 6:9] = (-2.0 / _sq_norm(v)) * (trace * v + chi_a)
        return out

    def alpha(x):
        out = np.zeros(np.shape(x)[:-1] + (9, 9))
        out[..., 6:9, 6:9] = gam2 * velocity_projection(x[..., 3:6])
        return out

    def noise_matrix(x):
        _, v, _ = split_state(x)
        out = np.zeros((9, 3))
        out[6:9, :] = params.gamma_noise * velocity_projection(v)
        return out

    # Gamma(x)(sigma sigma(x)) vanishes identically, so b coincides with xi
    return DiffusionModel(
        dim=9,
        xi=xi,
        dxi=dxi,
        d2xi_contract=d2xi_contract,
        alpha=alpha,
        conn=tracking_connector(),
        drift_b=xi,
        ddrift_b=dxi,
        d2drift_b_contract=d2xi_contract,
        noise_matrix=noise_matrix,
        constrain=project_state,
    )


def cartesian_to_spherical(d: np.ndarray) -> np.ndarray:
    """Inverse spherical transform: range, angle from vertical, azimuth."""
    r = float(np.linalg.norm(d))
    if r < RANGE_FLOOR:
        raise SingularObservationError(f"range {r:.3e} below {RANGE_FLOOR:.0e}")
    rho_xy = math.hypot(float(d[0]), float(d[1]))
    if rho_xy < RANGE_FLOOR:
        raise SingularObservationError("direction too close to vertical for azimuth")
    theta = math.acos(max(-1.0, min(1.0, float(d[2]) / r)))
    phi = math.atan2(float(d[1]), float(d[0]))
    return np.array([r, theta, phi])


def _spherical_jacobian(y: np.ndarray) -> np.ndarray:
    """D h at spherical coordinates y = (r, theta, phi)."""
    r, th, ph = y
    st, ct = math.sin(th), math.cos(th)
    sp, cp = math.sin(ph), math.cos(ph)
    return np.array([
        [st * cp, r * ct * cp, -r * st * sp],
        [st * sp, r * ct * sp, r * st * cp],
        [ct, -r * st, 0.0],
    ])


def _spherical_hessian(y: np.ndarray) -> np.ndarray:
    """D^2 h at y, indexed [component, coord_i, coord_j]."""
    r, th, ph = y
    st, ct = math.sin(th), math.cos(th)
    sp, cp = math.sin(ph), math.cos(ph)
    out = np.zeros((3, 3, 3))
    # h1 = r sin(th) cos(ph)
    out[0, 0, 1] = out[0, 1, 0] = ct * cp
    out[0, 0, 2] = out[0, 2, 0] = -st * sp
    out[0, 1, 1] = -r * st * cp
    out[0, 1, 2] = out[0, 2, 1] = -r * ct * sp
    out[0, 2, 2] = -r * st * cp
    # h2 = r sin(th) sin(ph)
    out[1, 0, 1] = out[1, 1, 0] = ct * sp
    out[1, 0, 2] = out[1, 2, 0] = st * cp
    out[1, 1, 1] = -r * st * sp
    out[1, 1, 2] = out[1, 2, 1] = r * ct * cp
    out[1, 2, 2] = -r * st * sp
    # h3 = r cos(th)
    out[2, 0, 1] = out[2, 1, 0] = -st
    out[2, 1, 1] = -r * ct
    return out


def _inverse_map_derivatives(d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Phi(d), DPhi(d), D2Phi(d)) from the forward map's derivatives.

    Differentiating h(Phi(d)) = d twice gives
    D2Phi(u, w) = -Dh^{-1} D2h(DPhi u, DPhi w).
    """
    y = cartesian_to_spherical(d)
    dh = _spherical_jacobian(y)
    dphi = np.linalg.inv(dh)
    d2h = _spherical_hessian(y)
    inner = np.einsum("mab,ai,bj->mij", d2h, dphi, dphi)
    d2phi = -np.einsum("km,mij->kij", dphi, inner)
    return y, dphi, d2phi


def _beta_h(params: Tracking9DParams, r) -> np.ndarray:
    """Diagonal variance entries h_k(r); r of shape (..., 1) gives shape
    (..., 5)."""
    quad, inv, const = params.variance_terms
    return r * r * quad + inv / r + const


def observation_connector(params: Tracking9DParams) -> ConnectorField:
    """Closed-form Levi-Civita connector of the diagonal observation metric.

    Only the range coordinate enters the metric, so the derivative along a
    direction w is w^1 times the r-derivative of the coefficients.
    """
    quad, inv, _ = params.variance_terms

    def _pieces(y):
        r = y[..., :1]
        if r.min() < RANGE_FLOOR:
            raise SingularObservationError("observation connector undefined at r ~ 0")
        h = _beta_h(params, r)
        dh = 2.0 * r * quad - inv / r ** 2
        # kvec = dh / h^2 ends in 0: the fictitious observation's variance
        # is constant
        return r, h, dh, dh / h ** 2

    def gamma(y, u, v):
        _, h, dh, kvec = _pieces(y)
        # u * v elementwise keeps the result exactly symmetric under swap
        out = -0.5 * (u[..., :1] * v + v[..., :1] * u) * (dh / h)
        out[..., 0] += 0.5 * h[..., 0] * (kvec * (u * v)).sum(axis=-1)
        return out

    def dgamma(y, w, u, v):
        r, h, dh, kvec = _pieces(y)
        ddh = 2.0 * quad + 2.0 * inv / r ** 3
        dratio = ddh / h - (dh / h) ** 2
        dkvec = ddh / h ** 2 - 2.0 * dh ** 2 / h ** 3
        out = -0.5 * (u[..., :1] * v + v[..., :1] * u) * dratio
        out[..., 0] += 0.5 * dh[..., 0] * (kvec * (u * v)).sum(axis=-1)
        out[..., 0] += 0.5 * h[..., 0] * (dkvec * (u * v)).sum(axis=-1)
        return out * w[..., :1]

    return ConnectorField(dim=5, gamma=gamma, dgamma=dgamma)


def tracking_observation(params: Tracking9DParams, time: float = 0.0) -> ObservationModel:
    """Observation model with the missile state frozen at one observation time."""
    p_m, v_m, _ = params.missile(time)
    p_m = np.asarray(p_m, dtype=float)
    v_m = np.asarray(v_m, dtype=float)

    def psi(x):
        p, v, a = split_state(x)
        sph = cartesian_to_spherical(p - p_m)
        w = v - v_m
        nw = float(np.linalg.norm(w))
        if nw < SPEED_FLOOR:
            raise SingularObservationError("relative speed is numerically zero")
        return np.concatenate([sph, [nw, float(a @ v)]])

    def dpsi(x):
        p, v, a = split_state(x)
        _, dphi, _ = _inverse_map_derivatives(p - p_m)
        w = v - v_m
        nw = float(np.linalg.norm(w))
        if nw < SPEED_FLOOR:
            raise SingularObservationError("relative speed is numerically zero")
        out = np.zeros((5, 9))
        out[0:3, 0:3] = dphi
        out[3, 3:6] = w / nw
        out[4, 3:6] = a
        out[4, 6:9] = v
        return out

    def d2psi(x):
        p, v, a = split_state(x)
        _, _, d2phi = _inverse_map_derivatives(p - p_m)
        w = v - v_m
        nw = float(np.linalg.norm(w))
        out = np.zeros((5, 9, 9))
        out[0:3, 0:3, 0:3] = d2phi
        out[3, 3:6, 3:6] = (np.eye(3) - np.outer(w, w) / (nw * nw)) / nw
        out[4, 3:6, 6:9] = np.eye(3)
        out[4, 6:9, 3:6] = np.eye(3)
        return out

    def beta(y):
        r = float(y[0])
        if r < RANGE_FLOOR:
            raise SingularObservationError(f"range {r:.3e} below {RANGE_FLOOR:.0e}")
        return np.diag(_beta_h(params, r))

    return ObservationModel(
        dim_obs=5,
        psi=psi,
        dpsi=dpsi,
        d2psi=d2psi,
        beta=beta,
        conn_obs=observation_connector(params),
        angular_mask=OBS_ANGULAR_MASK.copy(),
    )
