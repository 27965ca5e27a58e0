"""Nine-dimensional constrained target-tracking model.

State is (position, velocity, acceleration) in a Cartesian chart, with the
acceleration an Ornstein-Uhlenbeck process constrained to stay orthogonal
to the velocity (equivalently, the speed is conserved).  The diffusion
variance is degenerate: noise enters only the acceleration block through
the projection onto the plane orthogonal to the velocity.  Observations
are range, polar angle, azimuth (all relative to a missile with known
state), the relative speed, and a fictitious zero observation of the
velocity-acceleration inner product.

The flow's Taylor steps run in the model's own loop on Python floats
(``taylor_loop``, which is also b's, since b is xi), one pass per step
over the state's nine floats, from the drift ``xi`` gives at the start.  The
callbacks run one call at a time in the simulator's Euler loop, and in the
Taylor steps of the model without its loop, so nothing constant is
rebuilt per call: the 3x3 identity is ``geometry.identity(3)``; the
constant parts of ``dxi`` (the two identity blocks) and of ``d2psi`` are
read-only templates copied per call; the angular mask is one read-only
array; and ``beta`` and the observation connector are built once per
parameter set (``Tracking9DParams._observation_parts``), so a per-time
observation model only binds the missile state at its time.  Every
callback still returns a fresh array, which its caller may write into.
The observation derivatives take the gradient of the spherical
coordinates in closed form (``_spherical_gradient``), not as the inverse
of their Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from ..errors import SingularObservationError, SingularStateError
from ..flow import DiffusionModel, TaylorLoop
from ..geometry import ConnectorField, identity
from ..observation import ObservationModel

SPEED_FLOOR = 1e-6
RANGE_FLOOR = 1e-6

OBS_ANGULAR_MASK = np.array([False, False, True, False, False])
OBS_ANGULAR_MASK.flags.writeable = False

_EYE3 = identity(3)

# dxi's rows for dp/dt = v and dv/dt = a; the acceleration rows vary
_DXI_TEMPLATE = np.zeros((9, 9))
_DXI_TEMPLATE[0:3, 3:6] = _DXI_TEMPLATE[3:6, 6:9] = _EYE3
_DXI_TEMPLATE.flags.writeable = False

# d2psi's block of the inner product a.v; the other blocks vary
_D2PSI_TEMPLATE = np.zeros((5, 9, 9))
_D2PSI_TEMPLATE[4, 3:6, 6:9] = _D2PSI_TEMPLATE[4, 6:9, 3:6] = _EYE3
_D2PSI_TEMPLATE.flags.writeable = False


@dataclass(frozen=True)
class Tracking9DParams:
    """Time constant, noise intensity, and observation variance constants.

    ``gamma_noise`` is the acceleration noise intensity (gamma = sqrt(lam c1)
    in the underlying OU parametrization; we parametrize by gamma directly).
    ``s0 .. s5`` and ``sigma_f`` set the range-dependent observation
    variances.  The missile flies at constant velocity ``missile_v0`` from
    ``missile_p0``, both kept as tuples of 3 floats (hashable, comparable).
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
    missile_p0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    missile_v0: tuple[float, float, float] = (250.0, 0.0, 0.0)

    def __post_init__(self):
        for name in ("missile_p0", "missile_v0"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (3,):
                raise ValueError(f"{name} must be a vector of 3 numbers, got shape {vec.shape}")
            if not np.isfinite(vec).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, tuple(vec.tolist()))
        # chained comparisons: NaN and inf fail them
        if not (0.0 < self.lam < math.inf and 0.0 < self.gamma_noise < math.inf):
            raise ValueError("lam and gamma_noise must be positive")
        if not all(0.0 < v < math.inf for v in (self.s0, self.s5, self.sigma_f)):
            raise ValueError("s0, s5 and sigma_f must be positive")
        if not all(0.0 <= v < math.inf for v in (self.s1, self.s2, self.s3, self.s4)):
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

    @cached_property
    def missile_start(self) -> tuple[np.ndarray, np.ndarray]:
        """The missile's position at time 0 and its velocity, as arrays."""
        return np.array(self.missile_p0), np.array(self.missile_v0)

    @cached_property
    def _observation_parts(self) -> tuple[Callable[[np.ndarray], np.ndarray], ConnectorField]:
        """The observation metric ``beta`` and its connector.  Neither
        depends on the missile, so every per-time observation model of
        these parameters shares them."""
        return _observation_beta(self), observation_connector(self)


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
    ref_v = ref[3:6]
    # math.sqrt(v @ v) is bit for bit numpy's 1-D norm, without its overhead
    speed_ref = math.sqrt(ref_v @ ref_v)
    nv = math.sqrt(v @ v)
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
    return _EYE3 - v[..., :, None] * v[..., None, :] / _sq_norm(v)[..., None]


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
        sad = (sa * d).sum(axis=-1, keepdims=True)
        zad = (za * d).sum(axis=-1, keepdims=True)
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
        mid = ((chi_aa + np.swapaxes(chi_aa, -1, -2)) @ v)[..., 0] * inv2
        bottom = (-(chi_va + np.swapaxes(chi_av, -1, -2)) @ v)[..., 0] * inv2
        out = np.zeros(mid.shape[:-1] + (9,))
        out[..., 3:6] = mid
        out[..., 6:9] = bottom
        return out

    return ConnectorField(dim=9, gamma=gamma, dgamma=dgamma, contract_fn=contract)


def _speed_squared(v: np.ndarray) -> float:
    """|v|^2 of one velocity; SingularStateError below SPEED_FLOOR."""
    vv = float(v @ v)
    if vv < SPEED_FLOOR ** 2:
        raise SingularStateError("speed collapsed during flow evaluation")
    return vv


def tracking_diffusion(params: Tracking9DParams) -> DiffusionModel:
    lam = params.lam
    gam2 = params.gamma_noise ** 2

    def xi(x):
        v, a = x[3:6], x[6:9]
        vv = _speed_squared(v)
        rho = float(a @ a) / vv
        proj_a = a - v * float(v @ a) / vv
        return np.concatenate([v, a, -rho * v - lam * proj_a])

    def dxi(x):
        # integrate_flow evaluates dxi at the interval's end without xi, so
        # it guards the speed itself
        v, a = x[3:6], x[6:9]
        vv = _speed_squared(v)
        rho = float(a @ a) / vv
        q_mat = v[:, None] * a / vv
        out = _DXI_TEMPLATE.copy()
        out[6:9, 3:6] = lam * q_mat - rho * _EYE3
        out[6:9, 6:9] = -lam * (_EYE3 - v[:, None] * v / vv) - 2.0 * q_mat
        return out

    def d2xi_contract(x, chi):
        v, a = x[..., 3:6], x[..., 6:9]
        chi_va = chi[..., 3:6, 6:9]
        chi_av = chi[..., 6:9, 3:6]
        # the trace of the a.a block, summed in np.trace's order (the same
        # bits) without its per-call overhead
        trace = ((chi[..., 6, 6] + chi[..., 7, 7]) + chi[..., 8, 8])[..., None]
        chi_a = ((chi_va + chi_av) @ a[..., None])[..., 0]
        value = (-2.0 / _sq_norm(v)) * (trace * v + chi_a)
        out = np.zeros(value.shape[:-1] + (9,))
        out[..., 6:9] = value
        return out

    def alpha(x):
        out = np.zeros(np.shape(x)[:-1] + (9, 9))
        out[..., 6:9, 6:9] = gam2 * velocity_projection(x[..., 3:6])
        return out

    def noise_matrix(x):
        out = np.zeros((9, 3))
        out[6:9, :] = params.gamma_noise * velocity_projection(x[3:6])
        return out

    # Gamma(x)(sigma sigma(x)) vanishes identically, so b coincides with xi,
    # and so does its Taylor loop
    loop = _taylor_loop(lam)
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
        taylor_loop=loop,
        drift_b_taylor_loop=loop,
    )


def _taylor_loop(lam: float) -> TaylorLoop:
    """The flow's Taylor loop of :func:`tracking_diffusion` on Python floats.

    With c = xi's acceleration rows, Dxi's only varying rows are
    dc = [Q R] (rows 6:9, columns 3:9), Q = lam v a^T / |v|^2 - rho I and
    R = -lam (I - v v^T / |v|^2) - 2 v a^T / |v|^2, as ``dxi`` builds them.
    So Dxi xi = (a, c, d) with d = Q a + R c, D2xi(xi, xi) is zero but for
    its last rows -2 ((c.c) v + (c.a) a + (a.a) c) / |v|^2, as
    ``d2xi_contract`` gives them, and Dxi (a, c, d) = (c, d, Q c + R d).
    Each point forms v.v, a.a and v.a once and checks the speed as
    ``_speed_squared`` does; the start takes c from xi0, the drift that
    ``xi`` gives there.  A raise leaves no path for a divergence
    check, and needs none from a finite start: a collapsed speed is finite,
    while a non-finite v or a makes every later speed non-finite.  The path
    and the Jacobian stack are built once, at the end.
    """
    floor2 = SPEED_FLOOR ** 2

    def loop(x0, xi0, h, n):
        h2 = 0.5 * h * h
        h3 = h ** 3 / 6.0
        p1, p2, p3, v1, v2, v3, a1, a2, a3 = np.asarray(x0, dtype=float).tolist()
        start_c = np.asarray(xi0, dtype=float)[6:9].tolist()
        points = [(p1, p2, p3, v1, v2, v3, a1, a2, a3)]
        blocks = []
        for k in range(n + 1):
            vv = v1 * v1 + v2 * v2 + v3 * v3
            if vv < floor2:
                raise SingularStateError("speed collapsed during flow evaluation")
            inv = 1.0 / vv
            aa = a1 * a1 + a2 * a2 + a3 * a3
            rho = aa * inv
            # lam v / |v|^2 and 2 v / |v|^2
            l1, l2, l3 = lam * v1 * inv, lam * v2 * inv, lam * v3 * inv
            t1, t2, t3 = 2.0 * v1 * inv, 2.0 * v2 * inv, 2.0 * v3 * inv
            q11, q12, q13 = l1 * a1 - rho, l1 * a2, l1 * a3
            q21, q22, q23 = l2 * a1, l2 * a2 - rho, l2 * a3
            q31, q32, q33 = l3 * a1, l3 * a2, l3 * a3 - rho
            r11, r12, r13 = l1 * v1 - t1 * a1 - lam, l1 * v2 - t1 * a2, l1 * v3 - t1 * a3
            r21, r22, r23 = l2 * v1 - t2 * a1, l2 * v2 - t2 * a2 - lam, l2 * v3 - t2 * a3
            r31, r32, r33 = l3 * v1 - t3 * a1, l3 * v2 - t3 * a2, l3 * v3 - t3 * a3 - lam
            blocks.append((q11, q12, q13, r11, r12, r13, q21, q22, q23, r21, r22, r23,
                           q31, q32, q33, r31, r32, r33))
            if k == n:
                break
            if k == 0:
                c1, c2, c3 = start_c
            else:
                s = (v1 * a1 + v2 * a2 + v3 * a3) * inv
                c1 = -rho * v1 - lam * (a1 - v1 * s)
                c2 = -rho * v2 - lam * (a2 - v2 * s)
                c3 = -rho * v3 - lam * (a3 - v3 * s)
            d1 = q11 * a1 + q12 * a2 + q13 * a3 + r11 * c1 + r12 * c2 + r13 * c3
            d2 = q21 * a1 + q22 * a2 + q23 * a3 + r21 * c1 + r22 * c2 + r23 * c3
            d3 = q31 * a1 + q32 * a2 + q33 * a3 + r31 * c1 + r32 * c2 + r33 * c3
            g = -2.0 * inv
            cc = g * (c1 * c1 + c2 * c2 + c3 * c3)
            ca = g * (c1 * a1 + c2 * a2 + c3 * a3)
            ga = g * aa
            e1 = (cc * v1 + ca * a1 + ga * c1 + q11 * c1 + q12 * c2 + q13 * c3
                  + r11 * d1 + r12 * d2 + r13 * d3)
            e2 = (cc * v2 + ca * a2 + ga * c2 + q21 * c1 + q22 * c2 + q23 * c3
                  + r21 * d1 + r22 * d2 + r23 * d3)
            e3 = (cc * v3 + ca * a3 + ga * c3 + q31 * c1 + q32 * c2 + q33 * c3
                  + r31 * d1 + r32 * d2 + r33 * d3)
            p1 = p1 + h * v1 + h2 * a1 + h3 * c1
            p2 = p2 + h * v2 + h2 * a2 + h3 * c2
            p3 = p3 + h * v3 + h2 * a3 + h3 * c3
            v1, v2, v3, a1, a2, a3 = (v1 + h * a1 + h2 * c1 + h3 * d1,
                                      v2 + h * a2 + h2 * c2 + h3 * d2,
                                      v3 + h * a3 + h2 * c3 + h3 * d3,
                                      a1 + h * c1 + h2 * d1 + h3 * e1,
                                      a2 + h * c2 + h2 * d2 + h3 * e2,
                                      a3 + h * c3 + h2 * d3 + h3 * e3)
            points.append((p1, p2, p3, v1, v2, v3, a1, a2, a3))
        jacs = np.empty((n + 1, 9, 9))
        jacs[:] = _DXI_TEMPLATE
        jacs[:, 6:9, 3:9] = np.array(blocks).reshape(n + 1, 3, 6)
        return np.array(points), jacs

    return loop


def _spherical(d: np.ndarray) -> tuple[float, float, float]:
    """(range, angle from vertical, azimuth) of one Cartesian vector."""
    r = math.sqrt(d @ d)
    if r < RANGE_FLOOR:
        raise SingularObservationError(f"range {r:.3e} below {RANGE_FLOOR:.0e}")
    dx, dy, dz = d.tolist()
    rho_xy = math.hypot(dx, dy)
    if rho_xy < RANGE_FLOOR:
        raise SingularObservationError("direction too close to vertical for azimuth")
    return r, math.acos(max(-1.0, min(1.0, dz / r))), math.atan2(dy, dx)


def _spherical_gradient(y: tuple[float, float, float]) -> np.ndarray:
    """D Phi, the gradient of (r, theta, phi) in the Cartesian vector, at
    spherical coordinates y, in closed form: the inverse of the Jacobian
    D h of the map h(r, theta, phi) = d.  Its rows are d / r, the theta
    direction over r and the phi direction over r sin(theta)."""
    r, th, ph = y
    st, ct = math.sin(th), math.cos(th)
    sp, cp = math.sin(ph), math.cos(ph)
    rs = r * st
    return np.array([
        [st * cp, st * sp, ct],
        [ct * cp / r, ct * sp / r, -st / r],
        [-sp / rs, cp / rs, 0.0],
    ])


def _spherical_hessian(y: tuple[float, float, float]) -> np.ndarray:
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


def _observation_beta(params: Tracking9DParams) -> Callable[[np.ndarray], np.ndarray]:
    """The diagonal observation metric beta(y) = diag h(r)."""

    def beta(y):
        r = float(y[0])
        if r < RANGE_FLOOR:
            raise SingularObservationError(f"range {r:.3e} below {RANGE_FLOOR:.0e}")
        return np.diag(_beta_h(params, r))

    return beta


def _relative_speed(w: np.ndarray) -> float:
    """|w| of the relative velocity; SingularObservationError below
    SPEED_FLOOR."""
    nw = math.sqrt(w @ w)
    if nw < SPEED_FLOOR:
        raise SingularObservationError("relative speed is numerically zero")
    return nw


def tracking_observation(params: Tracking9DParams, time: float = 0.0) -> ObservationModel:
    """Observation model with the missile state frozen at one observation time.

    It binds the missile at p0 + time v0, flying at v0; ``beta``, the
    connector and the angular mask are the ones every model shares.
    """
    p0, v_m = params.missile_start
    p_m = p0 + time * v_m

    def psi(x):
        p, v, a = split_state(x)
        r, theta, phi = _spherical(p - p_m)
        nw = _relative_speed(v - v_m)
        return np.array([r, theta, phi, nw, float(a @ v)])

    def dpsi(x):
        p, v, a = split_state(x)
        dphi = _spherical_gradient(_spherical(p - p_m))
        w = v - v_m
        nw = _relative_speed(w)
        out = np.zeros((5, 9))
        out[0:3, 0:3] = dphi
        out[3, 3:6] = w / nw
        out[4, 3:6] = a
        out[4, 6:9] = v
        return out

    def d2psi(x):
        # Differentiating h(Phi(d)) = d twice gives the inverse map's
        # D2Phi(u, w) = -Dh^{-1} D2h(DPhi u, DPhi w).
        p, v, _ = split_state(x)
        y = _spherical(p - p_m)
        dphi = _spherical_gradient(y)
        inner = np.einsum("mab,ai,bj->mij", _spherical_hessian(y), dphi, dphi)
        w = v - v_m
        nw = math.sqrt(w @ w)
        out = _D2PSI_TEMPLATE.copy()
        out[0:3, 0:3, 0:3] = -np.einsum("km,mij->kij", dphi, inner)
        out[3, 3:6, 3:6] = (_EYE3 - w[:, None] * w / (nw * nw)) / nw
        return out

    beta, conn_obs = params._observation_parts
    return ObservationModel(
        dim_obs=5,
        psi=psi,
        dpsi=dpsi,
        d2psi=d2psi,
        beta=beta,
        conn_obs=conn_obs,
        angular_mask=OBS_ANGULAR_MASK,
    )
