"""Helpers shared by the test modules: state samplers, callback counters,
the point-broadcast check, a test metric and a model whose flow collapses.

They live here rather than in ``conftest.py`` because test modules import
them by name, and a second ``conftest`` module (the benchmark's own tests)
is collected in the same session.
"""

import dataclasses

import numpy as np

from gifilter.flow import DiffusionModel
from gifilter.geometry import flat_connector
from gifilter.models.tracking import pack_state


def random_tracking_state(rng, speed=None, scale=1.0):
    """Random point on the constraint manifold {v.a = 0, |v| = speed}."""
    speed = speed if speed is not None else scale * rng.uniform(0.5, 2.0)
    v = rng.standard_normal(3)
    v *= speed / np.linalg.norm(v)
    a = rng.standard_normal(3) * scale
    a -= v * float(v @ a) / float(v @ v)
    p = rng.standard_normal(3) * scale
    return pack_state(p, v, a)


def counting(bundle, names, calls):
    """A copy of the callback bundle (a model dataclass) whose callbacks
    ``names`` each add one to ``calls[name]`` per call."""

    def wrap(name, fn):
        def inner(*args):
            calls[name] += 1
            return fn(*args)

        return inner

    return dataclasses.replace(bundle, **{n: wrap(n, getattr(bundle, n)) for n in names})


def without_taylor_loops(model):
    """The model without its own Taylor loops, xi's and b's: every filter
    then takes the array Taylor steps through the callbacks."""
    return dataclasses.replace(model, taylor_loop=None, drift_b_taylor_loop=None)


def assert_broadcasts_over_points(model, points, rng):
    """``alpha``, ``d2xi_contract`` and ``d2drift_b_contract`` (when set) on
    a stack of points (n, p) equal the loop over the points, within 1e-12
    relative: the point-broadcast rule of the model protocol."""
    n, p = points.shape

    def close(stacked, loop, what):
        loop = np.asarray(loop)
        assert stacked.shape == loop.shape, what
        assert np.max(np.abs(stacked - loop)) <= 1e-12 * np.max(np.abs(loop)), what

    close(model.alpha(points), [model.alpha(x) for x in points], "alpha")
    raw = rng.standard_normal((3, p, p))
    chi = raw + raw.transpose(0, 2, 1)
    for name in ("d2xi_contract", "d2drift_b_contract"):
        contract = getattr(model, name)
        if contract is not None:
            close(contract(points[:, None, :], chi),
                  [[contract(x, c) for c in chi] for x in points], name)


def random_obs_point(rng):
    """Random observation point with a safely positive range coordinate."""
    return np.array([
        rng.uniform(0.5, 5.0),
        rng.uniform(0.3, 2.8),
        rng.uniform(-3.0, 3.0),
        rng.uniform(1.0, 20.0),
        rng.standard_normal(),
    ])


def exp_metric_2d(y):
    # cross-coupled entry so the connector coefficients genuinely vary
    return np.diag([np.exp(2.0 * y[1]), 1.0])


def exp_metric_2d_partials(y):
    out = np.zeros((2, 2, 2))
    out[1, 0, 0] = 2.0 * np.exp(2.0 * y[1])
    return out


def collapsing_model(dim, slope=-1e307):
    """xi = b = 0 with Dxi = Db = slope I: the path stays at its start, but
    every per-step map, and so tau_0^delta, underflows to 0, or overflows
    at a large positive slope such as 1e4.  At slope -1e308 the sum of two
    adjacent Jacobians is past the float range."""
    dxi = lambda x: slope * np.eye(dim)
    d2xi_contract = lambda x, chi: np.zeros(np.broadcast_shapes(x.shape, chi.shape[:-1]))
    return DiffusionModel(
        dim=dim,
        xi=lambda x: np.zeros(dim),
        dxi=dxi,
        d2xi_contract=d2xi_contract,
        alpha=lambda x: np.zeros(x.shape[:-1] + (dim, dim)),
        conn=flat_connector(dim),
        drift_b=lambda x: np.zeros(dim),
        ddrift_b=dxi,
        d2drift_b_contract=d2xi_contract,
    )
