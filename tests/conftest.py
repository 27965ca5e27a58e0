"""Shared test fixtures: model instances, state samplers, connector registry."""

import os

# One BLAS thread, set before numpy is imported: the runtime budgets of the
# acceptance criteria assume it, and threaded BLAS on these tiny matrices
# only adds overhead and contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import dataclasses

import numpy as np
import pytest

from gifilter.harness import transformed_cubic_model
from gifilter.models.cubic1d import Cubic1DParams, cubic1d_build
from gifilter.models.linear import LinearParams, linear_build
from gifilter.models.tracking import (
    Tracking9DParams,
    observation_connector,
    pack_state,
    tracking_connector,
    tracking_diffusion,
    tracking_observation,
)


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


@pytest.fixture(scope="session")
def cubic_params():
    return Cubic1DParams()


@pytest.fixture(scope="session")
def cubic_models(cubic_params):
    return cubic1d_build(cubic_params)


@pytest.fixture(scope="session")
def tracking_params():
    return Tracking9DParams()


@pytest.fixture(scope="session")
def tracking_models(tracking_params):
    return tracking_diffusion(tracking_params), tracking_observation(tracking_params)


@pytest.fixture(scope="session")
def linear_params():
    rng = np.random.default_rng(314)
    a = rng.standard_normal((3, 3)) * 0.5
    sig = rng.standard_normal((3, 3)) * 0.4
    j = rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 2))
    return LinearParams(a, sig, j, b @ b.T + 0.2 * np.eye(2))


@pytest.fixture(scope="session")
def linear_models(linear_params):
    return linear_build(linear_params)


def exp_metric_2d(y):
    # cross-coupled entry so the connector coefficients genuinely vary
    return np.diag([np.exp(2.0 * y[1]), 1.0])


def exp_metric_2d_partials(y):
    out = np.zeros((2, 2, 2))
    out[1, 0, 0] = 2.0 * np.exp(2.0 * y[1])
    return out


@pytest.fixture(scope="session")
def connector_registry(tracking_params):
    """Every analytic or numeric connector the package registers, each with a
    sampler for valid base points."""

    def tracking_point(rng):
        return random_tracking_state(rng)

    def obs_point(rng):
        return random_obs_point(rng)

    def line_point(rng):
        return rng.uniform(-1.5, 1.5, size=1)

    transformed = transformed_cubic_model(Cubic1DParams())[0].conn
    return [
        ("tracking_state", tracking_connector(), tracking_point),
        ("tracking_observation", observation_connector(tracking_params), obs_point),
        ("transformed_cubic", transformed, line_point),
    ]
