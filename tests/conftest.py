"""Shared test fixtures: model instances and the connector registry."""

import os

# One BLAS thread, set before numpy is imported: the runtime budgets of the
# acceptance criteria assume it, and threaded BLAS on these tiny matrices
# only adds overhead and contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from gifilter.harness import transformed_cubic_model
from gifilter.models.cubic1d import Cubic1DParams, cubic1d_build
from gifilter.models.linear import LinearParams, linear_build
from gifilter.models.tracking import (
    Tracking9DParams,
    observation_connector,
    tracking_connector,
    tracking_diffusion,
    tracking_observation,
)

from helpers import random_obs_point, random_tracking_state


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
