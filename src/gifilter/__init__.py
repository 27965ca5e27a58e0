"""Geometrically intrinsic nonlinear recursive filtering.

A numerical library for estimating continuous-time diffusions from discrete
nonlinear observations using the geometry induced by the noise covariances,
together with a continuous-discrete EKF baseline and a Monte Carlo
benchmark harness.
"""

import os

# One BLAS thread unless the caller chose otherwise, set before numpy is
# first imported: the matrices here are tiny (at most 9 x 9), so threaded
# BLAS only adds overhead, and under contention a stacked expm slows by
# more than an order of magnitude.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import (
    DivergenceError,
    FilterNumericsError,
    IllConditionedFlowError,
    IllConditionedGainError,
    NonFiniteError,
    SingularMetricError,
    SingularObservationError,
    SingularStateError,
)
from .filter import (
    FilterConfig,
    FilterDiagnostics,
    assimilate,
    filter_step,
    gain,
    pull_back_observation,
    rho_build,
    update_estimate,
)
from .flow import (
    DiffusionModel,
    FloatForms,
    FlowGrid,
    PropagationBundle,
    ailp_state,
    flow_second_fundamental_form,
    integrate_flow,
    precompute,
    propagate_covariance,
    transition_jacobians,
)
from .geometry import (
    ConnectorField,
    barycenter_correction,
    curvature,
    exp_map_series,
    flat_connector,
)
from .ekf import ekf_predict, ekf_step, ekf_update
from .observation import (
    ObservationModel,
    ailp_observation,
    map_second_fundamental_form,
    sample_observation,
)

__version__ = "0.1.0"
