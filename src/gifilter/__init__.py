"""Geometrically intrinsic nonlinear recursive filtering.

A numerical library for estimating continuous-time diffusions from discrete
nonlinear observations using the geometry induced by the noise covariances,
together with a continuous-discrete EKF baseline and a Monte Carlo
benchmark harness.
"""

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
    GainRho,
    StateEstimate,
    assimilate,
    filter_step,
    gain,
    pull_back_observation,
    rho_build,
    update_estimate,
)
from .flow import (
    DiffusionModel,
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
    Bilinear3,
    ConnectorField,
    SymTensor2,
    barycenter_correction,
    curvature,
    exp_map_series,
    flat_connector,
    pushforward_covariance,
)
from .ekf import ekf_predict, ekf_step, ekf_update
from .observation import (
    ObservationEvent,
    ObservationModel,
    ailp_observation,
    map_second_fundamental_form,
    sample_observation,
)

__version__ = "0.1.0"
