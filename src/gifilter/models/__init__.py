"""Concrete model instantiations: 1-D cubic benchmark, 9-D tracking, linear."""

from .cubic1d import Cubic1DParams, cubic1d_build
from .linear import LinearParams, linear_build
from .tracking import (
    Tracking9DParams,
    constant_velocity_missile,
    pack_state,
    project_state,
    split_state,
    tracking_observation,
)

__all__ = [
    "Cubic1DParams",
    "cubic1d_build",
    "LinearParams",
    "linear_build",
    "Tracking9DParams",
    "constant_velocity_missile",
    "pack_state",
    "project_state",
    "split_state",
    "tracking_observation",
]
