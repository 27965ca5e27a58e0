"""Exception hierarchy for numerical failures in the filter pipeline."""


class FilterNumericsError(Exception):
    """Base class for all numerical failures raised by this package."""


class SingularMetricError(FilterNumericsError):
    """An observation covariance matrix is singular or not positive definite."""


class DivergenceError(FilterNumericsError):
    """An integration produced non-finite values (at a step it does not name)."""


class IllConditionedFlowError(FilterNumericsError):
    """The accumulated transition Jacobian is numerically singular."""


class IllConditionedGainError(FilterNumericsError):
    """The innovation matrix in the gain solve is numerically singular."""


class IndefiniteCovarianceError(FilterNumericsError):
    """An updated covariance is indefinite beyond rounding: its update failed."""


class SingularStateError(FilterNumericsError):
    """A state violates the domain of the model (e.g. vanishing speed)."""


class SingularObservationError(FilterNumericsError):
    """An observation point is outside the model's valid range (e.g. r ~ 0)."""


class NonFiniteError(FilterNumericsError, ValueError):
    """A state, covariance or estimate came out with non-finite entries.

    Also a ValueError, because constructing a container from non-finite
    data is invalid input as well as a numerical failure.
    """
