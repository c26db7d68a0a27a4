"""Exception types shared across the package."""

from __future__ import annotations


class HomquantError(Exception):
    """Base class for every error raised by this package."""


class NotSymmetricError(HomquantError, ValueError):
    """A matrix required to be symmetric is not."""


class NotPositiveDefiniteError(HomquantError, ValueError):
    """A matrix required to be positive definite is not."""


class NotMonotoneError(HomquantError, ValueError):
    """The generator/weight pair does not define a strictly monotone dilation."""


class NoConvergenceError(HomquantError, RuntimeError):
    """An iterative solver exhausted its iteration budget."""


class ZeroVectorError(HomquantError, ValueError):
    """The zero vector was passed to an operation undefined at the origin."""


class NegativeInputError(HomquantError, ValueError):
    """A nonnegative scalar argument was negative."""


class DimensionTooSmallError(HomquantError, ValueError):
    """The operation needs at least two coordinates."""


class NotOnSphereError(HomquantError, ValueError):
    """The argument must lie on the unit sphere of the weighted norm."""


class NonFiniteInputError(HomquantError, ValueError):
    """An input state, norm or coordinate has a NaN or infinite entry."""


class NormOverflowError(HomquantError, OverflowError):
    """A homogeneous norm, or a state built from one, exceeds the largest float."""


class DegreeMismatchError(HomquantError, ValueError):
    """A feedback's degree does not match the plant's, so the closed loop is not homogeneous."""


class NonFiniteStateError(HomquantError, ArithmeticError):
    """Integration produced a NaN or infinite coordinate.

    Carries the rows recorded before the blow-up in ``trajectory``.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class EmptyTrajectoryError(HomquantError, ValueError):
    """A trajectory with zero recorded samples was passed to a reducer."""


class UnsupportedDimensionError(HomquantError, ValueError):
    """The operation, or its quantizer parameters, do not support this state dimension."""


class ConfigParseError(HomquantError, ValueError):
    """A run-configuration document is syntactically malformed."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ConfigValidationError(HomquantError, ValueError):
    """A run-configuration document is well formed but semantically invalid."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


class UnknownSuiteError(HomquantError, ValueError):
    """The requested property suite does not exist."""
