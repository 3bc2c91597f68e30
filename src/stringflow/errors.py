"""Exception types shared across the package."""


class StringFlowError(Exception):
    """Base class for all package errors."""


class GridError(StringFlowError, ValueError):
    """Invalid grid construction or grid-level precondition violation."""


class ShapeError(StringFlowError, ValueError):
    """Mismatched field shapes."""


class ProjectionError(StringFlowError):
    """Nearest-point projection is not defined (point outside the tube)."""


class OffManifoldError(StringFlowError):
    """A point that must lie on the target is too far from it."""


class TangencyError(StringFlowError):
    """A vector that must be tangent has a normal component beyond tolerance."""


class HypothesisError(StringFlowError, ValueError):
    """A hypothesis of the method (e.g. |B|_inf < 1/2) fails where it is required."""


class NonFiniteStateError(StringFlowError, FloatingPointError):
    """The flow produced a NaN or infinite value (names t, step and node)."""


class ConfigError(StringFlowError, ValueError):
    """Bad run configuration (unknown key, wrong type, missing field)."""


class SnapshotError(StringFlowError, IOError):
    """Corrupt or truncated snapshot / ledger file."""
