"""Exception types shared across the package."""


class MergeError(Exception):
    """Base class for all bezmerge errors."""


class DegreeBoundError(MergeError):
    """A degree or binomial argument exceeds the supported bound."""


class DomainError(MergeError):
    """A parameter value lies outside the curve domain [0, 1]."""


class ParameterError(MergeError):
    """Invalid degree/continuity parameters or partition."""


class ValidationError(MergeError):
    """Merge parameters are incompatible with the input curve."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DegenerateSegmentError(MergeError):
    """A segment has zero arc length (all control points coincide)."""


class NonFiniteError(MergeError):
    """A computed quantity overflowed to infinity or became NaN."""


class InternalConsistencyError(MergeError):
    """A computed quantity violates an internal invariant."""


class CurveFormatError(MergeError):
    """A curve or report document failed structural validation."""
