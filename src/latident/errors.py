"""Exception types shared across the package."""


class LatidentError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LatidentError):
    """A model, parameter vector or file violates a structural invariant."""


class ParseError(LatidentError):
    """A model file could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class LatentIsolatedError(LatidentError):
    """No observed node is adjacent to the hidden node; the hidden part is vacuous."""


class NotApplicableError(LatidentError):
    """The requested construction does not apply to this model."""


class InconsistentSystemError(LatidentError):
    """A singular system cannot be put into solvable designated-coordinate form."""


class DimensionMismatchError(LatidentError):
    """A supplied vector does not match the model's parameter count."""


class ExponentOverflowError(LatidentError):
    """A linear predictor exceeds the safe exponent range; rescale the parameters."""
