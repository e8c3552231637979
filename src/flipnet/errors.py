"""Exception types shared across the package, and the check on counts."""

import numbers


class FlipnetError(Exception):
    """Base class for all package errors."""


class ShapeError(FlipnetError):
    """Array dimensions do not match what an operation requires."""


class InvalidParameterError(FlipnetError):
    """A scalar parameter is out of its valid range."""


def check_count(name, value, minimum):
    """Raise InvalidParameterError unless value is an integer (a bool is
    not) of at least minimum; a float count would be truncated silently."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


class InvalidInputError(FlipnetError):
    """Input data violates a precondition (non-finite, wrong class, ...)."""


class FormatError(FlipnetError):
    """A file or byte stream does not match the expected format."""


class DependencyError(FlipnetError):
    """A required artifact from an earlier pipeline stage is missing."""

    def __init__(self, missing_path, producing_command):
        self.missing_path = str(missing_path)
        self.producing_command = producing_command
        super().__init__(
            f"missing artifact {missing_path!r}; produce it with `{producing_command}`"
        )


class DegenerateGradientError(FlipnetError):
    """The logit-difference gradient vanished; Taylor direction undefined."""


class TrainingDivergedError(FlipnetError):
    """Loss became non-finite during training."""

    def __init__(self, epoch):
        self.epoch = epoch
        super().__init__(f"training loss became non-finite at epoch {epoch}")
