"""Exception types shared across the package, and the checks on its inputs."""

import numbers
import reprlib

import numpy as np


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


def check_positive(name, value):
    """Raise InvalidParameterError unless value, a number or an array, is
    positive and finite."""
    if not np.all(np.less(0, value) & np.less(value, np.inf)):
        raise InvalidParameterError(f"{name} must be positive and finite, got {value}")


class InvalidInputError(FlipnetError):
    """Input data violates a precondition (non-finite, wrong class, ...)."""


def check_classes(name, ids, class_count, error=InvalidParameterError):
    """ids as an int64 array; raise error unless every id is an integer (a
    bool is not) in [0, class_count). numpy reads a bool among integers
    as 0 or 1, so the items of a sequence are tested one by one."""
    array = np.asarray(ids)
    items = () if isinstance(ids, np.ndarray) else np.asarray(ids, dtype=object).flat
    if array.size and (array.dtype.kind not in "iu" or np.any((array < 0) | (array >= class_count))
                       or any(isinstance(v, (bool, np.bool_)) for v in items)):
        raise error(f"{name} must be class ids in [0, {class_count}), got {reprlib.repr(ids)}")
    return array.astype(np.int64)


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
