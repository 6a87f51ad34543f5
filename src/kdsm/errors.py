"""Exception types shared across the package."""

from contextlib import contextmanager


class KdsmError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(KdsmError):
    """A feature schema is invalid or does not match the data it is used with."""


class ParseError(KdsmError):
    """A file could not be parsed; the message names the offending location."""


class DomainError(KdsmError):
    """A value is outside its documented domain."""


class ConfigError(KdsmError):
    """A run configuration is invalid."""


class FitError(KdsmError):
    """A model cannot be fit on the given data."""


class TrainingError(KdsmError):
    """Training produced an invalid state (e.g. non-finite gradients)."""


class MetricError(KdsmError):
    """An evaluation cannot be carried out on the given inputs."""


class UndefinedMetricError(MetricError):
    """The metric is undefined for this input (e.g. non-positive curve endpoint)."""


@contextmanager
def document_errors(what: str):
    """Report a missing key or a bad value met in parsed JSON as a ParseError naming `what`."""
    try:
        yield
    except KeyError as e:
        raise ParseError(f"{what} is missing key {e.args[0]!r}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as e:
        raise ParseError(f"{what} has a malformed value ({e})") from None
