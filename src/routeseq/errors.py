"""Exception types shared across the package, and its number check."""

import sys


class RouteSeqError(Exception):
    """Base class for all routeseq errors."""


class InvalidInputError(RouteSeqError, ValueError):
    """An argument violates an operation's preconditions."""


class MalformedRouteError(RouteSeqError, ValueError):
    """A route breaks a structural invariant (e.g. a stop without a zone id)."""


class NumericError(RouteSeqError, ArithmeticError):
    """Non-finite values appeared where finite ones are required."""


class ConfigError(RouteSeqError, ValueError):
    """Inconsistent model or run configuration."""


class SchemaError(RouteSeqError, ValueError):
    """A dataset, prediction, or checkpoint file violates its schema.

    ``json_path`` points at the offending element, e.g. ``routes[3].travel_time_s``.
    """

    def __init__(self, json_path: str, message: str):
        self.json_path = json_path
        super().__init__(f"{json_path}: {message}")


class TrainingDivergedError(RouteSeqError, ArithmeticError):
    """Training loss became non-finite; carries the route and epoch."""


def is_number(value) -> bool:
    """Whether ``value`` is a finite real number, a bool counting as none."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)
