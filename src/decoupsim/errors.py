"""Exception hierarchy shared across the package, and the value-type checks.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies.
"""

import numbers
import sys
from dataclasses import fields

__all__ = [
    "DecoupsimError",
    "InvalidInputError",
    "ShapeError",
    "InfeasibleSystemError",
    "SingularMatrixError",
    "InvalidConfigError",
]


class DecoupsimError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(DecoupsimError, ValueError):
    """Malformed numerical input (non-finite entries, ambient mismatch, bad range)."""


class ShapeError(DecoupsimError, ValueError):
    """Operands whose shapes cannot be combined by the requested operation."""


class InfeasibleSystemError(DecoupsimError, ValueError):
    """System dimensions admit no interference-free decoupler."""


class SingularMatrixError(DecoupsimError, ArithmeticError):
    """A matrix that must be invertible (or full rank) numerically is not."""


class InvalidConfigError(DecoupsimError, ValueError):
    """Simulation configuration failed validation."""


def _is_int(value) -> bool:
    """An integer: numpy integer scalars are, a bool or a float is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A real number within the float range: numpy scalars are; a bool, NaN, ±inf
    or an int past the largest float is not."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _require_numbers(params) -> None:
    """Reject a dataclass field that is not a finite real number."""
    for f in fields(params):
        if not _is_number(value := getattr(params, f.name)):
            raise InvalidInputError(f"{f.name} must be a finite number, got {value!r}")
