"""Exception hierarchy shared across the library."""

from __future__ import annotations


class SmoothmaxError(Exception):
    """Base of every error the library raises."""


class ContractViolationError(SmoothmaxError, ValueError):
    """An argument violates a documented precondition."""


class DimensionMismatchError(ContractViolationError):
    """Vector/matrix shapes do not agree with the family dimensions."""


class EvaluationError(SmoothmaxError, RuntimeError):
    """A component evaluation produced a non-finite value.

    ``index`` identifies the offending component when known.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class UnsupportedCapabilityError(SmoothmaxError, RuntimeError):
    """The family does not expose an optional capability (e.g. Hessians)."""


class DivergenceError(SmoothmaxError, RuntimeError):
    """The optimizer encountered a non-finite gradient.

    Carries the offending iterate for diagnostics.
    """

    def __init__(self, message: str, iterate=None):
        super().__init__(message)
        self.iterate = iterate


class ConfigurationError(SmoothmaxError, ValueError):
    """A run was refused because its configuration is unusable."""


class UnsupportedDimensionError(SmoothmaxError, ValueError):
    """The exact solver does not support this ambient dimension."""


class InputFormatError(SmoothmaxError, ValueError):
    """Malformed point-cloud input file."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class EmptyInputError(InputFormatError):
    """The input file contained no points."""
