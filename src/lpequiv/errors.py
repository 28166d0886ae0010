"""Exception types shared across the library."""

__all__ = [
    "LpEquivError",
    "InstanceParseError",
    "InconsistentSystem",
    "ZeroRhs",
    "NotUnderdetermined",
    "NumericalRankFailure",
    "DimensionMismatch",
    "BlowupLimit",
    "Unbounded",
    "CorankMismatch",
    "NoNonzeroCoordinate",
]


class LpEquivError(Exception):
    """Base class for all library errors."""


class InstanceParseError(LpEquivError):
    """An instance file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InconsistentSystem(LpEquivError):
    """The augmented matrix has higher rank than the coefficient matrix."""


class ZeroRhs(LpEquivError):
    """The right-hand side vanishes after row reduction."""


class NotUnderdetermined(LpEquivError):
    """The reduced system has at least as many independent rows as unknowns."""


class NumericalRankFailure(LpEquivError):
    """A factorization could not certify the expected rank."""


class DimensionMismatch(LpEquivError):
    """Vector or matrix dimensions do not line up."""


class BlowupLimit(LpEquivError):
    """A configured combinatorial cap was exceeded; the instance is too large
    for exact treatment."""


class Unbounded(LpEquivError):
    """The polyhedron has a nonzero recession direction."""


class CorankMismatch(LpEquivError):
    """The operation requires a one-dimensional solution set."""


class NoNonzeroCoordinate(LpEquivError):
    """Every enumerated vertex is numerically zero; signals an upstream fault."""
