"""Exception types shared across the package.

Every structured failure mode gets its own class so callers (and the CLI,
which maps them to exit codes) can react without string matching.
"""

from __future__ import annotations


class EbstabError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(EbstabError):
    """Input vector length does not match the expression's dimension."""

    def __init__(self, expected: int, got: int, what: str = "point"):
        self.expected = expected
        self.got = got
        super().__init__(f"{what} has dimension {got}, expected {expected}")


class ConvexityViolation(EbstabError):
    """Construction would break convexity (e.g. negative combination weight)."""


class UnsupportedSubdifferential(EbstabError):
    """The exact polytope+ball representation cannot express this set."""


class MinNormNonConvergence(EbstabError):
    """Minimum-norm iteration hit its cap; carries the best iterate found."""

    def __init__(self, point, residual: float, iterations: int):
        self.point = point
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"min-norm iteration did not certify after {iterations} steps "
            f"(residual {residual:.3e})"
        )


class NumericalOverflow(EbstabError):
    """A value left the range of a double (e.g. exp of a large argument)."""


class NoSlaterPoint(EbstabError):
    """No strictly feasible point was supplied or found in the search box."""


class NoSignChangeInBox(EbstabError):
    """Boundary sampling box contains no feasible/infeasible pair."""


class PreconditionError(EbstabError):
    """An operation's documented precondition does not hold."""


class ParseError(EbstabError):
    """Problem-file syntax or validation error with location info."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
