"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An adaptive rule or series failed to reach the requested tolerance.

    ``index``, when not None, is the flat position of the failing point
    in an array the call worked on.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class InvalidDilatationError(ValueError):
    """A dilatation value with modulus >= 1 was detected on the disk."""


class UnsupportedDomainError(DomainError):
    """No available representation covers the requested arguments.

    Raised by special.appell_f1 instead of silently extrapolating.
    """


class UnsupportedParameterError(ValueError):
    """Family parameters fall in an excluded (singular) neighborhood."""


class DilatationNotSquareError(ValueError):
    """Surface lift requested for a dilatation that is not a perfect square
    of a single-valued analytic function (odd power)."""
