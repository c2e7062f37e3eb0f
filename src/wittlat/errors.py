"""Exception types shared across the package."""


class BoundError(ValueError):
    """A parameter exceeds its bound in field.BOUNDS."""


class RingMismatchError(ValueError):
    """Operands belong to different Witt rings."""


class NotAUnitError(ValueError):
    """Inversion was requested for a non-unit."""


class ShapeError(ValueError):
    """Matrix dimensions are incompatible with the requested operation."""


class ParameterMismatchError(ValueError):
    """Ring length N does not match the stratification parameters (N = nr+1)."""


class NotInCoverError(ValueError):
    """The matrix determinant does not have valuation exactly nr."""


class CodecUnsupportedError(ValueError):
    """The integer codec is only defined for prime fields (m = 1)."""
