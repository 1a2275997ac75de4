"""Exception types shared across the package."""


class ShancodeError(Exception):
    """Base class for all package errors."""


class ValidationFailure(ShancodeError):
    """Source description failed validation and was rejected."""


class ZeroProbability(ShancodeError):
    """Logarithm of a structurally zero probability was requested."""


class ZeroPathProbability(ShancodeError):
    """An enumerated or supplied path crosses a zero-probability step."""

    def __init__(self, step, message=None):
        self.step = step
        super().__init__(message or f"path has zero probability at step {step}")


class ReducibleChain(ShancodeError):
    """Operation requires an irreducible transition structure."""


class ResourceLimit(ShancodeError):
    """Requested computation exceeds the configured resource bounds."""


class DefectiveMatrix(ShancodeError):
    """Eigen-decomposition could not be bi-orthogonally normalized."""


class ZeroIndex(ShancodeError):
    """Fourier coefficient requested at index 0; DC terms are handled separately."""
