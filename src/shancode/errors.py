"""Exception types shared across the package."""


class ShancodeError(Exception):
    """Base class for all package errors."""


class ValidationFailure(ShancodeError):
    """Source description failed validation and was rejected."""


class ZeroProbability(ShancodeError):
    """Logarithm of a structurally zero probability was requested."""


class ReducibleChain(ShancodeError):
    """Operation requires an irreducible transition structure."""


class ResourceLimit(ShancodeError):
    """Requested computation exceeds the configured resource bounds."""


class DefectiveMatrix(ShancodeError):
    """Eigen-decomposition could not be bi-orthogonally normalized."""
