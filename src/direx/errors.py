"""Exception types shared across the toolkit."""


class DirexError(Exception):
    """Base class for all toolkit errors."""


class InvalidOperatorError(DirexError, ValueError):
    """An operator violates a structural requirement (shape, Hermiticity, PSD)."""


class SupportViolationError(DirexError, ValueError):
    """support(rho) is not contained in support(sigma).

    Attributes
    ----------
    overlap : float
        Largest overlap of rho with a null eigenvector of sigma.
    """

    def __init__(self, msg, overlap):
        super().__init__(msg)
        self.overlap = overlap


class DecodeFailureError(DirexError):
    """No error vector exists within the decoding radius."""


class ListOverflowError(DirexError):
    """A list decoding exceeded the configured list size cap."""


class InfeasibleError(DirexError, ValueError):
    """No parameter assignment satisfies the requested constraints."""
