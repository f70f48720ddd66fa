"""Exception types shared across the toolkit, and the one table of input
domains that every range check reads."""

import numpy as np

_FLOAT_MAX = float(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)  # the least normal float

# quantity -> (predicate, text).  Every predicate fails nan, +-inf and an
# integer past the largest float, and works elementwise on numpy arrays,
# so the rate lanes check whole arrays.
DOMAINS = {
    "q": (lambda x: (0 < x) & (x < 1), "must lie in (0, 1)"),
    # the trust bound v is at most 1, so a tolerance must lie below 1/2
    "eta": (lambda x: (0 < x) & (x < 0.5), "must lie in (0, 1/2)"),
    "kappa": (lambda x: (0 < x) & (x <= _FLOAT_MAX),
              "must be positive and finite"),
    "nonnegative": (lambda x: (0 <= x) & (x <= _FLOAT_MAX),
                    "must be finite and nonnegative"),
    "count": (lambda x: (1 <= x) & (x <= _FLOAT_MAX),
              "must be finite and at least 1"),
    "probability": (lambda x: (0 <= x) & (x <= 1), "must lie in [0, 1]"),
    # the exponent of the two-sided Schatten inequality; p = inf gave a
    # nan right-hand side, 2**(1 - p/2) * inf
    "schatten_p": (lambda x: (2 <= x) & (x <= _FLOAT_MAX),
                   "must be finite and at least 2"),
    # the order parameter of rates.uncertainty_exponent, and the rate
    # lanes' gamma = r q kappa: (1 + 2 eps) / eps overflows for a subnormal
    # eps, and a subnormal gamma loses bits and turns the rate nan
    "eps": (lambda x: (_TINY <= x) & (x <= 1),
            f"must lie in [{_TINY!r}, 1], the normal floats up to 1"),
    # 2**-x is a positive float exactly below x = 1075
    "epsilon_exp": (lambda x: (-0.5 <= x) & (x < 1075),
                    "must lie in [-0.5, 1075) (epsilon = 2**-value in "
                    "(0, sqrt 2])"),
    # the hash length ceil(log2(2L/eps)) overflows a float above ~1017
    "eps_exp": (lambda x: (0 <= x) & (x <= 1000),
                "must lie in [0, 1000] (failure budget 2**-value)"),
}


def check_domain(name: str, value, quantity: str) -> None:
    """Raise ``ValueError(f"{name} {text}, got {value}")`` unless value (a
    scalar or an array, every element) lies in the domain of quantity; an
    array's message quotes its first element outside."""
    test, text = DOMAINS[quantity]
    inside = test(value)
    # a Python scalar gives a bool; np.all on it alone costs ~3 us a check
    if not (inside if isinstance(inside, bool) else np.all(inside)):
        if np.ndim(inside):
            value = np.asarray(value)[~inside][0]
        raise ValueError(f"{name} {text}, got {value}")


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
