"""Dense complex linear algebra kernel for small operators (dimension <= 64).

Everything here is a thin, validated layer over numpy's eigensolvers:
Hermitian and PSD operators, fractional operator powers and Schatten
norms.  Operators are immutable after construction and all functions are
pure, so values can be shared freely across concurrent trials.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidOperatorError

DIM_CAP = 64
HERMITIAN_ATOL = 1e-12
PSD_EIG_FLOOR = -1e-10


def hermitian_entries(a: np.ndarray) -> np.ndarray:
    """A complex square matrix, or a stack ``(..., d, d)`` of them, checked
    and returned as validated Hermitian entries.

    The dimension must lie in [1, 64] and every matrix must equal its
    adjoint within HERMITIAN_ATOL; the result is the read-only
    ``0.5 * (A + A^dag)``, element by element.
    """
    d = a.shape[-1]
    if d < 1 or d > DIM_CAP:
        raise InvalidOperatorError(
            f"dimension {d} outside supported range [1, {DIM_CAP}]")
    ah = a.conj().swapaxes(-1, -2)
    if not np.allclose(a, ah, rtol=0.0, atol=HERMITIAN_ATOL):
        worst = float(np.max(np.abs(a - ah)))
        raise InvalidOperatorError(
            f"matrix is not Hermitian (max |A - A^dag| = {worst:.3e})")
    out = 0.5 * (a + ah)
    out.setflags(write=False)
    return out


def check_psd(a: np.ndarray) -> None:
    """Raise unless the Hermitian matrix ``a``, or each matrix of a stack,
    is PSD up to the scaled eigenvalue floor of PsdOperator (one
    ``eigvalsh`` call for the whole stack)."""
    w = np.linalg.eigvalsh(a)
    lo = w[..., 0]
    bad = lo < PSD_EIG_FLOOR * np.maximum(np.maximum(1.0, -lo), w[..., -1])
    if np.any(bad):
        raise InvalidOperatorError(
            f"matrix is not PSD (smallest eigenvalue {float(lo[bad][0]):.3e})")


@dataclass(frozen=True)
class HermitianOperator:
    """A validated Hermitian matrix of dimension at most 64."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidOperatorError(f"expected a square matrix, got shape {a.shape}")
        object.__setattr__(self, "entries", hermitian_entries(a))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(self.entries.trace().real)


@dataclass(frozen=True)
class PsdOperator(HermitianOperator):
    """A positive semidefinite Hermitian operator.

    Eigenvalues in [-1e-10 * max(1, ||A||), 0) are treated as numerical
    noise and clamped to zero by :func:`matrix_power`; anything more
    negative is rejected at construction.  The floor scales with the
    spectral norm because an eigensolver's rounding does: a zero eigenvalue
    next to an eigenvalue of 1e9 comes back as about -1e-7.
    """

    def __post_init__(self):
        super().__post_init__()
        check_psd(self.entries)

    @classmethod
    def from_array(cls, entries) -> "PsdOperator":
        return cls(entries)


def as_matrix(a, dtype=None) -> np.ndarray:
    """The entries of an operator, or ``a`` as an array of ``dtype``.

    Operator entries come back as stored (complex128); ``dtype=None`` keeps
    a real array real, and with it numpy's real eigensolver path.
    """
    if isinstance(a, HermitianOperator):
        return a.entries
    return np.asarray(a, dtype=dtype)


def matrix_power(a: PsdOperator, p: float) -> PsdOperator:
    """Raise a PSD operator to a positive real power in its eigenbasis.

    Zero eigenvalues map to zero for every ``p > 0`` (the convention
    ``0**p = 0``); the small negative eigenvalues PsdOperator tolerates
    are clamped to zero first.
    """
    if not isinstance(a, PsdOperator):
        a = PsdOperator.from_array(a)
    if not p > 0:
        raise ValueError(f"power must be positive, got {p}")
    out = pseudo_power(a.entries, p, cutoff=0.0)
    # the rebuild is Hermitian only up to rounding, which can exceed the
    # absolute tolerance HermitianOperator checks for large eigenvalues
    return PsdOperator(0.5 * (out + out.conj().T))


def pseudo_power(entries: np.ndarray, p: float, cutoff: float = 1e-10) -> np.ndarray:
    """Power of the Hermitian part of a matrix, restricted to its support.

    The one eigendecomposition rebuild of the package.  Eigenvalues at or
    below ``cutoff`` map to zero, which makes negative powers act as
    pseudo-inverse powers; with ``cutoff=0`` and ``p=1`` it is the positive
    part.  Returns a raw ndarray since callers compose the result
    immediately.

    ``entries`` may be a stack ``(..., d, d)``; each matrix then gets the
    bits a call on it alone gives, because the stacked ``eigh`` and
    ``matmul`` run LAPACK and BLAS once per matrix and the power is taken
    element by element.
    """
    m = np.asarray(entries)
    a = 0.5 * (np.asarray(m, dtype=np.complex128) + m.conj().swapaxes(-1, -2))
    w, u = np.linalg.eigh(a)
    wp = np.where(w > cutoff, w, 1.0) ** p
    wp = np.where(w > cutoff, wp, 0.0)
    return (u * wp[..., None, :]) @ u.conj().swapaxes(-1, -2)


def schatten_norm(a, p: float):
    """Schatten p-norm, ``(sum of singular values**p)**(1/p)``.

    ``p`` must be at least 1; ``p = inf`` gives the operator norm.  A
    matrix gives a float; a stack ``(k, m, n)`` gives the k norms as an
    array, each equal to the norm of its matrix alone (one ``svd`` call,
    each matrix's power sum along its own row, the root taken per norm as
    a scalar).
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim not in (2, 3):
        raise InvalidOperatorError(
            f"expected a matrix or a stack of matrices, got shape {a.shape}")
    if not (p >= 1):
        raise ValueError(f"Schatten norm requires p >= 1, got {p}")
    s = np.linalg.svd(a, compute_uv=False)
    if np.isinf(p):
        norms = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    else:
        # the root is a scalar ** per norm: numpy's array power can round
        # differently
        totals = np.sum(s**p, axis=-1).reshape(-1)
        norms = np.array([t ** (1.0 / p) for t in totals]).reshape(s.shape[:-1])
    return float(norms) if a.ndim == 2 else norms
