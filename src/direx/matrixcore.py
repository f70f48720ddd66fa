"""Dense complex linear algebra kernels for small operators.

Two thin layers over numpy's solvers: fractional operator powers (the one
eigenbasis rebuild of the package, which can reuse a decomposition the
caller has taken) and Schatten norms.  Every function is pure, so values
can be shared freely across concurrent trials.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidOperatorError

HERMITIAN_ATOL = 1e-12  # the Hermitian tolerance of operator checks


def pseudo_power(entries: np.ndarray, p: float, cutoff: float = 1e-10,
                 eig: tuple = None) -> np.ndarray:
    """Power of the Hermitian part of a matrix, restricted to its support.

    The one eigendecomposition rebuild of the package.  Eigenvalues at or
    below ``cutoff`` map to zero, which makes negative powers act as
    pseudo-inverse powers; with ``cutoff=0`` and ``p=1`` it is the positive
    part.  Returns a raw ndarray since callers compose the result
    immediately.  A caller that reads the spectrum too passes
    ``eig = hermitian_eigh(entries)``, which is then not taken again.

    ``entries`` may be a stack ``(..., d, d)``; each matrix then gets the
    bits a call on it alone gives, because the stacked ``eigh`` and
    ``matmul`` run LAPACK and BLAS once per matrix and the power is taken
    element by element.
    """
    w, u = hermitian_eigh(entries) if eig is None else eig
    wp = np.where(w > cutoff, w, 1.0) ** p
    wp = np.where(w > cutoff, wp, 0.0)
    return (u * wp[..., None, :]) @ u.conj().swapaxes(-1, -2)


def hermitian_eigh(entries: np.ndarray) -> tuple:
    """``eigh`` of the Hermitian part (M + M^H)/2 of a matrix or a stack
    (..., d, d): the decomposition :func:`pseudo_power` rebuilds."""
    m = np.asarray(entries)
    return np.linalg.eigh(
        0.5 * (np.asarray(m, dtype=np.complex128) + m.conj().swapaxes(-1, -2)))


def schatten_norm(a, p: float):
    """Schatten p-norm, ``(sum of singular values**p)**(1/p)``.

    ``p`` must be at least 1; ``p = inf`` gives the operator norm, the
    first singular value of one ``svd``: ``np.linalg.norm(a, 2)`` bit for
    bit on complex matrices, at about half its cost on a 2x2.  A
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
    norms = singular_value_norms(np.linalg.svd(a, compute_uv=False), p)
    return float(norms) if a.ndim == 2 else norms


def singular_value_norms(s: np.ndarray, p: float) -> np.ndarray:
    """The Schatten p-norms of matrices from their singular values, one row
    (..., k) per matrix: :func:`schatten_norm` after its ``svd``, for a
    caller that reads one spectrum at several p."""
    if np.isinf(p):
        return s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    # the root is a scalar ** per norm: numpy's array power can round
    # differently
    totals = np.sum(s**p, axis=-1).reshape(-1)
    return np.array([t ** (1.0 / p) for t in totals]).reshape(s.shape[:-1])
