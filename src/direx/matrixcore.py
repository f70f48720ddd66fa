"""Dense complex linear algebra kernels for small operators.

Two thin layers over numpy's solvers: fractional operator powers (the one
eigenbasis rebuild of the package) and Schatten norms.  Both functions are
pure, so values can be shared freely across concurrent trials.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidOperatorError

HERMITIAN_ATOL = 1e-12  # the Hermitian tolerance of operator checks


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
