"""Renyi divergences, max-divergence, and the operator inequalities that
drive the security analysis.

States are either plain PSD operators or classical-quantum (CQ) states,
stored block-diagonally: one subnormalized block per classical label.  A
``BlockOperator`` holds its blocks as one read-only ``(B, d, d)`` stack in
label order.  Support containment is enforced with an eigenvalue cutoff of
1e-10, and powers of the reference operator are taken on its support only.

Blockwise quantities work on block stacks: the blocks of a state, in label
order, as one ``(B, d, d)`` array, and a single reference operator as one
``(d, d)`` matrix that broadcasts across the blocks.  Each operator family
costs one batched ``eigh``/``eigvalsh``/``svd`` and one batched matmul
chain; a divergence's support check and its power of sigma share one
``eigh`` of the sigma stack.  The results equal those of a block-by-block
loop bit for bit: stacked LAPACK and BLAS calls run once per matrix, so
each block gets the bits a lone call gives; powers are taken element by
element; each block's eigenvalue powers are summed along the block's own
row, as a lone call sums them; and the block totals are then added one at
a time in label order with Python floats (``_label_order_sum``), since
``np.sum`` over eight or more blocks would add them pairwise, in another
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidOperatorError, SupportViolationError, check_domain
from .matrixcore import hermitian_eigh, pseudo_power, singular_value_norms
from .rates import uncertainty_exponent

SUPPORT_CUTOFF = 1e-10
INEQUALITY_SLACK = 1e-9  # float tolerance of the three operator inequalities


@dataclass(frozen=True)
class BlockOperator:
    """A labeled block-diagonal PSD operator: a CQ state, or a reference
    operator whose total weight may exceed 1 (for example a failure-weighted
    bounding operator).  The blocks are held as one read-only complex
    ``(B, d, d)`` stack in label order; only their shapes are checked.
    """

    labels: tuple
    blocks: np.ndarray = field(repr=False)  # (B, d, d) complex128

    def __post_init__(self):
        labels = tuple(self.labels)
        if len(self.blocks) == 0:
            raise ValueError("need at least one block")
        if len(labels) != len(self.blocks):
            raise ValueError("labels and blocks must align")
        try:
            stack = np.array(self.blocks, dtype=np.complex128)
        except ValueError:
            stack = None  # ragged
        if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("blocks must be square matrices of one shape")
        stack.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "blocks", stack)

    def trace(self) -> float:
        return _label_order_sum(np.trace(self.blocks, axis1=1, axis2=2).real)


def _label_order_sum(values) -> float:
    """Add per-block values one at a time, in label order."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def _block_stacks(rho, sigma):
    """rho and sigma as block stacks: (rho_stack, sigma_stack, Tr rho).

    rho_stack is (B, d, d) in label order; a plain operator is one block.
    sigma may be a BlockOperator with matching labels, giving a (B, d, d)
    stack, or a single operator (the identity-on-labels convention), kept
    as one (d, d) matrix that broadcasts across blocks.
    """
    if isinstance(rho, BlockOperator):
        if isinstance(sigma, BlockOperator):
            if sigma.labels != rho.labels:
                raise ValueError("label mismatch between the two states")
            sigma_stack = sigma.blocks
        else:
            sigma_stack = np.asarray(sigma, dtype=np.complex128)
        return rho.blocks, sigma_stack, rho.trace()
    r = np.asarray(rho, dtype=np.complex128)
    return r[None], np.asarray(sigma, dtype=np.complex128), float(r.trace().real)


def _check_support(rho_stack, w, u):
    """Raise unless every rho block is supported inside its sigma block,
    from the ``hermitian_eigh`` (w, u) of the sigma stack."""
    null = w <= SUPPORT_CUTOFF
    if not null.any():
        return
    # <u_i| rho |u_i> for every eigenvector u_i of every sigma block.
    # einsum's summation order follows the operands' layout; with u^H
    # contiguous it sums each overlap as the per-block code did
    uh = np.ascontiguousarray(u.conj().swapaxes(-1, -2))
    overlap = np.abs(np.einsum("...ij,...jk,...ki->...i", uh, rho_stack, u).real)
    worst = float(np.max(overlap, where=np.broadcast_to(null, overlap.shape),
                         initial=0.0))
    if worst > SUPPORT_CUTOFF:
        raise SupportViolationError(
            f"support violation: null-eigenvector overlap {worst:.3e}", worst)


def _clipped_spectra(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of M_+ for each matrix of a stack (..., d, d)."""
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))
    return np.where(w > 0.0, w, 0.0)


def _psd_trace_powers(m: np.ndarray, p: float) -> np.ndarray:
    """Tr(M_+^p) for each matrix of a stack (..., d, d), as an array."""
    return np.sum(_clipped_spectra(m)**p, axis=-1)


def renyi_divergence(rho, sigma, alpha: float) -> float:
    """Sandwiched Renyi divergence of order alpha in (1, 2].

    Accepts PSD operators or CQ states (sigma may broadcast across labels).
    Subnormalized inputs are handled with the 1/Tr(rho) convention.
    """
    if not 1 < alpha <= 2:
        raise ValueError(f"order must lie in (1, 2], got {alpha}")
    rs, ss, tr = _block_stacks(rho, sigma)
    if tr <= 0:
        raise ValueError("state must have positive trace")
    eig = hermitian_eigh(ss)
    _check_support(rs, *eig)
    spow = pseudo_power(ss, (1.0 - alpha) / (2.0 * alpha),
                        cutoff=SUPPORT_CUTOFF, eig=eig)
    total = _label_order_sum(_psd_trace_powers(spow @ rs @ spow, alpha))
    return float((np.log2(total) - np.log2(tr)) / (alpha - 1.0))


def dmax(rho, sigma) -> float:
    """Max-divergence: log of the smallest c with rho <= c * sigma."""
    rs, ss, _ = _block_stacks(rho, sigma)
    eig = hermitian_eigh(ss)
    _check_support(rs, *eig)
    sinv = pseudo_power(ss, -0.5, cutoff=SUPPORT_CUTOFF, eig=eig)
    worst = max(0.0, float(np.linalg.eigvalsh(sinv @ rs @ sinv)[:, -1].max()))
    if worst <= 0:
        return -np.inf
    return float(np.log2(worst))


@dataclass(frozen=True)
class MeasurementInstance:
    """The four conditional operators of a qubit measurement on the far side
    of an arbitrary correlation.

    Built from a matrix mapping the input space into (environment x qubit);
    the computational and diagonal splits both add back to the full state.
    """

    Z: np.ndarray
    rho: np.ndarray
    rho0: np.ndarray
    rho1: np.ndarray
    rho_plus: np.ndarray
    rho_minus: np.ndarray

    @cached_property
    def spectra(self) -> np.ndarray:
        """The clipped spectra of (rho, rho1, rho_plus, rho_minus), one row
        each: every exponent of :func:`uncertainty_check` reads these."""
        return _clipped_spectra(np.array((self.rho, self.rho1, self.rho_plus,
                                          self.rho_minus)))


def measurement_split(Z) -> MeasurementInstance:
    """Split a correlation matrix into its four conditional operators."""
    Z = np.asarray(Z, dtype=np.complex128)
    if Z.ndim != 2 or Z.shape[0] % 2 != 0:
        raise ValueError(
            f"matrix must map into (environment x qubit); got shape {Z.shape}")
    x = Z[0::2, :]
    y = Z[1::2, :]
    rho = Z.conj().T @ Z
    rho0 = x.conj().T @ x
    rho1 = y.conj().T @ y
    plus = (x + y) / np.sqrt(2.0)
    minus = (x - y) / np.sqrt(2.0)
    return MeasurementInstance(
        Z=Z, rho=rho, rho0=rho0, rho1=rho1,
        rho_plus=plus.conj().T @ plus, rho_minus=minus.conj().T @ minus,
    )


@dataclass(frozen=True)
class UncertaintyCheck:
    delta: float
    lhs_ratio: float
    rhs: float
    holds: bool


def uncertainty_check(inst: MeasurementInstance, epsilon: float) -> UncertaintyCheck:
    """Verify the one-round uncertainty inequality on a measurement instance.

    delta is the relative weight of the 1-outcome under the (1+eps)-power
    trace; the diagonal-basis powers must fall below 2**(-eps * Pi(eps, delta))
    relative to the full state's power trace.
    """
    check_domain("epsilon", epsilon, "eps")
    denom, one, plus, minus = np.sum(inst.spectra**(1.0 + epsilon),
                                     axis=-1).tolist()
    if denom <= 0:
        raise ValueError("state must have positive trace")
    delta = one / denom
    lhs = (plus + minus) / denom
    rhs = 2.0 ** (-epsilon * float(uncertainty_exponent(epsilon, min(max(delta, 0.0), 1.0))))
    return UncertaintyCheck(delta=float(delta), lhs_ratio=float(lhs), rhs=float(rhs),
                            holds=bool(lhs <= rhs + INEQUALITY_SLACK))


@dataclass(frozen=True)
class SchattenCheck:
    lhs: float
    rhs: float
    holds: bool


def schatten_ineq_check(X, Y, p: float) -> SchattenCheck:
    """Two-sided p-norm inequality for p >= 2: the power sum of the rotated
    pair (X+-Y)/sqrt(2) against the dual-exponent combination of the norms.

    p must be finite; a p whose power sums overflow is rejected rather
    than judged from an infinite or nan side.  The singular values do not
    depend on p, so the checks of one pair at several p share one ``svd``
    (:func:`_pair_singular_values`)."""
    X = np.asarray(X, dtype=np.complex128)
    Y = np.asarray(Y, dtype=np.complex128)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    check_domain("p", p, "schatten_p")
    if X.ndim != 2:
        raise InvalidOperatorError(f"expected a matrix, got shape {X.shape}")
    pprime = 1.0 / (1.0 - 1.0 / p)
    with np.errstate(over="ignore"):  # an overflow is rejected below
        plus, minus, nx, ny = singular_value_norms(
            _pair_singular_values(X.shape, X.tobytes(), Y.tobytes()), p).tolist()
    try:
        lhs = plus**p + minus**p
        rhs = 2.0 ** (1.0 - p / 2.0) * (nx**pprime + ny**pprime) ** (p / pprime)
    except OverflowError:  # a float ** past the largest float
        lhs = rhs = math.inf
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"p overflows the power sums of this pair, got {p}")
    return SchattenCheck(lhs=float(lhs), rhs=float(rhs),
                         holds=bool(lhs <= rhs + INEQUALITY_SLACK))


@lru_cache(maxsize=1)
def _pair_singular_values(shape, x_bytes, y_bytes) -> np.ndarray:
    """The singular values of (X+Y)/sqrt(2), (X-Y)/sqrt(2), X and Y, one
    row each (read-only), from one stacked ``svd``.  The memo holds the
    last pair, keyed on its shape and bytes, so a pair changed in place
    is taken again."""
    X, Y = (np.frombuffer(b, dtype=np.complex128).reshape(shape)
            for b in (x_bytes, y_bytes))
    s = np.linalg.svd(np.array(((X + Y) / np.sqrt(2.0), (X - Y) / np.sqrt(2.0),
                                X, Y)), compute_uv=False)
    s.setflags(write=False)
    return s


def pinching_channel(dims) -> "callable":
    """Projective pinching onto consecutive blocks of the given sizes."""
    total = int(np.sum(dims))
    projs = []
    start = 0
    for d in dims:
        p = np.zeros((total, total))
        p[start:start + d, start:start + d] = np.eye(d)
        projs.append(p)
        start += d

    def apply(m):
        m = np.asarray(m, dtype=np.complex128)
        return sum(p @ m @ p for p in projs)

    return apply
