"""Renyi divergences, max-divergence, smoothing, and the operator
inequalities that drive the security analysis.

States are either plain PSD operators or classical-quantum (CQ) states,
stored block-diagonally: one subnormalized block per classical label.  A
``BlockOperator`` holds its blocks as one read-only ``(B, d, d)`` stack in
label order; a ``CqState`` is a ``BlockOperator`` whose stack is checked
as a state once, on the whole stack (Hermitian, PSD, total trace at most
1).  Support containment is enforced with an eigenvalue cutoff of 1e-10,
and powers of the reference operator are taken on its support only.

Blockwise quantities work on block stacks: the blocks of a state, in label
order, as one ``(B, d, d)`` array, and a single reference operator as one
``(d, d)`` matrix that broadcasts across the blocks.  Each operator family
costs one batched ``eigh``/``eigvalsh``/``svd`` and one batched matmul
chain.  The results equal those of a block-by-block loop bit for bit:
stacked LAPACK and BLAS calls run once per matrix, so each block gets the
bits a lone call gives; powers are taken element by element; each block's
eigenvalue powers are summed along the block's own row, as a lone call
sums them; and the block totals are then added one at a time in label
order with Python floats (``_label_order_sum``), since ``np.sum`` over
eight or more blocks would add them pairwise, in another order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidOperatorError, SupportViolationError
from .matrixcore import as_matrix, check_psd, hermitian_entries, pseudo_power
from .rates import uncertainty_exponent

SUPPORT_CUTOFF = 1e-10


@dataclass(frozen=True)
class BlockOperator:
    """A labeled block-diagonal PSD operator without the state-trace cap.

    Used for reference operators whose total weight exceeds 1 (for example
    failure-weighted bounding operators).  The blocks are held as one
    read-only complex ``(B, d, d)`` stack in label order.
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


@dataclass(frozen=True)
class CqState(BlockOperator):
    """Block-diagonal classical-quantum subnormalized state.

    The stack is validated as a whole: Hermitian within 1e-12 and then
    symmetrised, dimension at most 64, PSD up to the scaled eigenvalue
    floor of PsdOperator (one batched ``eigvalsh``), and total trace in
    [0, 1].
    """

    def __post_init__(self):
        super().__post_init__()
        blocks = hermitian_entries(self.blocks)
        check_psd(blocks)
        object.__setattr__(self, "blocks", blocks)
        total = self.trace()
        if not -1e-12 <= total <= 1.0 + 1e-9:
            raise ValueError(f"total trace {total} outside [0, 1]")


def _label_order_sum(values) -> float:
    """Add per-block values one at a time, in label order."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def _block_stacks(rho, sigma):
    """rho and sigma as block stacks: (rho_stack, sigma_stack, Tr rho).

    rho_stack is (B, d, d) in label order; a plain operator is one block.
    sigma may be a BlockOperator (a CqState included) with matching labels,
    giving a (B, d, d) stack, or a single operator (the identity-on-labels
    convention), kept as one (d, d) matrix that broadcasts across blocks.
    """
    if isinstance(rho, BlockOperator):
        if isinstance(sigma, BlockOperator):
            if sigma.labels != rho.labels:
                raise ValueError("label mismatch between the two states")
            sigma_stack = sigma.blocks
        else:
            sigma_stack = as_matrix(sigma, np.complex128)
        return rho.blocks, sigma_stack, rho.trace()
    r = as_matrix(rho, np.complex128)
    return r[None], as_matrix(sigma, np.complex128), float(r.trace().real)


def _check_support(rho_stack, sigma_stack, cutoff=SUPPORT_CUTOFF):
    """Raise unless every rho block is supported inside its sigma block."""
    w, u = np.linalg.eigh(0.5 * (sigma_stack + sigma_stack.conj().swapaxes(-1, -2)))
    null = w <= cutoff
    if not null.any():
        return
    # <u_i| rho |u_i> for every eigenvector u_i of every sigma block.
    # einsum's summation order follows the operands' layout; with u^H
    # contiguous it sums each overlap as the per-block code did
    uh = np.ascontiguousarray(u.conj().swapaxes(-1, -2))
    overlap = np.abs(np.einsum("...ij,...jk,...ki->...i", uh, rho_stack, u).real)
    worst = float(np.max(overlap, where=np.broadcast_to(null, overlap.shape),
                         initial=0.0))
    if worst > cutoff:
        raise SupportViolationError(
            f"support violation: null-eigenvector overlap {worst:.3e}", worst)


def _psd_trace_powers(m: np.ndarray, p: float) -> np.ndarray:
    """Tr(M_+^p) for each matrix of a stack (..., d, d), as an array."""
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().swapaxes(-1, -2)))
    w = np.where(w > 0.0, w, 0.0)
    return np.sum(w**p, axis=-1)


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
    _check_support(rs, ss)
    spow = pseudo_power(ss, (1.0 - alpha) / (2.0 * alpha), cutoff=SUPPORT_CUTOFF)
    total = _label_order_sum(_psd_trace_powers(spow @ rs @ spow, alpha))
    return float((np.log2(total) - np.log2(tr)) / (alpha - 1.0))


def dmax(rho, sigma) -> float:
    """Max-divergence: log of the smallest c with rho <= c * sigma."""
    rs, ss, _ = _block_stacks(rho, sigma)
    _check_support(rs, ss)
    sinv = pseudo_power(ss, -0.5, cutoff=SUPPORT_CUTOFF)
    worst = max(0.0, float(np.linalg.eigvalsh(sinv @ rs @ sinv)[:, -1].max()))
    if worst <= 0:
        return -np.inf
    return float(np.log2(worst))


def trace_distance(rho, other) -> float:
    """Trace norm of the difference; blockwise for block operators, the
    block norms added in label order."""
    rs, os_, _ = _block_stacks(rho, other)
    return _label_order_sum(np.abs(np.linalg.eigvalsh(rs - os_)).sum(axis=-1))


def smooth_from_renyi(rho: CqState, sigma, alpha: float, epsilon: float):
    """Smooth a CQ state down below a scaled reference operator.

    Returns (rho_smoothed, bound) where bound = D_alpha(rho||sigma) +
    (2 log(1/eps) + 1)/(alpha - 1); the smoothed state satisfies
    rho' <= 2**bound * sigma, stays classical-quantum, and is within eps
    trace distance of rho.  Construction: with Delta the positive part of
    (rho - 2**bound sigma), conjugate rho by
    sigma~^(1/2) (sigma~ + Delta)^(-1/2) blockwise.
    """
    if not 1 < alpha <= 2:
        raise ValueError(f"order must lie in (1, 2], got {alpha}")
    if not 0 < epsilon <= np.sqrt(2.0) + 1e-12:
        raise ValueError(f"smoothing parameter must lie in (0, sqrt(2)], got {epsilon}")
    base = renyi_divergence(rho, sigma, alpha)
    bound = base + (2.0 * np.log2(1.0 / epsilon) + 1.0) / (alpha - 1.0)
    rs, ss, _ = _block_stacks(rho, sigma)
    st = 2.0**bound * ss
    delta = pseudo_power(rs - st, 1.0, cutoff=0.0)
    g = (pseudo_power(st, 0.5, cutoff=0.0)
         @ pseudo_power(st + delta, -0.5, cutoff=1e-14))
    # numerical floor: clip eigenvalues a hair below zero back up
    smoothed = pseudo_power(g @ rs @ g.conj().swapaxes(-1, -2), 1.0, cutoff=0.0)
    return CqState(rho.labels, smoothed), float(bound)


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


def uncertainty_check(inst: MeasurementInstance, epsilon: float,
                      slack: float = 1e-9) -> UncertaintyCheck:
    """Verify the one-round uncertainty inequality on a measurement instance.

    delta is the relative weight of the 1-outcome under the (1+eps)-power
    trace; the diagonal-basis powers must fall below 2**(-eps * Pi(eps, delta))
    relative to the full state's power trace.
    """
    if not 0 < epsilon <= 1:
        raise ValueError(f"exponent must lie in (0, 1], got {epsilon}")
    denom, one, plus, minus = _psd_trace_powers(
        np.stack((inst.rho, inst.rho1, inst.rho_plus, inst.rho_minus)),
        1.0 + epsilon).tolist()
    if denom <= 0:
        raise ValueError("state must have positive trace")
    delta = one / denom
    lhs = (plus + minus) / denom
    rhs = 2.0 ** (-epsilon * float(uncertainty_exponent(epsilon, min(max(delta, 0.0), 1.0))))
    return UncertaintyCheck(delta=float(delta), lhs_ratio=float(lhs), rhs=float(rhs),
                            holds=bool(lhs <= rhs + slack))


@dataclass(frozen=True)
class SchattenCheck:
    lhs: float
    rhs: float
    holds: bool


def schatten_ineq_check(X, Y, p: float, slack: float = 1e-9) -> SchattenCheck:
    """Two-sided p-norm inequality for p >= 2: the power sum of the rotated
    pair (X+-Y)/sqrt(2) against the dual-exponent combination of the norms."""
    from .matrixcore import schatten_norm

    X = np.asarray(X, dtype=np.complex128)
    Y = np.asarray(Y, dtype=np.complex128)
    if X.shape != Y.shape:
        raise ValueError(f"shape mismatch: {X.shape} vs {Y.shape}")
    if not p >= 2:
        raise ValueError(f"requires p >= 2, got {p}")
    if X.ndim != 2:
        raise InvalidOperatorError(f"expected a matrix, got shape {X.shape}")
    pprime = 1.0 / (1.0 - 1.0 / p)
    plus, minus, nx, ny = schatten_norm(
        np.stack(((X + Y) / np.sqrt(2.0), (X - Y) / np.sqrt(2.0), X, Y)),
        p).tolist()
    lhs = plus**p + minus**p
    rhs = 2.0 ** (1.0 - p / 2.0) * (nx**pprime + ny**pprime) ** (p / pprime)
    return SchattenCheck(lhs=float(lhs), rhs=float(rhs),
                         holds=bool(lhs <= rhs + slack))


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
