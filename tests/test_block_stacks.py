"""Block stacks against the block-by-block code they replaced.

The exact layer (pseudo_power, the divergences, the inequality checks,
exact_small_run and the validation of CQ states) works on (B, d, d)
stacks.  Each reference below is the per-block code that the stacked code
replaced, kept as a test-only copy; the stacked code must equal it by ==
and np.array_equal, not approximately.
"""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx.devices import random_partially_trusted
from direx.entropy import (
    SUPPORT_CUTOFF,
    BlockOperator,
    CqState,
    dmax,
    measurement_split,
    renyi_divergence,
    schatten_ineq_check,
    smooth_from_renyi,
    trace_distance,
    uncertainty_check,
)
from direx.errors import InvalidOperatorError, SupportViolationError
from direx.matrixcore import pseudo_power
from direx.protocols import conditional_environment_states, exact_small_run
from direx.rates import uncertainty_exponent, worst_case_rate

# ---------------------------------------------------------------------------
# test-only references: the per-block code


def reference_pseudo_power(m, p, cutoff):
    a = 0.5 * (np.asarray(m, dtype=np.complex128) + np.asarray(m).conj().T)
    w, u = np.linalg.eigh(a)
    wp = np.where(w > cutoff, w, 1.0) ** p
    wp = np.where(w > cutoff, wp, 0.0)
    return (u * wp) @ u.conj().T


def reference_check_support(pairs):
    worst = 0.0
    for rb, sb in pairs:
        w, u = np.linalg.eigh(0.5 * (sb + sb.conj().T))
        null = u[:, w <= SUPPORT_CUTOFF]
        if null.shape[1] == 0:
            continue
        overlap = float(np.max(np.abs(np.einsum("ij,jk,ki->i",
                                                null.conj().T, rb, null).real)))
        worst = max(worst, overlap)
    if worst > SUPPORT_CUTOFF:
        raise SupportViolationError(
            f"support violation: null-eigenvector overlap {worst:.3e}", worst)


def reference_trace_power(m, p):
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    w = np.where(w > 0.0, w, 0.0)
    return float(np.sum(w**p))


def reference_renyi(pairs, tr, alpha):
    reference_check_support(pairs)
    expo = (1.0 - alpha) / (2.0 * alpha)
    total = 0.0
    for rb, sb in pairs:
        spow = reference_pseudo_power(sb, expo, SUPPORT_CUTOFF)
        total += reference_trace_power(spow @ rb @ spow, alpha)
    return float((np.log2(total) - np.log2(tr)) / (alpha - 1.0))


def reference_dmax(pairs):
    reference_check_support(pairs)
    worst = 0.0
    for rb, sb in pairs:
        sinv = reference_pseudo_power(sb, -0.5, SUPPORT_CUTOFF)
        worst = max(worst, float(np.linalg.eigvalsh(sinv @ rb @ sinv)[-1]))
    return -np.inf if worst <= 0 else float(np.log2(worst))


def reference_block_trace(blocks):
    return float(sum(np.asarray(b).trace().real for b in blocks))


def reference_psd_block(a):
    """One block through the per-block PsdOperator checks: square, dimension
    in [1, 64], Hermitian within 1e-12, then symmetrised, PSD up to the
    floor -1e-10 * max(1, -lo, hi) with its own eigvalsh."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidOperatorError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= a.shape[0] <= 64:
        raise InvalidOperatorError(f"dimension {a.shape[0]} outside [1, 64]")
    if not np.allclose(a, a.conj().T, rtol=0.0, atol=1e-12):
        raise InvalidOperatorError("matrix is not Hermitian")
    a = 0.5 * (a + a.conj().T)
    w = np.linalg.eigvalsh(a)
    lo = float(w[0])
    if lo < -1e-10 * max(1.0, -lo, float(w[-1])):
        raise InvalidOperatorError(f"matrix is not PSD (smallest eigenvalue {lo:.3e})")
    return a


class ReferenceCqState:
    """The CQ state as a tuple of separately validated blocks, with the
    state checks made after every block is built."""

    def __init__(self, labels, arrays):
        self.labels = tuple(labels)
        self.blocks = tuple(reference_psd_block(a) for a in arrays)
        if len(self.labels) != len(self.blocks):
            raise ValueError("labels and blocks must align")
        if not self.blocks:
            raise ValueError("need at least one block")
        if len({b.shape for b in self.blocks}) != 1:
            raise ValueError("blocks must share a dimension")
        total = self.trace()
        if not -1e-12 <= total <= 1.0 + 1e-9:
            raise ValueError(f"total trace {total} outside [0, 1]")

    def trace(self):
        return float(sum(float(b.trace().real) for b in self.blocks))


def reference_trace_distance(a, b):
    return float(sum(np.abs(np.linalg.eigvalsh(x - y)).sum()
                     for x, y in zip(a.blocks, b.blocks)))


def reference_smooth(rho, sigma_blocks, alpha, epsilon):
    pairs = list(zip(rho.blocks, sigma_blocks))
    base = reference_renyi(pairs, rho.trace(), alpha)
    bound = base + (2.0 * np.log2(1.0 / epsilon) + 1.0) / (alpha - 1.0)
    smoothed = []
    for rb, sb in pairs:
        st_ = 2.0**bound * sb
        delta = reference_pseudo_power(rb - st_, 1.0, 0.0)
        g = (reference_pseudo_power(st_, 0.5, 0.0)
             @ reference_pseudo_power(st_ + delta, -0.5, 1e-14))
        smoothed.append(reference_pseudo_power(g @ rb @ g.conj().T, 1.0, 0.0))
    return ReferenceCqState(rho.labels, smoothed), float(bound)


def outcome(fn):
    """("ok", value), or the error's type for a call that raises."""
    try:
        return "ok", fn()
    except ValueError as err:
        return type(err), None


def reference_trace_out(rho, dq, de):
    return np.einsum("iaib->ab", rho.reshape(dq, de, dq, de))


def reference_exact_small_run(N, behavior, q, kappa, r):
    """The branch-by-branch execution, as (lhs, rhs, labels, gamma blocks,
    sigma blocks, environment state)."""
    dq, de = behavior.device_dim, behavior.env_dim
    gamma = r * q * kappa
    psi = behavior.state
    env_eye = np.eye(de)
    kraus = {g: [(w, np.kron(k0, env_eye), np.kron(k1, env_eye))
                 for w, k0, k1, _ in behavior.kraus_for(g)]
             for g in (0, 1)}
    g_weight = {0: 1.0 - q, 1: q}
    branches = {(): np.outer(psi, psi.conj())}
    for _ in range(N):
        nxt = {}
        for hist, rho in branches.items():
            for g in (0, 1):
                outs = {0: np.zeros_like(rho), 1: np.zeros_like(rho)}
                for w, k0, k1 in kraus[g]:
                    outs[0] += w * (k0 @ rho @ k0.conj().T)
                    outs[1] += w * (k1 @ rho @ k1.conj().T)
                for o in (0, 1):
                    nxt[hist + ((g, o),)] = g_weight[g] * outs[o]
        branches = nxt
    labels = tuple(sorted(branches))
    gamma_blocks = [reference_trace_out(branches[lab], dq, de) for lab in labels]
    env_state = np.zeros((de, de), dtype=np.complex128)
    for block in gamma_blocks:
        env_state += block
    sigma_blocks = []
    for lab in labels:
        fails = sum(g * o for g, o in lab)
        games = sum(g for g, o in lab)
        weight = (1.0 - q) ** (N - games) * q**games * 2.0 ** (fails / (q * r))
        sigma_blocks.append(weight * env_state)
    lhs = reference_renyi(list(zip(gamma_blocks, sigma_blocks)),
                          reference_block_trace(gamma_blocks), 1.0 + gamma)
    rhs = -N * worst_case_rate(behavior.v, behavior.h, q, kappa, r)
    return lhs, float(rhs), labels, gamma_blocks, sigma_blocks, env_state


def reference_uncertainty(inst, epsilon):
    p = 1.0 + epsilon
    denom = reference_trace_power(inst.rho, p)
    delta = reference_trace_power(inst.rho1, p) / denom
    lhs = (reference_trace_power(inst.rho_plus, p)
           + reference_trace_power(inst.rho_minus, p)) / denom
    rhs = 2.0 ** (-epsilon * float(uncertainty_exponent(epsilon, min(max(delta, 0.0), 1.0))))
    return float(delta), float(lhs), float(rhs)


def reference_schatten_norm(a, p):
    s = np.linalg.svd(a, compute_uv=False)
    if np.isinf(p):
        return float(s[0])
    return float(np.sum(s**p) ** (1.0 / p))


def reference_schatten(X, Y, p):
    pprime = 1.0 / (1.0 - 1.0 / p)
    lhs = (reference_schatten_norm((X + Y) / np.sqrt(2.0), p) ** p
           + reference_schatten_norm((X - Y) / np.sqrt(2.0), p) ** p)
    rhs = 2.0 ** (1.0 - p / 2.0) * (
        reference_schatten_norm(X, p) ** pprime
        + reference_schatten_norm(Y, p) ** pprime) ** (p / pprime)
    return float(lhs), float(rhs)


def reference_environment_states(behavior):
    dq, de = behavior.device_dim, behavior.env_dim
    psi = behavior.state
    rho = np.outer(psi, psi.conj())
    env_eye = np.eye(de)

    def apply(k):
        kk = np.kron(k, env_eye)
        return reference_trace_out(kk @ rho @ kk.conj().T, dq, de)
    t0, t1 = behavior.trusted_pair
    out = {"H": apply(0.5 * (np.eye(dq) + t0)), "T": apply(0.5 * (np.eye(dq) - t0)),
           "0": apply(0.5 * (np.eye(dq) + t1)), "1": apply(0.5 * (np.eye(dq) - t1))}
    p = np.zeros((de, de), dtype=np.complex128)
    f = np.zeros((de, de), dtype=np.complex128)
    for w, k0, k1, _ in behavior.kraus_for(1):
        p += w * apply(k0)
        f += w * apply(k1)
    out["P"], out["F"] = p, f
    return out


def same_outcome(stacked, reference):
    """Run both; equal values, or the same error with the same overlap."""
    try:
        expect = reference()
    except SupportViolationError as err:
        with pytest.raises(SupportViolationError) as got:
            stacked()
        assert str(got.value) == str(err) and got.value.overlap == err.overlap
        return None
    value = stacked()
    assert value == expect
    return value


# ---------------------------------------------------------------------------
# instances


def random_psd(rng, d, rank):
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    return a @ a.conj().T


@st.composite
def block_pairs(draw, violate=False):
    """(rho blocks, sigma) with rho a CqState or BlockOperator of 1-70
    blocks of dimension 1-16 (eight or more: numpy's pairwise sums would
    change order), and sigma a labeled stack or one broadcast operator.
    A rank-deficient sigma gives the support check null vectors; rho then
    lives inside its support unless violate is set.  Half the draws have
    d <= 4: einsum picks its summation order by shape, and d = 2 with one
    null vector is where a careless layout shows."""
    d = draw(st.one_of(st.integers(1, 4), st.integers(1, 16)))
    count = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, d)) if violate or draw(st.booleans()) else d
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    support = u[:, :rank]
    blocks = []
    for _ in range(count):
        c = random_psd(rng, rank, draw(st.integers(1, rank)))
        blocks.append(support @ c @ support.conj().T)
    if violate:
        # at least one block, and about half of them, leave the support
        k = draw(st.integers(0, count - 1))
        blocks = [b + random_psd(rng, d, 1) * 0.1
                  if j == k or rng.random() < 0.5 else b
                  for j, b in enumerate(blocks)]
    total = sum(np.trace(b).real for b in blocks)
    blocks = [b * (draw(st.floats(0.2, 1.0)) / total) for b in blocks]
    labels = tuple(range(count))
    rho = (CqState(labels, blocks) if draw(st.booleans())
           else BlockOperator(labels, blocks))
    base = support @ random_psd(rng, rank, rank) @ support.conj().T
    if draw(st.booleans()):
        scales = [draw(st.floats(0.05, 5.0)) for _ in labels]
        sigma = BlockOperator(labels, [s * base for s in scales])
        sigma_blocks = list(sigma.blocks)
    else:
        sigma = base
        sigma_blocks = [base] * count
    if violate and rank == d:
        # a full-rank sigma cannot be violated; make it so by projecting
        # out a direction rho reaches
        proj = np.eye(d) - np.outer(u[:, 0], u[:, 0].conj())
        sigma_blocks = [proj @ s @ proj for s in sigma_blocks]
        sigma = (BlockOperator(labels, sigma_blocks) if isinstance(sigma, BlockOperator)
                 else sigma_blocks[0])
    return rho, sigma, sigma_blocks


@st.composite
def cq_inputs(draw):
    """(labels, blocks) for a CQ state: valid states and near misses of
    each check.  A Hermitian break of 5e-13 is inside the 1e-12 tolerance
    and one of 2e-12 is not; a PSD break lowers one block by 5e-11 (above
    the floor of -1e-10 for blocks of norm at most 1), 2e-10 or 1e-3; a
    large break scales one block by 1e9 and lowers it by 5e-8 (above the
    floor scaled by the norm) or 0.5, leaving a trace past the cap; the
    total trace lands at or just beyond the cap 1 + 1e-9; a dimension of
    65 is one past the cap.  Up to 70 blocks: np.sum over eight or more
    would add the traces pairwise."""
    d = draw(st.one_of(st.integers(1, 4), st.integers(1, 12), st.just(65)))
    count = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [random_psd(rng, d, int(rng.integers(1, d + 1)))
              for _ in range(count)]
    target = draw(st.one_of(st.floats(0.05, 1.0),
                            st.sampled_from((1.0, 1.0 + 5e-10, 1.0 + 2e-9))))
    total = sum(np.trace(b).real for b in blocks)
    blocks = [b * (target / total) for b in blocks]
    k = draw(st.integers(0, count - 1))
    kind = draw(st.sampled_from(("none", "hermitian", "psd", "large")))
    if kind == "hermitian":
        size = draw(st.sampled_from((5e-13, 2e-12)))
        if d == 1:
            blocks[k] = blocks[k] + 0.5j * size
        else:
            blocks[k] = blocks[k].copy()
            blocks[k][0, 1] += size
    elif kind == "psd":
        blocks[k] = blocks[k] - draw(st.sampled_from((5e-11, 2e-10, 1e-3))) * np.eye(d)
    elif kind == "large":
        blocks[k] = 1e9 * blocks[k] - draw(st.sampled_from((5e-8, 0.5))) * np.eye(d)
    return tuple(range(count)), blocks


@st.composite
def devices_and_parameters(draw):
    half = draw(st.integers(1, 2))
    env = draw(st.integers(1, 8 // half))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = draw(st.floats(0.0, 1.0))
    h = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0 - v)))
    beh = random_partially_trusted(rng, v, h, device_half_dim=half, env_dim=env)
    q = draw(st.floats(0.05, 0.5))
    kappa = draw(st.floats(0.2, 2.0))
    r = draw(st.floats(0.05, 0.99)) / (q * kappa)
    return beh, q, kappa, r


# ---------------------------------------------------------------------------
# tests


class TestPseudoPowerStack:
    @settings(max_examples=150, deadline=None)
    @given(d=st.integers(1, 16), count=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1),
           p=st.sampled_from([-0.5, 0.5, 1.0, -0.25, 0.3, 2.0]),
           cutoff=st.sampled_from([0.0, 1e-14, SUPPORT_CUTOFF]))
    def test_stack_equals_per_matrix(self, d, count, seed, p, cutoff):
        rng = np.random.default_rng(seed)
        stack = np.stack([random_psd(rng, d, int(rng.integers(1, d + 1)))
                          - 0.1 * random_psd(rng, d, 1) for _ in range(count)])
        out = pseudo_power(stack, p, cutoff)
        assert out.shape == stack.shape
        for m, got in zip(stack, out):
            assert np.array_equal(got, reference_pseudo_power(m, p, cutoff))
            assert np.array_equal(got, pseudo_power(m, p, cutoff))


class TestDivergenceStacks:
    @settings(max_examples=200, deadline=None)
    @given(case=block_pairs(), alpha=st.floats(1.01, 2.0))
    def test_renyi_and_dmax(self, case, alpha):
        rho, sigma, sigma_blocks = case
        pairs = list(zip(rho.blocks, sigma_blocks))
        tr = reference_block_trace(rho.blocks)
        assert rho.trace() == tr
        same_outcome(lambda: renyi_divergence(rho, sigma, alpha),
                     lambda: reference_renyi(pairs, tr, alpha))
        same_outcome(lambda: dmax(rho, sigma), lambda: reference_dmax(pairs))

    @settings(max_examples=100, deadline=None)
    @given(case=block_pairs(violate=True), alpha=st.floats(1.01, 2.0))
    def test_support_violation(self, case, alpha):
        rho, sigma, sigma_blocks = case
        pairs = list(zip(rho.blocks, sigma_blocks))
        tr = reference_block_trace(rho.blocks)
        with pytest.raises(SupportViolationError):
            reference_check_support(pairs)
        same_outcome(lambda: renyi_divergence(rho, sigma, alpha),
                     lambda: reference_renyi(pairs, tr, alpha))
        same_outcome(lambda: dmax(rho, sigma), lambda: reference_dmax(pairs))
        # the worst overlap comes from one block; each block alone checks
        # the overlaps of the others too
        for rb, sb in pairs:
            same_outcome(lambda: dmax(rb, sb), lambda: reference_dmax([(rb, sb)]))

    def test_plain_operators(self):
        rng = np.random.default_rng(31)
        for d in (1, 3, 9):
            r = random_psd(rng, d, d)
            r /= np.trace(r).real
            s = random_psd(rng, d, d)
            assert renyi_divergence(r, s, 1.5) == reference_renyi(
                [(r, s)], float(np.trace(r).real), 1.5)
            assert dmax(r, s) == reference_dmax([(r, s)])


class TestExactRunStack:
    @settings(max_examples=60, deadline=None)
    @given(case=devices_and_parameters(), N=st.integers(1, 4))
    def test_equals_branch_loop(self, case, N):
        beh, q, kappa, r = case
        lhs, rhs, labels, gamma_blocks, sigma_blocks, env = \
            reference_exact_small_run(N, beh, q, kappa, r)
        res = exact_small_run(N, beh, q, kappa, r)
        assert res.lhs == lhs and res.rhs == rhs
        assert res.holds == (lhs <= rhs + 1e-8)
        assert res.labels == labels
        assert len(res.gamma_blocks) == len(gamma_blocks) == 4**N
        assert all(np.array_equal(a, b) for a, b in zip(res.gamma_blocks, gamma_blocks))
        assert all(np.array_equal(a, b) for a, b in zip(res.sigma_blocks, sigma_blocks))
        assert np.array_equal(res.env_state, env)

    def test_labels_in_sorted_order(self):
        rng = np.random.default_rng(3)
        beh = random_partially_trusted(rng, 0.6, 0.2, env_dim=2)
        res = exact_small_run(3, beh, 0.3, 1.0, 1.0)
        assert res.labels == tuple(sorted(res.labels))
        assert res.labels == tuple(product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=3))


class TestInequalityStacks:
    @settings(max_examples=150, deadline=None)
    @given(dw=st.integers(1, 4), dv=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1), eps=st.floats(0.01, 1.0))
    def test_uncertainty_check(self, dw, dv, seed, eps):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(2 * dw, dv)) + 1j * rng.normal(size=(2 * dw, dv))
        inst = measurement_split(z / np.linalg.norm(z))
        got = uncertainty_check(inst, eps)
        assert (got.delta, got.lhs_ratio, got.rhs) == reference_uncertainty(inst, eps)

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(1, 9), n=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1),
           p=st.one_of(st.sampled_from([2.0, 2.5, 4.0]), st.floats(2.0, 8.0)))
    def test_schatten_ineq_check(self, m, n, seed, p):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        Y = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        got = schatten_ineq_check(X, Y, p)
        assert (got.lhs, got.rhs) == reference_schatten(X, Y, p)

    @settings(max_examples=100, deadline=None)
    @given(case=devices_and_parameters())
    def test_environment_states(self, case):
        beh = case[0]
        got = conditional_environment_states(beh)
        expect = reference_environment_states(beh)
        assert list(got) == list(expect)
        assert all(np.array_equal(got[k], expect[k]) for k in expect)


class TestCqStateAgainstPerBlockRoute:
    @settings(max_examples=200, deadline=None)
    @given(case=cq_inputs(), alpha=st.floats(1.01, 2.0),
           epsilon=st.floats(0.05, 1.4), full_rank_sigma=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_same_states_and_same_values(self, case, alpha, epsilon,
                                         full_rank_sigma, seed):
        labels, blocks = case
        got = outcome(lambda: CqState(labels, blocks))
        ref = outcome(lambda: ReferenceCqState(labels, blocks))
        assert got[0] == ref[0]
        if got[0] != "ok":
            return
        rho, expect = got[1], ref[1]
        assert np.array_equal(rho.blocks, np.stack(expect.blocks))
        assert rho.trace() == expect.trace()
        rng = np.random.default_rng(seed)
        d = rho.blocks.shape[1]
        base = random_psd(rng, d, d if full_rank_sigma else max(d - 1, 1))
        if rng.random() < 0.5:
            sigma_blocks = [rng.uniform(0.05, 5.0) * base for _ in labels]
            sigma = BlockOperator(labels, sigma_blocks)
        else:
            sigma, sigma_blocks = base, [base] * len(labels)
        pairs = list(zip(expect.blocks, sigma_blocks))
        assert (outcome(lambda: renyi_divergence(rho, sigma, alpha))
                == outcome(lambda: reference_renyi(pairs, expect.trace(), alpha)))
        assert (outcome(lambda: dmax(rho, sigma))
                == outcome(lambda: reference_dmax(pairs)))
        got = outcome(lambda: smooth_from_renyi(rho, sigma, alpha, epsilon))
        ref = outcome(lambda: reference_smooth(expect, sigma_blocks, alpha, epsilon))
        assert got[0] == ref[0]
        if got[0] != "ok":
            return
        (smoothed, bound), (ref_smoothed, ref_bound) = got[1], ref[1]
        assert type(smoothed) is CqState and smoothed.labels == labels
        assert bound == ref_bound
        assert np.array_equal(smoothed.blocks, np.stack(ref_smoothed.blocks))
        assert (trace_distance(rho, smoothed)
                == reference_trace_distance(expect, ref_smoothed))

    @pytest.mark.parametrize("labels, blocks", [
        (("x", "y"), [np.eye(2) / 4]),                 # labels do not align
        ((), []),                                      # no block
        (("x", "y"), [np.eye(2) / 4, np.eye(3) / 9]),  # ragged
        (("x",), [np.ones((2, 3)) / 8]),               # not square
        (("x",), [np.zeros((0, 0))]),                  # dimension 0
    ])
    def test_shape_errors_rejected_by_both(self, labels, blocks):
        with pytest.raises(ValueError):
            ReferenceCqState(labels, blocks)
        with pytest.raises(ValueError):
            CqState(labels, blocks)

    def test_stack_is_read_only_and_symmetrised(self):
        a = np.array([[0.25, 0.1 + 1e-13], [0.1, 0.25]])
        rho = CqState(["x"], [a])
        assert rho.labels == ("x",)
        assert not rho.blocks.flags.writeable
        assert np.array_equal(rho.blocks[0], rho.blocks[0].conj().T)
        assert isinstance(rho, BlockOperator)


class TestBlockOperatorValidation:
    def test_labels_must_align(self):
        a = np.eye(2)
        with pytest.raises(ValueError, match="align"):
            BlockOperator(("x", "y"), (a,))

    def test_needs_a_block(self):
        with pytest.raises(ValueError, match="at least one block"):
            BlockOperator((), ())

    @pytest.mark.parametrize("blocks", [
        (np.eye(2), np.eye(3)),        # ragged
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.ones(2), np.ones(2)),
    ])
    def test_blocks_share_one_square_shape(self, blocks):
        with pytest.raises(ValueError, match="square"):
            BlockOperator(("x", "y"), blocks)

    def test_holds_one_read_only_stack(self):
        src = [np.eye(2), 2 * np.eye(2)]
        op = BlockOperator(["x", "y"], src)
        assert op.labels == ("x", "y")
        assert op.blocks.shape == (2, 2, 2) and op.blocks.dtype == np.complex128
        assert not op.blocks.flags.writeable
        src[0][0, 0] = 5.0
        assert op.blocks[0, 0, 0] == 1.0 and op.trace() == 6.0
