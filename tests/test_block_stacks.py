"""Block stacks against the block-by-block code they replaced.

The exact layer (pseudo_power, the divergences, the inequality checks and
exact_small_run) works on (B, d, d) stacks.  Each reference below is the
per-block code that the stacked code replaced, kept as a test-only copy;
the stacked code must equal it by == and np.array_equal, not
approximately.
"""

import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx.devices import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PartiallyTrustedBehavior,
    random_partially_trusted,
)
from direx.entropy import (
    SUPPORT_CUTOFF,
    BlockOperator,
    dmax,
    measurement_split,
    renyi_divergence,
    schatten_ineq_check,
    uncertainty_check,
)
from direx.errors import SupportViolationError
from direx.matrixcore import pseudo_power, schatten_norm
from direx.protocols import (
    conditional_environment_states,
    exact_small_run,
    verify_suite,
)
from direx.protocols import _label_table
from direx.rates import uncertainty_exponent, worst_case_rate
from direx.seeding import numpy_rng, parse_master_seed

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


def reference_trace_out(rho, dq, de):
    return np.einsum("iaib->ab", rho.reshape(dq, de, dq, de))


def reference_exact_small_run(N, behavior, q, kappa, r):
    """The branch-by-branch execution, as (lhs, rhs)."""
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
    return lhs, float(rhs)


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
    """(rho, sigma, sigma blocks) with rho a BlockOperator of 1-70 blocks
    of dimension 1-16 (eight or more: numpy's pairwise sums would
    change order), and sigma either a labeled BlockOperator or one plain
    (d, d) operator that broadcasts: the two branches of _block_stacks.
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
    rho = BlockOperator(labels, blocks)
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


def partially_trusted(rng, v, h, half, env_dim):
    """A random partially trusted device on a 2·half-dimensional space:
    random_partially_trusted's qubit device for half = 1.  For half = 2 the
    pair (x, cos a·y + sin a·z) is tensored with the identity and a random
    reflection, so it still anticommutes, and the dishonest part and the
    state are drawn as random_partially_trusted draws them."""
    if half == 1:
        return random_partially_trusted(rng, v, h, env_dim=env_dim)
    d = 2 * half
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(a)
    angle = rng.uniform(0, 2 * np.pi)
    basis, _ = np.linalg.qr(rng.normal(size=(half, half))
                            + 1j * rng.normal(size=(half, half)))
    refl = (basis * np.where(rng.random(half) < 0.5, 1.0, -1.0)) @ basis.conj().T
    pair = (np.kron(PAULI_X, np.eye(half)),
            np.kron(np.cos(angle) * PAULI_Y + np.sin(angle) * PAULI_Z, refl))
    t0, t1 = (u @ b @ u.conj().T for b in pair)
    nop = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    nop = 0.5 * (nop + nop.conj().T)
    nop = nop / (schatten_norm(nop, np.inf) * rng.uniform(1.0, 2.0))
    psi = rng.normal(size=d * env_dim) + 1j * rng.normal(size=d * env_dim)
    psi = psi / np.linalg.norm(psi)
    return PartiallyTrustedBehavior(v=v, h=h, trusted_pair=(t0, t1),
                                    dishonest=nop, state=psi, env_dim=env_dim)


@st.composite
def devices_and_parameters(draw):
    half = draw(st.integers(1, 2))
    env = draw(st.integers(1, 8 // half))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = draw(st.floats(0.0, 1.0))
    h = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0 - v)))
    beh = partially_trusted(rng, v, h, half, env)
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
        lhs, rhs = reference_exact_small_run(N, beh, q, kappa, r)
        res = exact_small_run(N, beh, q, kappa, r)
        assert res.lhs == lhs and res.rhs == rhs
        assert res.holds == (lhs <= rhs + 1e-8)

    def test_labels_in_sorted_order(self):
        # the stack's order, in which the divergence adds its blocks, is
        # the reference's sorted label order
        labels = _label_table(3)[0]
        assert labels == tuple(sorted(labels))
        assert labels == tuple(product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=3))


class TestExactRunParts:
    """What the branch-loop reference cannot see: it calls kraus_for and
    the eigensolver itself."""

    @settings(max_examples=60, deadline=None)
    @given(case=devices_and_parameters())
    def test_kraus_roots_equal_lone_calls(self, case):
        beh = case[0]
        d = beh.device_dim
        dishonest = [b for b in beh.kraus_for(1) if b[3] == "dishonest"]
        assert len(dishonest) == (1 if 1.0 - beh.v - beh.h > 1e-15 else 0)
        for _, sp, sm, _ in dishonest:
            assert np.array_equal(sp, pseudo_power(
                0.5 * (np.eye(d) + beh.dishonest), 0.5, cutoff=0.0))
            assert np.array_equal(sm, pseudo_power(
                0.5 * (np.eye(d) - beh.dishonest), 0.5, cutoff=0.0))

    @pytest.mark.parametrize("env", [1, 2, 4])
    def test_one_eigh_of_the_sigma_stack(self, monkeypatch, env):
        # the support check and the power of sigma share one decomposition
        rng = np.random.default_rng(12)
        beh = random_partially_trusted(rng, 0.5, 0.2, env_dim=env)
        shapes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a, *args: shapes.append(a.shape) or eigh(a, *args))
        exact_small_run(3, beh, 0.3, 1.0, 1.0)
        assert [s for s in shapes if s[0] == 4**3] == [(4**3, env, env)]


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

    def test_uncertainty_spectra_taken_once(self, monkeypatch):
        # the verify suites check one instance at three exponents; the
        # spectra do not depend on the exponent, so one eigvalsh serves all
        rng = np.random.default_rng(8)
        z = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        inst = measurement_split(z / np.linalg.norm(z))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append(m.shape) or eigvalsh(m))
        got = [uncertainty_check(inst, eps) for eps in (0.1, 0.5, 1.0)]
        assert calls == [(4, 4, 4)]
        monkeypatch.undo()
        for eps, check in zip((0.1, 0.5, 1.0), got):
            assert (check.delta, check.lhs_ratio, check.rhs) == \
                reference_uncertainty(inst, eps)

    def test_schatten_spectra_taken_once(self, monkeypatch):
        # the verify suites check one pair at three exponents; one svd of
        # the pair's four matrices serves all, and a pair changed in place
        # is taken again
        from direx import entropy

        entropy._pair_singular_values.cache_clear()
        rng = np.random.default_rng(9)
        X = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        Y = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        before = X.copy()
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: calls.append(a.shape) or svd(a, **kw))
        got = [schatten_ineq_check(X, Y, p) for p in (2.0, 2.5, 4.0)]
        assert calls == [(4, 3, 5)]
        X[1, 2] += 0.5
        changed = schatten_ineq_check(X, Y, 2.5)
        assert calls == [(4, 3, 5)] * 2
        monkeypatch.undo()
        for p, check in zip((2.0, 2.5, 4.0), got):
            assert (check.lhs, check.rhs) == reference_schatten(before, Y, p)
        assert (changed.lhs, changed.rhs) == reference_schatten(X, Y, 2.5)

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


def sweep_values(suite, rng, count):
    """The values of `count` instances of one suite of ``direx verify``,
    from the command's own draws (protocols.verify_suite): (delta, lhs,
    rhs) per uncertainty check, (lhs, rhs) per Schatten check and
    multishot run, and the least eigenvalue of each partial-trust
    difference."""
    checks = verify_suite(suite, rng, count)
    if suite == "uncertainty":
        return [(c.delta, c.lhs_ratio, c.rhs) for c in checks]
    if suite == "partial-trust":
        return [c.least_eigenvalue for c in checks]
    return [(c.lhs, c.rhs) for c in checks]


class TestSweepDigests:
    """The four verify suites pinned by the sha256 of the repr of every
    value: 50 instances each, one stream per suite, drawn by the code that
    ``direx verify`` runs.  The digests were taken before the device
    checks, the spectral norms, the uncertainty exponent and the
    environment sum were made cheaper, so any rounding those changes let
    in shows here."""

    PINNED = {
        "uncertainty": "5c46faced2a26fe1e48b711d76320971617ad05dcbf154bca43460c133c93618",
        "schatten": "41a83f0e79f9d0254f42c8237ccd2f63181d95f5c5d5e47089c99ad5cff30373",
        "multishot": "2aef626f09b959b1cf7cac0b55ae2cad79e24e5b266bd92c35b316b077151a79",
        "partial-trust": "1e51a2b490b5703686bac930068c2f9ed14c6679b8e7c7ec6f76350361cd1d43",
    }

    @pytest.mark.parametrize("suite", list(PINNED))
    def test_suite_digest(self, suite):
        rng = numpy_rng(parse_master_seed("5eed"), f"verify-{suite}")
        values = sweep_values(suite, rng, 50)
        digest = hashlib.sha256(repr(values).encode()).hexdigest()
        assert digest == self.PINNED[suite]


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
