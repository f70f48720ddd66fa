import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx.matrixcore import pseudo_power, schatten_norm


def random_psd(rng, d, trace=None):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    if trace is not None:
        m *= trace / m.trace().real
    return m


class TestMatrixPower:
    """pseudo_power with cutoff 0 as the PSD power: 0**p = 0 for p > 0, and
    small negative eigenvalues clamp to zero."""

    def test_identity_any_power(self):
        for p in (0.5, 1.0, 3.7):
            out = pseudo_power(np.eye(3), p, cutoff=0.0)
            assert np.allclose(out, np.eye(3))

    def test_diagonal_square_root(self):
        out = pseudo_power(np.diag([4.0, 1.0]), 0.5, cutoff=0.0)
        assert np.allclose(out, np.diag([2.0, 1.0]))

    def test_square_root_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_psd(rng, 6)
            root = pseudo_power(a, 0.5, cutoff=0.0)
            back = root @ root
            assert np.max(np.abs(back - a)) <= 1e-9 * max(np.abs(a).max(), 1.0)

    def test_nonpositive_power_acts_on_the_support(self):
        # p = 0 gives the support projector and p = -1 the pseudo-inverse
        a = np.diag([4.0, 0.0, -5e-11])
        assert np.array_equal(pseudo_power(a, 0.0, cutoff=0.0),
                              np.diag([1.0, 0.0, 0.0]))
        assert np.array_equal(pseudo_power(a, -1.0, cutoff=0.0),
                              np.diag([0.25, 0.0, 0.0]))

    def test_zero_eigenvalue_maps_to_zero(self):
        out = pseudo_power(np.diag([1.0, 0.0]), 0.3, cutoff=0.0)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_large_power_of_rotated_matrix(self):
        # rebuilding 30**3 in a rotated eigenbasis leaves an anti-Hermitian
        # residue of ~1e-12; the entries still match the exact cube
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            u, _ = np.linalg.qr(z)
            a = (u * np.array([30.0, 1.0])) @ u.conj().T
            out = pseudo_power(a, 3, cutoff=0.0)
            expect = (u * np.array([27000.0, 1.0])) @ u.conj().T
            assert np.max(np.abs(out - expect)) <= 1e-9

    def test_zero_eigenvalue_next_to_large_one(self):
        # the rebuilt cube's zero eigenvalue comes back near -1e-7; its
        # entries still match the exact cube to the largest one's rounding
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            u, _ = np.linalg.qr(z)
            a = (u * np.array([1000.0, 1.0, 0.0])) @ u.conj().T
            out = pseudo_power(a, 3, cutoff=0.0)
            expect = (u * np.array([1e9, 1.0, 0.0])) @ u.conj().T
            assert np.max(np.abs(out - expect)) <= 1e-9 * 1e9


def reference_psd_sqrt(m):
    """Square root of the Hermitian part, negative eigenvalues clamped."""
    w, u = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (u * np.sqrt(np.where(w > 0, w, 0.0))) @ u.conj().T


def reference_positive_part(m):
    """Positive part of the Hermitian part of a matrix."""
    w, u = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (u * np.where(w > 0, w, 0.0)) @ u.conj().T


def reference_power(a, p):
    """The eigenbasis power of a PSD matrix, small negative eigenvalues
    clamped to zero."""
    w, u = np.linalg.eigh(a)
    w = np.where(w < 0.0, 0.0, w)
    wp = np.where(w > 0.0, w**p, 0.0)
    return (u * wp) @ u.conj().T


@st.composite
def hermitian_matrices(draw, min_eig=-5.0):
    """Hermitian complex matrices of dimension 1-8 in a random eigenbasis,
    with exact zero and repeated eigenvalues among the draws, plus an
    optional anti-Hermitian residue of rounding size."""
    d = draw(st.integers(1, 8))
    eig = st.one_of(st.just(0.0), st.floats(min_eig, 50.0))
    w = np.array(draw(st.lists(eig, min_size=d, max_size=d)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    m = (u * w) @ u.conj().T
    if draw(st.booleans()):
        r = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = m + 1e-13 * (r - r.conj().T)
    return m


class TestSpectralKernel:
    """Every eigenbasis rebuild goes through pseudo_power; it must reproduce
    the dedicated rebuilds it replaced bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(m=hermitian_matrices())
    def test_square_root_and_positive_part(self, m):
        assert np.array_equal(pseudo_power(m, 0.5, cutoff=0.0),
                              reference_psd_sqrt(m))
        assert np.array_equal(pseudo_power(m, 1.0, cutoff=0.0),
                              reference_positive_part(m))

    @settings(max_examples=300, deadline=None)
    @given(m=hermitian_matrices(min_eig=0.0), p=st.floats(0.1, 3.0))
    def test_matrix_power(self, m, p):
        a = 0.5 * (m + m.conj().T)
        assert np.array_equal(pseudo_power(a, p, cutoff=0.0),
                              reference_power(a, p))


class TestSchattenNorm:
    def test_identity(self):
        for d in (2, 5):
            for p in (1.0, 2.0, 3.5):
                assert schatten_norm(np.eye(d), p) == pytest.approx(d ** (1 / p))

    def test_pauli_x_two_norm(self):
        assert schatten_norm([[0, 1], [1, 0]], 2) == pytest.approx(np.sqrt(2))

    def test_two_norm_is_trace_form(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
            lhs = schatten_norm(a, 2) ** 2
            rhs = np.trace(a.conj().T @ a).real
            assert abs(lhs - rhs) <= 1e-10 * max(rhs, 1.0)

    def test_monotone_nonincreasing_in_p(self):
        rng = np.random.default_rng(13)
        ps = np.linspace(1.0, 8.0, 15)
        for _ in range(5):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            vals = [schatten_norm(a, p) for p in ps] + [schatten_norm(a, np.inf)]
            assert all(x >= y - 1e-9 for x, y in zip(vals, vals[1:]))

    @settings(max_examples=100, deadline=None)
    @given(count=st.integers(1, 9), d=st.integers(2, 8),
           seed=st.integers(0, 2**32 - 1), hermitian=st.booleans())
    def test_operator_norm_equals_numpy_two_norm(self, count, d, seed, hermitian):
        # p = inf is one svd and its largest value: np.linalg.norm(x, 2)
        # bit for bit, alone or in a stack, on complex matrices
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
        if hermitian:
            stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
        norms = schatten_norm(stack, np.inf)
        assert np.array_equal(norms, np.linalg.norm(stack, 2, axis=(-2, -1)))
        for x, norm in zip(stack, norms.tolist()):
            assert schatten_norm(x, np.inf) == np.linalg.norm(x, 2) == norm

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.5)


class TestLoewnerProperties:
    """Operator-monotonicity and superadditivity of fractional powers."""

    def test_power_monotone(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            z = random_psd(rng, d)
            w = z + random_psd(rng, d)
            gamma = float(rng.uniform(0.0, 1.0))
            if gamma == 0.0:
                continue
            zg = pseudo_power(z, gamma, cutoff=0.0)
            wg = pseudo_power(w, gamma, cutoff=0.0)
            diff = wg - zg
            assert np.linalg.eigvalsh(diff)[0] >= -1e-9

    def test_trace_power_superadditive(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            d = int(rng.integers(2, 9))
            z = random_psd(rng, d)
            x = random_psd(rng, d)
            w = z + x
            gamma = float(rng.uniform(0.0, 1.0))
            p = 1.0 + gamma
            lhs = (
                pseudo_power(x, p, cutoff=0.0).trace().real
                + pseudo_power(z, p, cutoff=0.0).trace().real
            )
            rhs = pseudo_power(w, p, cutoff=0.0).trace().real
            assert lhs <= rhs + 1e-9
