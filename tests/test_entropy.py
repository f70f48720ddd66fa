import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx.entropy import (
    BlockOperator,
    dmax,
    measurement_split,
    pinching_channel,
    renyi_divergence,
    schatten_ineq_check,
    uncertainty_check,
)
from direx.errors import SupportViolationError


def rand_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / m.trace().real


def rand_psd(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return a @ a.conj().T


class TestRenyiDivergence:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = rand_density(rng, 4)
            assert abs(renyi_divergence(rho, rho, 1.5)) < 1e-9

    def test_maximally_mixed_vs_identity(self):
        for alpha in (1.1, 1.5, 2.0):
            assert renyi_divergence(np.eye(2) / 2, np.eye(2), alpha) == pytest.approx(-1.0)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            rho = rand_density(rng, 4)
            sigma = rand_density(rng, 4)
            vals = [renyi_divergence(rho, sigma, a) for a in (1.1, 1.5, 2.0)]
            assert vals[0] <= vals[1] + 1e-9
            assert vals[1] <= vals[2] + 1e-9

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            renyi_divergence(np.eye(2) / 2, np.eye(2), 1.0)
        with pytest.raises(ValueError):
            renyi_divergence(np.eye(2) / 2, np.eye(2), 2.5)

    def test_support_violation_reports_overlap(self):
        rho = np.diag([0.5, 0.5])
        sigma = np.diag([1.0, 0.0])
        with pytest.raises(SupportViolationError) as err:
            renyi_divergence(rho, sigma, 1.5)
        assert err.value.overlap == pytest.approx(0.5)

    def test_scaling_of_reference(self):
        # D(rho || c sigma) = D(rho || sigma) - log2(c)
        rng = np.random.default_rng(2)
        rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
        base = renyi_divergence(rho, sigma, 1.7)
        assert renyi_divergence(rho, 4.0 * sigma, 1.7) == pytest.approx(base - 2.0)

    def test_subnormalized_normalization_convention(self):
        rng = np.random.default_rng(3)
        rho, sigma = rand_density(rng, 3), rand_density(rng, 3)
        # scaling rho by c changes the divergence by (alpha/(alpha-1)-1/(a-1))... oracle:
        # d(c rho||sigma) = Tr[(s (c rho) s)^a]^{1/(a-1)} / c^{1/(a-1)} => adds log2(c)
        alpha = 1.5
        base = renyi_divergence(rho, sigma, alpha)
        scaled = renyi_divergence(0.25 * rho, sigma, alpha)
        assert scaled == pytest.approx(base + np.log2(0.25), abs=1e-9)


class TestDmax:
    def test_equal_density_zero(self):
        rng = np.random.default_rng(4)
        rho = rand_density(rng, 4)
        assert abs(dmax(rho, rho)) < 1e-9

    def test_diagonal_case(self):
        assert dmax(np.diag([0.9, 0.1]), np.eye(2) / 2) == pytest.approx(np.log2(1.8))

    def test_dominates_renyi(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            rho = rand_density(rng, 3)
            sigma = rand_density(rng, 3)
            alpha = float(rng.uniform(1.01, 2.0))
            assert renyi_divergence(rho, sigma, alpha) <= dmax(rho, sigma) + 1e-9

    def test_defining_inequality(self):
        rng = np.random.default_rng(6)
        rho, sigma = rand_density(rng, 4), rand_density(rng, 4)
        lam = 2.0 ** dmax(rho, sigma)
        assert np.linalg.eigvalsh(lam * sigma - rho)[0] >= -1e-9


class TestDataProcessing:
    def test_pinching_never_increases(self):
        rng = np.random.default_rng(7)
        pinch = pinching_channel([2, 2])
        for _ in range(200):
            rho = rand_density(rng, 4)
            sigma = rand_density(rng, 4)
            alpha = float(rng.uniform(1.05, 2.0))
            before = renyi_divergence(rho, sigma, alpha)
            after = renyi_divergence(pinch(rho), pinch(sigma), alpha)
            assert after <= before + 1e-9


@st.composite
def psd_pairs(draw):
    """(rho, sigma, dims): a density operator of dimension 2-6, possibly
    rank deficient, and a full-rank reference, each in its own random
    eigenbasis; dims splits the dimension into pinching blocks."""
    d = draw(st.integers(2, 6))
    split = draw(st.integers(1, d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rotated(eigs):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        u, _ = np.linalg.qr(z)
        return (u * np.asarray(eigs)) @ u.conj().T

    r = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                      min_size=d, max_size=d).filter(lambda w: sum(w) > 1e-3))
    s = draw(st.lists(st.floats(1e-3, 1.0), min_size=d, max_size=d))
    return rotated(np.array(r) / sum(r)), rotated(s), [split, d - split]


class TestEntropyLaws:
    """Divergence laws on random PSD pairs, at the 1e-9 slack of the
    seeded sweeps above."""

    @settings(max_examples=150, deadline=None)
    @given(pair=psd_pairs(), alphas=st.lists(st.floats(1.01, 2.0), min_size=2,
                                             max_size=2, unique=True))
    def test_monotone_in_alpha(self, pair, alphas):
        rho, sigma, _ = pair
        lo, hi = sorted(alphas)
        assert (renyi_divergence(rho, sigma, lo)
                <= renyi_divergence(rho, sigma, hi) + 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(pair=psd_pairs(), alpha=st.floats(1.01, 2.0))
    def test_pinching_never_increases(self, pair, alpha):
        rho, sigma, dims = pair
        pinch = pinching_channel(dims)
        assert (renyi_divergence(pinch(rho), pinch(sigma), alpha)
                <= renyi_divergence(rho, sigma, alpha) + 1e-9)

    @settings(max_examples=150, deadline=None)
    @given(pair=psd_pairs())
    def test_collision_divergence_below_dmax(self, pair):
        rho, sigma, _ = pair
        assert renyi_divergence(rho, sigma, 2.0) <= dmax(rho, sigma) + 1e-9


class TestMeasurementSplit:
    def test_maximally_entangled_traces(self):
        # correlation matrix of a maximally entangled qubit pair
        z = np.zeros((4, 2), dtype=complex)
        z[0, 0] = z[3, 1] = 1 / np.sqrt(2)
        inst = measurement_split(z)
        for m in (inst.rho - inst.rho1, inst.rho1, inst.rho_plus, inst.rho_minus):
            assert m.trace().real == pytest.approx(0.5)

    def test_zero_second_block(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        z = np.zeros((6, 4), dtype=complex)
        z[0::2] = x
        inst = measurement_split(z)
        assert np.allclose(inst.rho1, 0)
        assert np.allclose(inst.rho_plus, inst.rho / 2)
        assert np.allclose(inst.rho_minus, inst.rho / 2)

    def test_additivity(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            z = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
            inst = measurement_split(z)
            # the 0-outcome's operator, from the even rows of z
            a = z[0::2].conj().T @ z[0::2] + inst.rho1
            b = inst.rho_plus + inst.rho_minus
            assert np.max(np.abs(a - inst.rho)) < 1e-10
            assert np.max(np.abs(b - inst.rho)) < 1e-10

    def test_odd_row_count_rejected(self):
        with pytest.raises(ValueError):
            measurement_split(np.zeros((5, 3)))


class TestUncertainty:
    def test_bell_pair_epsilon_one(self):
        z = np.zeros((4, 2), dtype=complex)
        z[0, 0] = z[3, 1] = 1 / np.sqrt(2)
        chk = uncertainty_check(measurement_split(z), 1.0)
        assert chk.delta == pytest.approx(0.5)
        assert chk.holds

    def test_zero_one_block_boundary(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        z = np.zeros((6, 4), dtype=complex)
        z[0::2] = x
        for eps in (0.1, 0.5, 1.0):
            chk = uncertainty_check(measurement_split(z), eps)
            assert chk.delta == pytest.approx(0.0)
            assert chk.rhs == pytest.approx(2.0**-eps)
            assert chk.holds
            # equality case: lhs equals the bound exactly
            assert chk.lhs_ratio == pytest.approx(chk.rhs, abs=1e-9)

    @pytest.mark.parametrize("eps", [5e-324, float("nan"), 0.0, 1.5])
    def test_epsilon_checked_before_the_spectra(self, eps):
        inst = measurement_split(np.eye(2))
        with pytest.raises(ValueError, match=r"^epsilon must lie in \["):
            uncertainty_check(inst, eps)
        assert "spectra" not in vars(inst)

    def test_monte_carlo_sweep(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            dw = int(rng.integers(1, 5))
            dv = int(rng.integers(1, 9))
            z = rng.normal(size=(2 * dw, dv)) + 1j * rng.normal(size=(2 * dw, dv))
            z /= np.linalg.norm(z)
            inst = measurement_split(z)
            for eps in (0.1, 0.5, 1.0):
                assert uncertainty_check(inst, eps).holds


class TestSchattenInequality:
    def test_zero_second_operand_equality(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        chk = schatten_ineq_check(x, np.zeros_like(x), 3.0)
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)
        assert chk.holds

    def test_equal_operands(self):
        from direx.matrixcore import schatten_norm

        rng = np.random.default_rng(17)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        chk = schatten_ineq_check(x, x, 2.5)
        assert chk.lhs == pytest.approx(schatten_norm(np.sqrt(2) * x, 2.5) ** 2.5)

    def test_random_sweep(self):
        rng = np.random.default_rng(18)
        for _ in range(1000):
            x = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
            y = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
            for p in (2.0, 2.5, 4.0):
                assert schatten_ineq_check(x, y, p).holds

    def test_p_domain(self):
        with pytest.raises(ValueError):
            schatten_ineq_check(np.eye(2), np.eye(2), 1.5)

    @pytest.mark.parametrize("p", [np.inf, np.nan, -np.inf, 10**400],
                             ids=["inf", "nan", "-inf", "int-past-float"])
    def test_non_finite_p_rejected_by_name(self, p):
        # p = inf once gave holds=False from a nan right-hand side
        with pytest.raises(ValueError, match=r"^p must be finite and at least 2"):
            schatten_ineq_check(np.eye(2), 0.5 * np.eye(2), p)

    @pytest.mark.parametrize("scale,p", [(3.0, 1e300), (3.0, 700.0),
                                         (1e100, 4.0)])
    def test_overflowing_power_sums_rejected(self, scale, p):
        # no verdict from infinite or nan sides
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^p overflows the power sums"):
                schatten_ineq_check(scale * np.eye(2), 0.5 * scale * np.eye(2), p)


class TestBlockOperator:
    def test_block_divergence_matches_dense(self):
        rng = np.random.default_rng(20)
        blocks_r = [0.5 * rand_density(rng, 3), 0.5 * rand_density(rng, 3)]
        blocks_s = [rand_density(rng, 3), 2.0 * rand_density(rng, 3)]
        labels = ("x", "y")
        blockwise = renyi_divergence(BlockOperator(labels, tuple(blocks_r)),
                                     BlockOperator(labels, tuple(blocks_s)), 1.5)
        dense_r = np.block([
            [blocks_r[0], np.zeros((3, 3))], [np.zeros((3, 3)), blocks_r[1]]])
        dense_s = np.block([
            [blocks_s[0], np.zeros((3, 3))], [np.zeros((3, 3)), blocks_s[1]]])
        dense = renyi_divergence(dense_r, dense_s, 1.5)
        assert blockwise == pytest.approx(dense, abs=1e-9)
