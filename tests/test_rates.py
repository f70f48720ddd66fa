import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from direx.errors import InfeasibleError
from direx.rates import (
    RateParams,
    RateReport,
    SQRT2,
    TUNE_GRID,
    TuneResult,
    binary_entropy,
    certified_bound,
    feasible,
    golden_section_lanes,
    limit_exponent,
    limit_exponent_slope,
    maximize_bound,
    one_round_rate,
    optimal_multiplier,
    rate_T_E,
    tune_parameters,
    uncertainty_exponent,
    worst_case_rate,
)
from direx.xorgames import chsh_constants, ghz_constants

import oracle


def pi_oracle(eps, delta):
    """Independent transcription of the exponent formula."""
    d = min(delta, 1 - delta)
    if d == 0:
        return 1.0
    a = 1.0 / (1.0 + 2.0 * eps)
    return 1.0 - ((1.0 + 2.0 * eps) / eps) * np.log2((1 - d) ** a + d**a)


def lambda_oracle(v, h, q, kappa, r, t):
    """Independent transcription of the one-round closed form."""
    gamma = r * q * kappa
    bracket = (1 - q) * 2.0 ** (-gamma * pi_oracle(gamma, t)) \
        + q * (1 - (1 - 2.0**-kappa) * ((h / 2) ** (1 + gamma) + v ** (1 + gamma) * t))
    return -np.log2(bracket ** (1.0 / gamma))


class TestExponent:
    def test_zero_delta_is_one(self):
        for eps in (0.01, 0.3, 1.0):
            assert uncertainty_exponent(eps, 0.0) == 1.0
            assert uncertainty_exponent(eps, 1.0) == 1.0  # symmetric extension

    def test_limit_comparison(self):
        assert abs(uncertainty_exponent(1e-4, 0.2) - limit_exponent(0.2)) < 0.01

    def test_hand_evaluation_half_half(self):
        # 1 - 4*log2(2*sqrt(1/2)) = 1 - 4*(1/2) = -1
        assert uncertainty_exponent(0.5, 0.5) == pytest.approx(-1.0)

    def test_matches_oracle_on_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            eps = float(rng.uniform(0.01, 1.0))
            d = float(rng.uniform(0.0, 1.0))
            assert uncertainty_exponent(eps, d) == pytest.approx(
                pi_oracle(eps, d), abs=1e-9)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            eps = float(rng.uniform(0.01, 1.0))
            d = float(rng.uniform(0.0, 1.0))
            assert uncertainty_exponent(eps, d) == uncertainty_exponent(eps, 1.0 - d)

    def test_domain(self):
        with pytest.raises(ValueError):
            uncertainty_exponent(0.0, 0.5)
        with pytest.raises(ValueError):
            uncertainty_exponent(0.5, 1.5)


class TestScalarExponent:
    """Two Python numbers take uncertainty_exponent's scalar path: a float
    equal by == to its element of an array call, and the array call's
    messages outside the domain."""

    @settings(max_examples=300, deadline=None)
    @given(eps=st.floats(float(np.finfo(float).tiny), 1.0),
           delta=st.floats(0.0, 1.0), at=st.integers(0, 16))
    @example(eps=1.0, delta=0.0, at=0)
    @example(eps=float(np.finfo(float).tiny), delta=1.0, at=16)
    @example(eps=0.5, delta=0.5, at=7)
    def test_equals_the_array_element(self, eps, delta, at):
        # the pair sits among other lanes, so the array call runs numpy's
        # vector loops on it
        deltas = np.linspace(0.0, 1.0, 17)
        deltas[at] = delta
        got = uncertainty_exponent(eps, delta)
        assert type(got) is float
        assert got == uncertainty_exponent(np.full(17, eps), deltas)[at]
        assert got == uncertainty_exponent(np.asarray(eps), np.asarray(delta))

    @pytest.mark.parametrize("eps, delta", [
        (math.nan, 0.3), (0.0, 0.3), (5e-324, 0.3), (1.5, 0.3),
        (0.5, -0.1), (0.5, 1.1), (0.5, math.nan), (0.0, math.nan)])
    def test_outside_the_domain_rejected_as_arrays_are(self, eps, delta):
        with pytest.raises(ValueError) as array_err:
            uncertainty_exponent(np.array([eps]), np.array([delta]))
        with pytest.raises(ValueError) as err:
            uncertainty_exponent(eps, delta)
        assert str(err.value) == str(array_err.value)

    def test_integers_are_numbers(self):
        assert uncertainty_exponent(1, 0) == uncertainty_exponent(1.0, 0.0) == 1.0
        with pytest.raises(ValueError, match=r"^eps .*, got 0\.0$"):
            uncertainty_exponent(0, 0.5)


class TestLimitExponent:
    def test_endpoints(self):
        assert limit_exponent(0.0) == 1.0
        assert limit_exponent(1.0) == 1.0
        assert limit_exponent(0.5) == pytest.approx(-1.0)

    def test_root_location(self):
        # independent bisection oracle on 1 - 2h, with h written out here
        def one_minus_2h(y):
            return 1 + 2 * (y * math.log2(y) + (1 - y) * math.log2(1 - y))

        lo, hi = 1e-9, 0.5
        for _ in range(200):
            mid = (lo + hi) / 2
            if one_minus_2h(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        assert 0.109 <= root <= 0.111
        assert limit_exponent(root - 1e-9) > 0 > limit_exponent(root + 1e-9)

    def test_convex_and_decreasing(self):
        ys = np.arange(1e-3, 1.0, 1e-3)
        vals = 1.0 - 2.0 * binary_entropy(ys)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9)  # convex
        half = ys < 0.5 - 1e-3
        slopes = np.diff(vals)[half[:-1]]
        assert np.all(slopes < 0)  # strictly decreasing on (0, 1/2)

    def test_slope_formula_matches_finite_difference(self):
        for y in (0.05, 0.11, 0.3, 0.45):
            fd = (limit_exponent(y + 1e-7) - limit_exponent(y - 1e-7)) / 2e-7
            assert limit_exponent_slope(y) == pytest.approx(fd, rel=1e-5)


class TestOneRoundRate:
    def test_limit_towards_small_parameters(self):
        for t0 in (0.05, 0.1, 0.4):
            lam = one_round_rate(0.14, 0.0, 1e-4, 1e-4, 0.5, t0)
            target = limit_exponent(t0) + (0.0 / 2 + 0.14 * t0) / 0.5
            assert abs(lam - target) < 0.01

    def test_frozen_point_against_oracle(self):
        got = one_round_rate(0.14, 0.0, 0.01, 0.1, 1.0, 0.1)
        expect = lambda_oracle(0.14, 0.0, 0.01, 0.1, 1.0, 0.1)
        assert got == pytest.approx(expect, abs=1e-9)
        # frozen value computed from the oracle transcription
        assert got == pytest.approx(0.0736484450, abs=1e-6)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = float(rng.uniform(0.05, 1.0))
            h = float(rng.uniform(0.0, 1.0 - v))
            q = float(rng.uniform(0.01, 0.9))
            kappa = float(rng.uniform(0.05, 3.0))
            r = float(rng.uniform(0.05, 1.0)) / (q * kappa)
            t = float(rng.uniform(0.0, 1.0))
            assert one_round_rate(v, h, q, kappa, r, t) == pytest.approx(
                lambda_oracle(v, h, q, kappa, r, t), abs=1e-7)

    def test_t_zero_h_zero_limit(self):
        lam = one_round_rate(0.5, 0.0, 1e-5, 1e-5, 0.3, 0.0)
        assert abs(lam - 1.0) < 0.01  # limit exponent at zero is 1

    def test_params_wrapper(self):
        p = RateParams(v=0.14, h=0.0, eta=0.01, q=0.01, kappa=0.1, r=1.0)
        assert one_round_rate(p.v, p.h, p.q, p.kappa, p.r, 0.1) == pytest.approx(
            one_round_rate(0.14, 0.0, 0.01, 0.1, 1.0, 0.1))


# gamma (the exponent's eps) from 1e-12 to 1 on a log scale, and a delta
# or failure parameter anywhere in [0, 1] or within 1e-15 to 0.1 of 0, 1/2
# and 1
_GAMMAS = st.floats(-12.0, 0.0).map(lambda x: 10.0 ** x)
_NEAR = st.floats(-15.0, -1.0).map(lambda x: 10.0 ** x)
_POINTS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]),
                    _NEAR, _NEAR.map(lambda x: 0.5 - x),
                    _NEAR.map(lambda x: 0.5 + x), _NEAR.map(lambda x: 1.0 - x))
# relative bound on the kernels' float error; where a value passes through
# 0 it is a difference of terms of order 1, so there the error is a few
# ulps of 1 (5.7e-16 measured) and the floor covers it
_ORACLE_REL, _ORACLE_FLOOR = 1e-12, 2e-15


def _near_oracle(got, want) -> bool:
    want = float(want)
    return abs(got - want) <= _ORACLE_REL * abs(want) + _ORACLE_FLOOR


class TestAgainstOracle:
    """The rate kernels against 50-digit mpmath forms of their formulas
    (tests/oracle.py).  The worst relative errors measured are 1.4e-13
    for the exponent and 6.0e-13 for the rate; exp - 1 in place of expm1
    reads 4.2e-7 at small gamma."""

    @settings(max_examples=150, deadline=None)
    @given(gamma=_GAMMAS, delta=_POINTS)
    @example(gamma=1e-12, delta=0.2)
    @example(gamma=1.0, delta=0.5)
    def test_uncertainty_exponent(self, gamma, delta):
        assert _near_oracle(uncertainty_exponent(gamma, delta),
                            oracle.uncertainty_exponent(gamma, delta))

    @settings(max_examples=150, deadline=None)
    @given(gamma=_GAMMAS, t=_POINTS, v=st.floats(0.05, 1.0),
           h_share=st.floats(0.0, 1.0), q=st.floats(1e-3, 0.9),
           kappa=st.floats(0.05, 3.0))
    @example(gamma=1e-12, t=0.1, v=0.14, h_share=0.0, q=0.05, kappa=2.64)
    def test_one_round_rate(self, gamma, t, v, h_share, q, kappa):
        h = h_share * (1.0 - v)
        r = gamma / (q * kappa)
        assume(r * q * kappa <= 1.0)
        assert _near_oracle(one_round_rate(v, h, q, kappa, r, t),
                            oracle.one_round_rate(v, h, q, kappa, r, t))


class TestWorstCaseRate:
    def test_below_every_sample(self):
        rng = np.random.default_rng(3)
        delta = worst_case_rate(0.14, 0.0, 0.01, 0.1, 1.0)
        for t in rng.uniform(0, 1, 50):
            assert delta <= one_round_rate(0.14, 0.0, 0.01, 0.1, 1.0, float(t)) + 1e-12

    def test_limit_formula(self):
        # limit: min over s of pi(s) + (h/2 + v s)/r
        v, h, r = 0.14, 0.2, 0.6
        delta = worst_case_rate(v, h, 1e-4, 1e-4, r)
        ss = np.arange(0, 1.0001, 1e-4)
        target = float(np.min(1 - 2 * binary_entropy(ss) + (h / 2 + v * ss) / r))
        assert abs(delta - target) < 0.01

    def test_minimizer_near_eta_over_v(self):
        v, eta = 0.14, 0.05
        r = v / (-limit_exponent_slope(eta / v))
        ts = np.arange(0, 1.0001, 1e-4)
        vals = one_round_rate(v, 0.0, 1e-4, 1e-4, r, ts)
        tmin = ts[int(np.argmin(vals))]
        assert tmin == pytest.approx(eta / v, abs=0.01)

    def test_params_wrapper(self):
        p = RateParams(v=0.5, h=0.1, eta=0.1, q=0.05, kappa=0.5, r=1.0)
        assert worst_case_rate(p.v, p.h, p.q, p.kappa, p.r) == pytest.approx(
            worst_case_rate(0.5, 0.1, 0.05, 0.5, 1.0))


class TestRateCoefficients:
    GRID = [(0.14, 0.0, 0.01), (0.14, 0.0, 0.002), (0.5, 0.2, 0.04),
            (0.5, 0.0, 0.02), (1.0, 0.0, 0.1), (1.0, 0.5, 0.05),
            (0.3, 0.3, 0.008)]

    def test_limits_on_grid(self):
        for v, h, eta in self.GRID:
            assert eta < 0.11 * v
            t_val, e_val = rate_T_E(v, h, eta, 1e-4, 1e-4)
            assert abs(t_val - limit_exponent(eta / v)) <= 0.01
            assert abs(e_val - (-2 * limit_exponent_slope(eta / v) / v)) <= 0.05

    def test_positive_at_small_parameters(self):
        t_val, _ = rate_T_E(0.14, 0.0, 0.001, 1e-3, 1e-3)
        assert t_val > 0

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            rate_T_E(0.14, 0.0, 0.08, 1e-3, 1e-3)

    def test_q_and_kappa_domain(self):
        # both enter a divisor; zero must be a ValueError, not a crash
        for q, kappa in ((0.0, 1e-3), (1e-3, 0.0)):
            with pytest.raises(ValueError):
                rate_T_E(0.14, 0.0, 0.01, q, kappa)

    def test_finite_under_perturbation(self):
        rng = np.random.default_rng(4)
        base = (0.14, 0.0, 0.01, 1e-3, 1e-3)
        for _ in range(20):
            jitter = [x * (1 + 1e-6 * rng.normal()) for x in base]
            t_val, e_val = rate_T_E(*jitter)
            assert np.isfinite(t_val) and np.isfinite(e_val)


class TestCertifiedBound:
    def test_sqrt2_epsilon_gives_exact_linear_bound(self):
        ghz = ghz_constants()
        rep = certified_bound(ghz, 12345, 0.01, 0.01, 0.5, np.sqrt(2))
        assert rep.bound == pytest.approx(12345 * rep.T_value)

    def test_affine_increasing_in_n(self):
        ghz = ghz_constants()
        reps = [certified_bound(ghz, n, 0.01, 0.01, 0.5, 2.0**-10)
                for n in (1000, 2000, 3000)]
        d1 = reps[1].bound - reps[0].bound
        d2 = reps[2].bound - reps[1].bound
        assert d1 == pytest.approx(d2, rel=1e-9)
        assert d1 > 0

    def test_frozen_example_matches_transcription(self):
        # q = kappa = 1e-3, eta = 0.01, N = 1e6, eps = 2^-20: the bound is
        # dominated by the penalty term and comes out deeply negative
        ghz = ghz_constants()
        rep = certified_bound(ghz, 10**6, 1e-3, 0.01, 1e-3, 2.0**-20.0)
        r = optimal_multiplier(0.14, 0.01, 1e-3, 1e-3)
        penalty = (np.log2(np.sqrt(2) / 2.0**-20.0) / 1e-6) * (2.0 / r)
        expect = 10**6 * rep.T_value - penalty
        assert rep.bound == pytest.approx(expect, rel=1e-12)
        assert rep.bound < 0

    def test_eta_out_of_range_rejected(self):
        ghz = ghz_constants()
        with pytest.raises(ValueError):
            certified_bound(ghz, 1000, 0.01, 0.08, 0.5, 0.5)

    def test_report_invariant_enforced(self):
        ghz = ghz_constants()
        rep = certified_bound(ghz, 1000, 0.01, 0.01, 0.5, 0.5)
        with pytest.raises(ValueError):
            RateReport(T_value=rep.T_value, E_value=rep.E_value,
                       bound=rep.bound + 1.0, params=rep.params, game=rep.game)

    def test_maximized_bound_positive_at_scale(self):
        ghz = ghz_constants()
        best = maximize_bound(ghz, 10**6, 0.01, 2.0**-20.0)
        assert best.bound > 0


class TestTuneParameters:
    def test_ghz_feasible_with_tenth_slack(self):
        ghz = ghz_constants()
        res = tune_parameters(ghz, 0.01, 0.1)
        assert res.b == pytest.approx(0.1 * res.kappa0 / (2 * res.E_cap))
        assert res.q0 in TUNE_GRID and res.kappa0 in TUNE_GRID

    def test_corner_region_really_qualifies(self):
        ghz = ghz_constants()
        res = tune_parameters(ghz, 0.01, 0.1)
        target = limit_exponent(0.01 / 0.14)
        for q in TUNE_GRID:
            for kappa in TUNE_GRID:
                if q <= res.q0 and kappa <= res.kappa0:
                    t_val, e_val = rate_T_E(0.14, 0.0, 0.01, q, kappa)
                    assert t_val >= target - 0.05 - 1e-12
                    assert e_val <= res.E_cap + 1e-9

    def test_infeasible_above_cutoff(self):
        ghz = ghz_constants()
        with pytest.raises(InfeasibleError):
            tune_parameters(ghz, 0.11 * 0.14 + 0.001, 0.01)
        assert not feasible(ghz, 0.0159, 0.002)

    def test_feasibility_boundary_near_cutoff(self):
        ghz = ghz_constants()
        lo, hi = 0.010, 0.020
        for _ in range(12):
            mid = 0.5 * (lo + hi)
            if feasible(ghz, mid, 0.002):
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 0.0154) <= 0.0005


# ---------------------------------------------------------------------------
# The sequential one-lane search that the lane search replaced, kept
# verbatim as a reference: scalar golden-section steps, each evaluating the
# validated one-round rate at one point.

_REF_LN2 = float(np.log(2.0))
_REF_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def reference_exponent(eps, delta):
    eps = np.asarray(eps, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if np.any(eps <= 0) or np.any(eps > 1):
        raise ValueError("first argument must lie in (0, 1]")
    if np.any(delta < 0) or np.any(delta > 1):
        raise ValueError("second argument must lie in [0, 1]")
    d = np.minimum(delta, 1.0 - delta)
    am1 = -2.0 * eps / (1.0 + 2.0 * eps)
    logd = np.log(np.where(d > 0, d, 1.0))
    sum_m1 = (1.0 - d) * np.expm1(am1 * np.log1p(-d)) \
        + np.where(d > 0, d * np.expm1(am1 * logd), 0.0)
    out = 1.0 - ((1.0 + 2.0 * eps) / eps) * (np.log1p(sum_m1) / _REF_LN2)
    return out if out.ndim else float(out)


def reference_one_round_rate(v, h, q, kappa, r, t):
    t = np.asarray(t, dtype=float)
    gamma = r * q * kappa
    pi_val = reference_exponent(gamma, t)
    honest = (h / 2.0) ** (1.0 + gamma) + v ** (1.0 + gamma) * t
    bracket_m1 = (1.0 - q) * np.expm1(-gamma * pi_val * _REF_LN2) \
        + q * np.expm1(-kappa * _REF_LN2) * honest
    out = -(np.log1p(bracket_m1) / _REF_LN2) / gamma
    return out if out.ndim else float(out)


def reference_refine(f, grid, vals):
    i = int(np.argmin(vals))
    return reference_golden(f, grid[max(i - 1, 0)],
                            grid[min(i + 1, len(grid) - 1)], vals[i])


def reference_golden(f, a, b, floor):
    c = b - _REF_GOLDEN * (b - a)
    d = a + _REF_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if b - a < 1e-12:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _REF_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _REF_GOLDEN * (b - a)
            fd = f(d)
    return float(min(floor, fc, fd))


def reference_worst_case_rate(v, h, q, kappa, r, grid_step=1e-4):
    ts = np.arange(0.0, 1.0 + grid_step / 2, grid_step)
    return reference_refine(
        lambda t: float(reference_one_round_rate(v, h, q, kappa, r, t)),
        ts, reference_one_round_rate(v, h, q, kappa, r, ts))


def reference_rate_T_E(v, h, eta, q, kappa):
    slope = 2.0 * np.log2((eta / v) / (1.0 - eta / v))
    r = min(v / (-slope), 1.0 / (q * kappa))
    delta = reference_worst_case_rate(v, h, q, kappa, r)
    return float(-(h / 2.0 + eta) / r + delta), float(2.0 / r)


def _gamma_cases():
    # gamma = r q kappa: anywhere in (0, 1], tiny, just below 1, or with r
    # at its cap 1/(q kappa), where the product can round above 1
    return st.one_of(st.floats(1e-9, 1.0), st.sampled_from(
        [1e-7, 1.2e-7, 1.0 - 1e-12, 1.0, "cap"]))


@st.composite
def rate_lanes(draw):
    v = draw(st.floats(1e-3, 1.0))
    h = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0 - v)))
    # q near 1 with a large penalty puts the grid minimum at t = 0
    q = draw(st.one_of(st.floats(1e-6, 0.999), st.just(0.999)))
    kappa = draw(st.one_of(st.floats(1e-4, 40.0), st.just(40.0)))
    gamma = draw(_gamma_cases())
    r = 1.0 / (q * kappa) if gamma == "cap" else gamma / (q * kappa)
    return v, h, q, kappa, r


# r at its cap where r q kappa rounds to 1 + 2**-52: both searches reject it
_CAP_Q, _CAP_KAPPA = 0.8452237508974123, 33.66656829455317
_ABOVE_CAP = (0.5, 0.1, _CAP_Q, _CAP_KAPPA, 1.0 / (_CAP_Q * _CAP_KAPPA))
# two lanes at the cap, each with r q kappa == 1.0 exactly
_CAP_LANES = [(0.5, 0.1, 0.3, 3.0, 1.0 / (0.3 * 3.0)),
              (0.7, 0.0, 0.9, 1.5, 1.0 / (0.9 * 1.5))]


def _reference_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


class TestLockstepSearch:
    """Every lane of the lane search equals the sequential search by ==."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(lanes=st.lists(rate_lanes(), min_size=1, max_size=6))
    @example(lanes=[_ABOVE_CAP])
    @example(lanes=[(0.14, 0.0, 0.01, 0.1, 1.0), _ABOVE_CAP])
    def test_worst_case_rate_lanes_equal_sequential_search(self, lanes):
        expect = [_reference_or_error(reference_worst_case_rate, *lane)
                  for lane in lanes]
        cols = [np.array(x) for x in zip(*lanes)]
        if ValueError in expect:
            with pytest.raises(ValueError):
                worst_case_rate(*cols)
            return
        got = worst_case_rate(*cols)
        assert got.shape == (len(lanes),)
        assert got.tolist() == expect
        # the one-lane call takes the same path
        assert worst_case_rate(*lanes[0]) == expect[0]

    def test_grid_minimum_at_t_zero(self):
        lane = (1.0, 0.0, 0.999, 40.0, 0.5 / (0.999 * 40.0))
        ts = np.arange(0.0, 1.0 + 0.5e-4, 1e-4)
        assert int(np.argmin(one_round_rate(*lane, ts))) == 0
        assert worst_case_rate(*lane) == reference_worst_case_rate(*lane)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(v=st.floats(0.05, 1.0), h_frac=st.floats(0.0, 1.0),
           eta_frac=st.floats(0.01, 0.99),
           qs=st.lists(st.floats(1e-6, 0.99), min_size=1, max_size=4),
           kappas=st.lists(st.floats(1e-4, 30.0), min_size=1, max_size=4))
    def test_rate_T_E_grid_equals_pairwise_calls(self, v, h_frac, eta_frac,
                                                 qs, kappas):
        h, eta = h_frac * (1.0 - v), eta_frac * v / 2
        q_lanes = np.repeat(qs, len(kappas))
        k_lanes = np.tile(kappas, len(qs))
        expect = [_reference_or_error(reference_rate_T_E, v, h, eta, q, k)
                  for q, k in zip(q_lanes.tolist(), k_lanes.tolist())]
        if ValueError in expect:
            with pytest.raises(ValueError):
                rate_T_E(v, h, eta, q_lanes, k_lanes)
            return
        t_vals, e_vals = rate_T_E(v, h, eta, q_lanes, k_lanes)
        assert list(zip(t_vals.tolist(), e_vals.tolist())) == expect
        assert rate_T_E(v, h, eta, qs[0], kappas[0]) == expect[0]

    @pytest.mark.parametrize("end", [0, -1])
    def test_golden_points_inside_the_unit_interval(self, end):
        # worst_case_rate takes log d at golden points without a d > 0
        # guard; the grid's end brackets come closest to d = 0
        from direx import rates

        ts, _ = rates._failure_grid()
        a, b = (ts[0], ts[1]) if end == 0 else (ts[-2], ts[-1])
        assert (a, b) == ((0.0, 1e-4) if end == 0 else (0.9999, 1.0))
        seen = []
        targets = np.array([a, b, 0.5 * (a + b), a - 1.0, b + 1.0])

        def f(t, lane):
            seen.extend(t.tolist())
            return (t - targets[lane]) ** 2
        n = len(targets)
        golden_section_lanes(f, np.full(n, a), np.full(n, b), np.full(n, np.inf))
        assert seen and all(0.0 < t < 1.0 for t in seen)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(lanes=st.lists(st.tuples(st.floats(0.0, 0.9), st.floats(1e-13, 0.1),
                                    st.floats(-1.0, 2.0),
                                    st.sampled_from([np.inf, 0.25, 2.0])),
                          min_size=2, max_size=8),
           depth=st.integers(1, 6))
    def test_lanes_independent_of_depth_and_neighbours(self, lanes, depth):
        # the lanes share each call of f; each lane must equal the
        # sequential search and its one-lane walk at any walk depth.
        # Quantized values tie often, so the strict branch is exercised
        from direx import rates

        a, width, centre, floor = (np.array(x) for x in zip(*lanes))
        b = a + width

        def f(t, lane):
            return np.floor(40.0 * (t - centre[lane]) ** 2 * 64) / 64

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rates, "_GOLDEN_DEPTH", depth)
            got = golden_section_lanes(f, a, b, floor).tolist()
        for k in range(len(lanes)):
            def lane_k(t, _=None, k=k):
                return f(t, np.full(np.shape(t), k))

            assert got[k] == reference_golden(lambda t: float(lane_k(t)),
                                              a[k], b[k], floor[k])
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rates, "_GOLDEN_DEPTH", depth)
                alone = golden_section_lanes(lane_k, a[k:k + 1], b[k:k + 1],
                                             floor[k:k + 1])
            assert got[k] == alone[0]

    @pytest.mark.parametrize("n", [1, 2, 25, 144])
    def test_lane_sets_equal_sequential_search(self, n):
        # the cap lanes, then the lanes tune_parameters sends for GHZ at
        # eta = 0.01: their mirrored (q, kappa) products repeat gammas
        # exactly or within an ulp
        q = np.repeat(TUNE_GRID, len(TUNE_GRID))
        kappa = np.tile(TUNE_GRID, len(TUNE_GRID))
        r = optimal_multiplier(0.14, 0.01, q, kappa)
        lanes = _CAP_LANES + [(0.14, 0.0, *x) for x in
                              zip(q.tolist(), kappa.tolist(), r.tolist())]
        lanes = lanes[:n]
        gammas = [r * q * kappa for _, _, q, kappa, r in lanes]
        assert n == 1 or len(set(gammas)) < n
        expect = [reference_worst_case_rate(*lane) for lane in lanes]
        got = worst_case_rate(*(np.array(x) for x in zip(*lanes)))
        assert got.tolist() == expect


class TestLaneDomain:
    """Empty, non-finite and out-of-range lanes are rejected by name."""

    LANE = dict(v=0.14, h=0.0, q=0.1, kappa=0.1, r=1.0)

    @pytest.mark.parametrize("name", ["v", "h", "q", "kappa", "r"])
    def test_empty_lane_set(self, name):
        with pytest.raises(ValueError, match=f"^{name} is empty"):
            worst_case_rate(**{**self.LANE, name: []})

    def test_empty_grids(self):
        with pytest.raises(ValueError, match="^q is empty"):
            rate_T_E(0.14, 0.0, 0.01, [], 0.5)
        with pytest.raises(ValueError, match="^kappa is empty"):
            rate_T_E(0.14, 0.0, 0.01, 0.1, np.array([]))
        for grid in ("q_grid", "kappa_grid"):
            with pytest.raises(ValueError, match=f"^{grid} is empty"):
                maximize_bound(ghz_constants(), 10**6, 0.01, 2.0**-20,
                               **{grid: []})

    @pytest.mark.parametrize("name,bad", [
        ("v", np.nan), ("h", np.inf), ("q", np.nan), ("kappa", np.inf),
        ("r", -np.inf), ("q", 1.5), ("q", 1.0), ("q", 0.0), ("q", -0.1),
        ("kappa", 0.0), ("kappa", -2.0), ("v", -0.5), ("h", -0.5)])
    def test_bad_lane(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} "):
            worst_case_rate(**{**self.LANE, name: bad})
        # one bad lane among good ones rejects the call
        with pytest.raises(ValueError, match=f"^{name} "):
            worst_case_rate(**{**self.LANE, name: [self.LANE[name], bad]})
        if name in ("q", "kappa"):
            with pytest.raises(ValueError, match=f"^{name} "):
                rate_T_E(0.14, 0.0, 0.01, **{"q": 0.1, "kappa": 0.1, name: bad})
        with pytest.raises(ValueError, match=f"^{name} "):
            one_round_rate(**{**self.LANE, name: bad}, t=0.1)

    @pytest.mark.parametrize("kappa", [1e-308, 5e-323])
    def test_gamma_below_the_normal_floats(self, kappa):
        # kappa is positive, but r q kappa = kappa / 10 is subnormal
        lane = {**self.LANE, "q": 0.1, "kappa": kappa, "r": 1.0}
        with pytest.raises(ValueError, match="^r q kappa "):
            worst_case_rate(**lane)
        with pytest.raises(ValueError, match="^r q kappa "):
            one_round_rate(**lane, t=0.1)
        # the least normal float itself is accepted
        tiny = float(np.finfo(float).tiny)
        assert np.isfinite(worst_case_rate(**{**lane, "q": 0.5, "kappa": 2 * tiny}))


class TestUnitIntervalArguments:
    """The [0, 1] arguments of the exponent helpers, and the (0, 1] order
    of uncertainty_exponent, reject nan, infinities and values outside by
    name; an array with one such element is rejected whole."""

    IN_UNIT = {
        "binary_entropy": ("y", binary_entropy),
        "limit_exponent": ("y", limit_exponent),
        "uncertainty_exponent": ("delta",
                                 lambda d: uncertainty_exponent(0.5, d)),
        "one_round_rate": ("t",
                           lambda t: one_round_rate(0.14, 0.0, 0.1, 0.1, 1.0, t)),
    }
    BAD = [np.nan, np.inf, -np.inf, -0.1, 1.1, np.array([0.2, np.nan, 0.4])]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize("fn", sorted(IN_UNIT))
    def test_outside_rejected(self, fn, bad):
        name, call = self.IN_UNIT[fn]
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1\], got "):
            call(bad)

    @pytest.mark.parametrize("fn", sorted(IN_UNIT))
    def test_ends_accepted(self, fn):
        call = self.IN_UNIT[fn][1]
        assert np.all(np.isfinite(call(np.array([0.0, 1.0]))))
        assert np.isfinite(call(0.0)) and np.isfinite(call(1.0))

    @pytest.mark.parametrize("bad", [*BAD, 0.0], ids=repr)
    def test_order_outside_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^eps must lie in "
                                             r"\[2\.2250738585072014e-308, 1\], "
                                             r"the normal floats up to 1, got "):
            uncertainty_exponent(bad, 0.3)

    def test_order_ends(self):
        assert uncertainty_exponent(1.0, 0.3) == pytest.approx(pi_oracle(1.0, 0.3))
        assert np.isfinite(uncertainty_exponent(1e-300, 0.3))

    def test_subnormal_order_rejected(self):
        # (1 + 2 eps) / eps overflows here, and the exponent read -inf
        with pytest.raises(ValueError, match=r"^eps .*, got 5e-324$"):
            uncertainty_exponent(5e-324, 0.3)
        tiny = float(np.finfo(float).tiny)
        with pytest.raises(ValueError, match=r"^eps "):
            uncertainty_exponent(np.array([0.5, np.nextafter(tiny, 0.0)]), 0.3)
        for eps in (tiny, 1.0):
            assert np.isfinite(uncertainty_exponent(eps, 0.3))


def _digest(values) -> str:
    return hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()


class TestPinnedSearches:
    """Digests of the searches' outputs, pinned before the lane search
    replaced the sequential one; they must not move."""

    def test_maximize_bound_digest(self):
        vals = []
        for consts in (ghz_constants(), chsh_constants()):
            for eta in (0.01, 0.005, 0.002, 0.001):
                rep = maximize_bound(consts, 10**6, eta, 2.0**-20)
                vals += [rep.T_value, rep.E_value, rep.bound, rep.params.q,
                         rep.params.kappa, rep.params.r]
        assert _digest(vals) == (
            "dceb72951034939d587268ab6a8d838a3a9debebba7cc025328e64a43522b593")

    def test_tune_parameters_digest(self):
        vals = []
        for consts, eta, delta in ((ghz_constants(), 0.01, 0.1),
                                   (ghz_constants(), 0.005, 0.05),
                                   (chsh_constants(), 0.005, 0.02)):
            res = tune_parameters(consts, eta, delta)
            # the digest was pinned with the result's former prefactor
            # sqrt(2) and rate limit - delta in the fourth and fifth places
            rate = limit_exponent(eta / consts.vG_lower) - delta
            vals += [res.q0, res.kappa0, res.b, SQRT2, rate, res.E_cap]
        assert _digest(vals) == (
            "9b9a313213ee06ab45b615299b800c518d3af7994f43f26515f15504e6aa70c2")

    def test_winner_report_equals_certified_bound(self):
        ghz = ghz_constants()
        best = maximize_bound(ghz, 10**6, 0.01, 2.0**-20)
        again = certified_bound(ghz, 10**6, best.params.q, 0.01,
                                best.params.kappa, 2.0**-20)
        assert best.to_record() == again.to_record()

    def test_pinned_axis_searches_the_other(self):
        ghz = ghz_constants()
        full = maximize_bound(ghz, 10**6, 0.01, 2.0**-20)
        kappas = np.geomspace(1e-3, 30.0, 18)
        pinned = maximize_bound(ghz, 10**6, 0.01, 2.0**-20, q_grid=[0.1])
        assert pinned.params.q == 0.1
        assert pinned.bound == max(
            certified_bound(ghz, 10**6, 0.1, 0.01, float(k), 2.0**-20).bound
            for k in kappas)
        assert pinned.bound <= full.bound


# ---------------------------------------------------------------------------
# The whole-grid searches that the pruned ones replaced, kept as references:
# tune_parameters over all 144 corners of its table, maximize_bound over
# every (q, kappa) lane.

def reference_tune_parameters(game, eta, delta):
    v, h = game.vG_lower, 2.0 * game.fG
    target = limit_exponent(eta / v)
    if not target - delta > 0:
        raise InfeasibleError(
            f"limit rate {target:.4f} does not exceed the slack {delta}")
    grid = TUNE_GRID
    n = len(grid)
    t_table, e_table = (x.reshape(n, n) for x in rate_T_E(
        v, h, eta, np.repeat(grid, n), np.tile(grid, n)))
    best = None
    for i in range(n):
        for j in range(n):
            if np.min(t_table[: i + 1, : j + 1]) < target - delta / 2:
                continue
            m_cap = float(np.max(e_table[: i + 1, : j + 1]))
            b = delta * grid[j] / (2.0 * m_cap)
            cand = TuneResult(q0=grid[i], kappa0=grid[j], b=b, E_cap=m_cap)
            if best is None or cand.b > best.b:
                best = cand
    if best is None:
        raise InfeasibleError("no grid corner achieves the requested rate slack")
    return best


def reference_maximize_bound(game, N, eta, epsilon, q_grid, kappa_grid):
    pairs = [(float(q), float(kappa)) for q in q_grid for kappa in kappa_grid]
    qs, kappas = (np.array(x) for x in zip(*pairs))
    t_vals, e_vals = rate_T_E(game.vG_lower, 2.0 * game.fG, eta, qs, kappas)
    penalty = (np.log2(np.sqrt(2.0) / epsilon) / (qs * kappas)) * e_vals
    bounds = (float(N) * t_vals - penalty).tolist()
    best = 0
    for i, bound in enumerate(bounds):
        if bound > bounds[best]:
            best = i
    return certified_bound(game, N, pairs[best][0], eta, pairs[best][1],
                           epsilon)


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, InfeasibleError) as exc:
        return type(exc), str(exc)


_GAMES = {"ghz": ghz_constants(), "chsh": chsh_constants()}
_DEFAULT_Q = np.geomspace(1e-4, 0.5, 18)
_DEFAULT_KAPPA = np.geomspace(1e-3, 30.0, 18)


@st.composite
def search_grids(draw):
    """A q grid and a kappa grid: random, with a repeated value (tied
    lanes), or with one axis pinned as `direx rate --q`/`--kappa` pins it."""
    qs = draw(st.lists(st.floats(1e-6, 0.99), min_size=1, max_size=5))
    kappas = draw(st.lists(st.floats(1e-4, 30.0), min_size=1, max_size=5))
    shape = draw(st.sampled_from(["random", "repeat", "pin-q", "pin-kappa"]))
    if shape == "repeat":
        qs = qs + qs[:1]
        kappas = kappas[-1:] + kappas
    elif shape == "pin-q":
        qs, kappas = qs[:1], _DEFAULT_KAPPA
    elif shape == "pin-kappa":
        qs, kappas = _DEFAULT_Q, kappas[:1]
    return qs, kappas


class TestPrunedSearches:
    """The row-0 tune scan and the pruned grid search equal the whole-grid
    references by == and to_record()."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(game=st.sampled_from(sorted(_GAMES)), eta_frac=st.floats(0.001, 0.999),
           delta=st.one_of(st.floats(1e-4, 1.0), st.sampled_from([0.002, 0.1]),
                            st.floats(-1.0, 0.0)))
    @example(game="ghz", eta_frac=0.01 / 0.07, delta=0.1)
    @example(game="ghz", eta_frac=0.0159 / 0.07, delta=0.002)
    def test_tune_parameters_equals_corner_scan(self, game, eta_frac, delta):
        consts = _GAMES[game]
        eta = eta_frac * consts.vG_lower / 2
        got = _outcome(tune_parameters, consts, eta, delta)
        assert got == _outcome(reference_tune_parameters, consts, eta, delta)
        if isinstance(got, TuneResult):
            assert got.q0 == TUNE_GRID[0]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(game=st.sampled_from(sorted(_GAMES)), eta_frac=st.floats(0.001, 0.999),
           N=st.one_of(st.integers(0, 10**9), st.sampled_from([10**4, 10**6])),
           eps_exp=st.one_of(st.floats(-0.5, 60.0), st.just(-0.5)),
           grids=search_grids())
    @example(game="ghz", eta_frac=0.01 / 0.07, N=10**6, eps_exp=20.0,
             grids=([0.1, 0.1, 0.2], [0.5, 1.0, 0.5]))
    @example(game="chsh", eta_frac=0.5, N=0, eps_exp=-0.5,
             grids=([0.1, 0.3, 0.1], [3.0, 1.0, 3.0]))
    def test_maximize_bound_equals_all_lanes(self, game, eta_frac, N, eps_exp,
                                             grids):
        consts = _GAMES[game]
        eta = eta_frac * consts.vG_lower / 2
        epsilon = 2.0 ** -eps_exp
        q_grid, kappa_grid = grids
        got = _outcome(maximize_bound, consts, N, eta, epsilon, q_grid,
                       kappa_grid)
        expect = _outcome(reference_maximize_bound, consts, N, eta, epsilon,
                          q_grid, kappa_grid)
        assert got == expect
        if isinstance(got, RateReport):
            assert got.to_record() == expect.to_record()

    @pytest.mark.parametrize("game", sorted(_GAMES))
    def test_default_grids_refine_few_lanes(self, game, monkeypatch):
        from direx import rates

        refined = []

        def counting(v, h, eta, q, kappa):
            refined.append(np.size(q))
            return rate_T_E(v, h, eta, q, kappa)
        monkeypatch.setattr(rates, "rate_T_E", counting)
        for eta in (0.01, 0.005, 0.002, 0.001):
            expect = reference_maximize_bound(_GAMES[game], 10**6, eta,
                                              2.0**-20, _DEFAULT_Q,
                                              _DEFAULT_KAPPA)
            refined.clear()
            assert maximize_bound(_GAMES[game], 10**6, eta, 2.0**-20) == expect
            assert sum(refined) <= 32

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(lanes=st.lists(rate_lanes(), min_size=1, max_size=8))
    def test_probe_bounds_the_worst_case_rate(self, lanes):
        from direx import rates

        cols = [np.array(x) for x in zip(*lanes)]
        try:
            exact = worst_case_rate(*cols)
        except ValueError:
            return
        checked, _ = rates._checked_lanes(*cols)
        probe = rates._probe_minimum(checked)
        ts = np.arange(0.0, 1.0 + 0.5e-4, 1e-4)[::rates._PROBE_STRIDE]
        for k, lane in enumerate(lanes):
            # the probe is the lane's rate at grid points, bit for bit
            assert probe[k] == np.min(one_round_rate(*lane, ts))
        assert np.all(probe >= exact)


class TestFirstMaxPruned:
    """The pruning rule on made-up bounds: a lane is left out only when its
    upper bound lies below the best exact value by more than the margin."""

    @staticmethod
    def run(upper, exact):
        from direx import rates

        taken = []

        def evaluate(idx):
            taken.extend(idx.tolist())
            return [exact[i] for i in idx.tolist()]
        return rates._first_max_pruned(np.array(upper), evaluate), sorted(taken)

    def test_lane_whose_upper_bound_equals_the_best_is_kept(self):
        # lanes 1-8 look best but are not; lane 0 ties with them exactly and
        # its upper bound is exact, so it must be refined and win on index
        upper = [1.0] + [2.0] * 8
        best, taken = self.run(upper, [1.0] * 9)
        assert best == 0
        assert taken == list(range(9))

    def test_margin_keeps_an_upper_bound_rounded_below_a_tie(self):
        upper = [1.0 - 1e-12] + [2.0] * 8
        assert self.run(upper, [1.0] * 9)[0] == 0
        # at exactly the margin the lane is still refined
        from direx import rates

        edge = 1.0 - rates._PRUNE_MARGIN * 1.0
        assert self.run([edge] + [2.0] * 8, [1.0] * 9)[0] == 0

    def test_margin_scales_with_the_best_bound(self):
        # |best| = 1e6: an upper bound 1e-4 below it is within the margin
        upper = [1e6 - 1e-4] + [2e6] * 8
        assert self.run(upper, [1e6] * 9)[0] == 0

    def test_lanes_below_the_margin_are_left_out(self):
        upper = [0.5, 3.0, 0.9, 2.5, 0.1, 2.0, 0.2, 1.5, 0.3]
        exact = [0.4, 1.0, 0.8, 2.0, 0.0, 1.9, 0.1, 1.4, 0.2]
        best, taken = self.run(upper, exact)
        assert best == 3
        # the first batch (lanes 1, 3, 5, 7) reaches 2.0; the next upper
        # bound, 0.9, cannot
        assert taken == [1, 3, 5, 7]

    def test_first_strict_maximum_in_index_order(self):
        upper = [5.0, 4.0, 6.0, 3.0, 7.0]
        exact = [2.0, 3.0, 3.0, 1.0, 2.5]
        assert self.run(upper, exact)[0] == 1


class TestFailureGrid:
    def test_built_on_first_use_and_shared(self):
        import os
        import subprocess
        import sys

        from direx import rates

        # importing the package builds no grid
        code = ("import direx.rates as r, direx.protocols, direx.postprocess;"
                "print(r._failure_grid.cache_info().currsize)")
        src = os.path.dirname(os.path.dirname(rates.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "0"

        ts, terms = rates._failure_grid()
        assert rates._failure_grid()[0] is ts
        assert not ts.flags.writeable
        assert all(not x.flags.writeable for x in terms)
        assert np.array_equal(ts, np.arange(0.0, 1.0 + 0.5e-4, 1e-4))
