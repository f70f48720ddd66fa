import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from direx.errors import InfeasibleError
from direx.rates import (
    RateParams,
    RateReport,
    TUNE_GRID,
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
    refine_grid_min,
    tune_parameters,
    uncertainty_exponent,
    worst_case_rate,
)
from direx.xorgames import chsh_constants, ghz_constants


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
        assert res.rate == pytest.approx(limit_exponent(0.01 / 0.14) - 0.1)
        assert res.K == pytest.approx(np.sqrt(2))
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

    def test_soundness_error_formula(self):
        ghz = ghz_constants()
        res = tune_parameters(ghz, 0.01, 0.1)
        eps = res.soundness_error(1e-3, 10**6)
        assert eps == pytest.approx(np.sqrt(2) * 2.0 ** (-res.b * 1e-3 * 10**6))


# ---------------------------------------------------------------------------
# The sequential one-lane search that the lockstep search replaced, kept
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
    """Every lane of the lockstep search equals the sequential search by ==."""

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

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(centre=st.floats(-0.2, 1.2), scale=st.floats(0.5, 50.0),
           quantum=st.sampled_from([0.0, 1e-3, 2.0**-6]),
           n=st.integers(2, 400))
    def test_refine_matches_sequential_search(self, centre, scale, quantum, n):
        # quantized values tie often, so the branch on ties is exercised;
        # centres outside [0, 1] put the minimum at either end of the grid
        def f(t):
            val = scale * (np.asarray(t) - centre) ** 2
            return np.floor(val / quantum) * quantum if quantum else val
        grid = np.linspace(0.0, 1.0, n)
        assert refine_grid_min(f, grid, f(grid)) == \
            reference_refine(lambda t: float(f(t)), grid, f(grid))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(lanes=st.lists(st.tuples(st.floats(0.0, 0.9), st.floats(1e-13, 0.1),
                                    st.floats(-1.0, 2.0),
                                    st.sampled_from([np.inf, 0.25, 2.0])),
                          min_size=2, max_size=8),
           depth=st.integers(1, 6))
    def test_lanes_independent_of_depth_and_neighbours(self, lanes, depth):
        # two or more lanes run in lockstep; each lane must equal the
        # sequential search and the one-lane walk at any walk depth.
        # Quantized values tie often, so the strict branch is exercised
        from direx import rates

        a, width, centre, floor = (np.array(x) for x in zip(*lanes))
        b = a + width

        def f(t, lane):
            return np.floor(40.0 * (t - centre[lane]) ** 2 * 64) / 64

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
        ("kappa", 0.0), ("kappa", -2.0)])
    def test_bad_lane(self, name, bad):
        with pytest.raises(ValueError, match=f"^{name} "):
            worst_case_rate(**{**self.LANE, name: bad})
        # one bad lane among good ones rejects the call
        with pytest.raises(ValueError, match=f"^{name} "):
            worst_case_rate(**{**self.LANE, name: [self.LANE[name], bad]})
        if name in ("q", "kappa"):
            with pytest.raises(ValueError, match=f"^{name} "):
                rate_T_E(0.14, 0.0, 0.01, **{"q": 0.1, "kappa": 0.1, name: bad})


def _digest(values) -> str:
    return hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()


class TestPinnedSearches:
    """Digests of the searches' outputs, pinned before the lockstep search
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
            vals += [res.q0, res.kappa0, res.b, res.K, res.rate, res.E_cap]
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
