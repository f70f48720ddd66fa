"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with plain pytest; a summary section prints one pass/fail line per
criterion at the end of the session.
"""

import numpy as np
import pytest
from fractions import Fraction

from direx.devices import NoisyHonestBehavior, ghz_honest_device, random_partially_trusted
from direx.entropy import (
    INEQUALITY_SLACK,
    dmax,
    pinching_channel,
    renyi_divergence,
)
from direx.postprocess import CrossFeedStage, cross_feed
from direx.protocols import (
    EXACT_RUN_SLACK,
    ProtocolConfig,
    biased_bit_sampler,
    completeness_error_bound,
    exact_small_run,
    monte_carlo,
    verify_suite,
)
from direx.qkd import KdConfig, key_rate_report, run_rkd
from direx.rates import feasible, limit_exponent, limit_exponent_slope, rate_T_E
from direx.recon import (
    bch_15_5,
    eir_run,
    hamming_code,
    hash_bits_required,
    random_linear_code,
)
from direx.seeding import numpy_rng, parse_master_seed, substream
from direx.xorgames import (
    SamplingSpec,
    chsh_game,
    classical_optimum,
    ghz_constants,
    ghz_game,
    ghz_anticommuter,
    optimal_score,
    trust_coefficient_check,
)

from criterion_report import record_criterion

MASTER = parse_master_seed("acce9ce" * 9)


def check(number, description, passed, detail=""):
    record_criterion(number, description, bool(passed), detail)
    assert passed, f"criterion {number}: {description} ({detail})"


class TestCriterion1:
    def test_ghz_scores(self):
        q, _ = optimal_score(ghz_game())
        classical = classical_optimum(ghz_game())
        ok = abs(q - 1.0) <= 1e-9 and classical == 0.75
        check(1, "GHZ quantum score 1 within 1e-9, classical optimum 3/4",
              ok, f"quantum {q!r}, classical {classical!r}")


class TestCriterion2:
    def test_chsh_score_against_dense_oracle(self):
        # independent oracle: dense grid over both phases
        th1 = np.linspace(0, np.pi, 2001)
        th2 = np.linspace(0, 2 * np.pi, 4001)
        t1, t2 = np.meshgrid(th1, th2, indexing="ij")
        vals = np.abs(0.25 * (1 + np.exp(1j * t1) + np.exp(1j * t2)
                              - np.exp(1j * (t1 + t2))))
        oracle = float(vals.max())
        q, _ = optimal_score(chsh_game())
        ok = abs(q - oracle) <= 1e-6 and abs(q - np.sqrt(2) / 2) <= 1e-6
        check(2, "CHSH score sqrt(2)/2 within 1e-6 of dense-grid oracle",
              ok, f"score {q:.9f}, oracle {oracle:.9f}")


class TestCriterion3:
    def test_ghz_trust_coefficient_certification(self):
        spec = SamplingSpec(grid_points=64, random_samples=10_000,
                            multistarts=20, seed=0)
        res = trust_coefficient_check(ghz_game(), 0.14,
                                      ghz_anticommuter(), spec, qG=1.0)
        ok = (res.passed and res.max_violation <= 1e-9
              and res.samples_used >= 10_000 and res.analytic_failures == 0)
        check(3, "GHZ trust coefficient 0.14 certified over >= 1e4 samples",
              ok, f"max violation {res.max_violation:.2e}, "
                  f"samples {res.samples_used}")


class TestCriterion4:
    def test_threshold_and_feasibility_boundary(self):
        # smallest positive root of the limit exponent by bisection
        lo, hi = 1e-9, 0.5
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if limit_exponent(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        ghz = ghz_constants()
        blo, bhi = 0.010, 0.020
        for _ in range(12):
            mid = 0.5 * (blo + bhi)
            if feasible(ghz, mid, 0.002):
                blo = mid
            else:
                bhi = mid
        boundary = 0.5 * (blo + bhi)
        ok = 0.109 <= root <= 0.111 and abs(boundary - 0.0154) <= 0.0005
        check(4, "rate threshold 0.110 and GHZ feasibility cutoff 0.0154",
              ok, f"root {root:.5f}, boundary {boundary:.5f}")


class TestCriterion5:
    def test_uncertainty_sweep(self):
        assert INEQUALITY_SLACK == 1e-9  # the criterion's stated tolerance
        checks = verify_suite("uncertainty", numpy_rng(MASTER, "acc5"), 1000)
        violations = sum(not c.holds for c in checks)
        check(5, "uncertainty principle: 1000 instances x 3 exponents",
              violations == 0, f"{violations} violations")


class TestCriterion6:
    def test_one_and_multi_shot_divergence(self):
        assert EXACT_RUN_SLACK == 1e-8  # the criterion's stated tolerance
        rng = numpy_rng(MASTER, "acc6")
        fails = 0
        for i in range(100):
            v = float(rng.uniform(0.1, 1.0))
            h = float(rng.uniform(0.0, 1.0 - v))
            beh = random_partially_trusted(rng, v, h, env_dim=2)
            q = float(rng.uniform(0.05, 0.5))
            kappa = float(rng.uniform(0.1, 2.0))
            r = float(rng.uniform(0.05, 1.0)) / (q * kappa)
            n = (i % 3) + 1
            if not exact_small_run(n, beh, q, kappa, r).holds:
                fails += 1
        check(6, "one-shot and multi-shot divergence: 100 exact runs",
              fails == 0, f"{fails} violations")


class TestCriterion7:
    def test_rate_limits_on_grid(self):
        grid = [(0.14, 0.0, 0.01), (0.14, 0.0, 0.002), (0.14, 0.8, 0.005),
                (0.5, 0.2, 0.04), (0.5, 0.0, 0.02), (0.5, 0.5, 0.01),
                (1.0, 0.0, 0.1), (1.0, 0.5, 0.05), (0.3, 0.3, 0.008)]
        worst_t, worst_e = 0.0, 0.0
        for v, h, eta in grid:
            assert eta < 0.11 * v
            t_val, e_val = rate_T_E(v, h, eta, 1e-4, 1e-4)
            worst_t = max(worst_t, abs(t_val - limit_exponent(eta / v)))
            worst_e = max(worst_e,
                          abs(e_val + 2 * limit_exponent_slope(eta / v) / v))
        ok = worst_t <= 0.01 and worst_e <= 0.05
        check(7, "rate coefficients approach their small-parameter limits",
              ok, f"max |T - pi| {worst_t:.4f}, max E gap {worst_e:.4f}")


class TestCriterion8:
    def test_noisy_completeness(self):
        p = 0.03  # uniform corruption: win rate 1 - p/2 = 0.985
        eta, eta_prime = 0.05, p / 2
        q, n_rounds = Fraction(1, 4), 2000  # q N = 500
        cfg = ProtocolConfig(mode="R", N=n_rounds, q=q, eta=eta,
                             game=ghz_game(), w_G=1.0)
        noisy = NoisyHonestBehavior(base=ghz_honest_device(), p=p)
        bound = completeness_error_bound(eta, eta_prime, float(q), n_rounds)
        stats = monte_carlo(cfg, noisy, 1000, MASTER, completeness_bound=bound)
        ok = (not stats.bound_exceeded) and stats.abort_rate < 0.05
        check(8, "noisy device at win rate 0.985 stays within the "
                 "completeness bound and aborts < 5%",
              ok, f"abort rate {stats.abort_rate:.4f}, bound {bound:.4f}")


class TestCriterion9:
    def test_eir_unique_regime(self):
        code = bch_15_5()
        rng = numpy_rng(MASTER, "acc9a")
        recovered = 0
        randomness = 0
        for _ in range(1000):
            x = rng.integers(0, 2, 15).astype(np.uint8)
            e = np.zeros(15, np.uint8)
            e[rng.choice(15, 2, replace=False)] = 1  # fraction 0.15 -> 2 flips
            res = eir_run(x, x ^ e, code, 0.3, 0.0)
            recovered += (not res.aborted) and np.array_equal(res.estimate, x)
            randomness += res.randomness_used
        check(9, "reconciliation, unique regime: 1000/1000 with zero "
                 "shared randomness",
              recovered == 1000 and randomness == 0,
              f"{recovered}/1000, randomness {randomness}")

    def test_eir_list_regime(self):
        rng = numpy_rng(MASTER, "acc9b")
        code = random_linear_code(20, 14, rng, list_cap=64)
        eps = 2.0**-10
        k = hash_bits_required(code.list_cap, eps)
        assert k == int(np.ceil(np.log2(2 * code.list_cap / eps)))
        shared = substream(MASTER, "acc9b-hash")
        failures = 0
        trials = 10_000
        for _ in range(trials):
            x = rng.integers(0, 2, 20).astype(np.uint8)
            e = np.zeros(20, np.uint8)
            e[rng.choice(20, 8, replace=False)] = 1  # fraction 0.4
            res = eir_run(x, x ^ e, code, 0.1, eps, shared=shared)
            if res.aborted or not np.array_equal(res.estimate, x):
                failures += 1
        freq = failures / trials
        sigma = np.sqrt(max(freq * (1 - freq), eps) / trials)
        ok = freq <= eps + 3 * sigma
        check(9, "reconciliation, list regime: failure within the hash budget",
              ok, f"failures {failures}/{trials} vs eps {eps:.2e}")


class TestCriterion10:
    def test_seed_accounting(self):
        stream = substream(MASTER, "acc10")
        n = 100_000
        _, used = biased_bit_sampler(Fraction(1, 256), stream, n)
        h = -(1 / 256) * np.log2(1 / 256) - (255 / 256) * np.log2(255 / 256)
        cap = 1.1 * n * h + 128
        check(10, "biased-bit sampler consumption near the entropy rate",
              used <= cap, f"used {used} vs cap {cap:.0f}")


class TestCriterion11:
    def test_cross_feed_three_stages(self):
        stages = [
            CrossFeedStage(N=10_000, q=0.5, eta=0.002, kappa=2.6,
                           epsilon_exp=20, m_out=64),
            CrossFeedStage(N=11_000, q=0.5, eta=0.002, kappa=2.6,
                           epsilon_exp=20, m_out=256),
            CrossFeedStage(N=25_000, q=0.5, eta=0.002, kappa=2.6,
                           epsilon_exp=20, m_out=4096),
        ]
        dev = ghz_honest_device()
        res = cross_feed(ghz_game(), ghz_constants(), dev, dev, stages, MASTER)
        sizes = [len(s.output_bits) for s in res.stages]
        ledger = res.ledger
        entry_sum = sum((e.soundness for e in ledger.entries), Fraction(0))
        ok = (sizes == [64, 256, 4096]
              and ledger.check_totals() and ledger.check_wiring()
              and ledger.total_soundness == entry_sum
              and len(res.final_bits) == 4096)
        check(11, "three-stage cross-feed completes with exact additive ledger",
              ok, f"outputs {sizes}")


class TestCriterion12:
    def test_rkd_end_to_end(self):
        n_rounds = 10_000
        code = hamming_code(n_rounds)
        cfg = KdConfig(game=ghz_game(), constants=ghz_constants(),
                       N=n_rounds, q=0.05, eta=0.001,
                       lam=code.supported_lambda() - 1e-9,
                       lam_prime=0.49999, code=code,
                       kappa=2.64, epsilon_exp=2.0)
        out = run_rkd(cfg, ghz_honest_device(),
                      substream(MASTER, "acc12-seed"),
                      numpy_rng(MASTER, "acc12-dev"),
                      shared_randomness=substream(MASTER, "acc12-share"))
        rep = key_rate_report(out) if out.success else {}
        ledger_consistent = out.success and (
            out.leaked_bits == out.eir.leaked_bits == code.n_checks)
        ok = (out.success and out.keys_match and ledger_consistent
              and out.certified_bits > 0)
        check(12, "key distribution end-to-end: keys identical, positive "
                  "certified bits",
              ok, f"leaked {out.leaked_bits}, "
                  f"certified {out.certified_bits:.0f}")


class TestCriterion13:
    def test_entropy_kernel_properties(self):
        rng = numpy_rng(MASTER, "acc13")
        pinch = pinching_channel([2, 2])
        violations = 0
        for _ in range(1000):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = a @ a.conj().T
            rho /= rho.trace().real
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            sigma = b @ b.conj().T
            sigma /= sigma.trace().real
            if abs(renyi_divergence(rho, rho, 1.5)) > 1e-9:
                violations += 1
            vals = [renyi_divergence(rho, sigma, al) for al in (1.1, 1.5, 2.0)]
            if not (vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9):
                violations += 1
            if vals[2] > dmax(rho, sigma) + 1e-9:
                violations += 1
            alpha = float(rng.uniform(1.05, 2.0))
            if renyi_divergence(pinch(rho), pinch(sigma), alpha) > \
                    renyi_divergence(rho, sigma, alpha) + 1e-9:
                violations += 1
        check(13, "divergence kernel: identity, order, domination, "
                  "data processing over 1000 instances",
              violations == 0, f"{violations} violations")
