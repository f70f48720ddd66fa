import hashlib
from itertools import product
from math import comb

import numpy as np
import pytest
from fractions import Fraction

from direx import protocols
from direx.cli import EXIT_VIOLATION, main
from direx.devices import (
    AdversarialBehavior,
    NoisyHonestBehavior,
    PAULI_X,
    PAULI_Y,
    PartiallyTrustedBehavior,
    ResponseTable,
    ghz_honest_device,
    random_partially_trusted,
)
from direx.entropy import BlockOperator, renyi_divergence
from direx.protocols import (
    CategoricalSampler,
    ProtocolConfig,
    biased_bit_sampler,
    completeness_error_bound,
    conditional_environment_states,
    exact_small_run,
    make_responder,
    monte_carlo,
    partial_trust_checks,
    run_protocol_r,
    symbols_to_bits,
    wilson_interval,
)
from direx.rates import worst_case_rate
from direx.seeding import numpy_rng, parse_master_seed, substream
from direx.xorgames import classical_optimum, ghz_game

MASTER = parse_master_seed("be" * 32)
GAME = ghz_game()


def ghz_config(N, q, eta):
    return ProtocolConfig(mode="R", N=N, q=q, eta=eta, game=GAME, w_G=1.0)


class TestBiasedSampler:
    def test_half_is_identity_coding(self):
        s = substream(MASTER, "s1")
        bits, used = biased_bit_sampler(Fraction(1, 2), s, 5000)
        assert used == 5000

    def test_entropy_rate_small_bias(self):
        s = substream(MASTER, "s2")
        n = 100_000
        bits, used = biased_bit_sampler(Fraction(1, 256), s, n)
        h = -(1 / 256) * np.log2(1 / 256) - (255 / 256) * np.log2(255 / 256)
        assert used <= 1.1 * n * h + 128
        assert abs(used - n * h) <= 0.1 * n * h

    def test_exact_distribution_chi_square(self):
        # frequencies of (pairs of consecutive bits) against exact products
        s = substream(MASTER, "s3")
        n = 200_000
        q = Fraction(1, 5)
        bits, _ = biased_bit_sampler(q, s, n)
        arr = np.array(bits)
        p_hat = arr.mean()
        assert abs(p_hat - 0.2) <= 3 * np.sqrt(0.2 * 0.8 / n)
        # serial independence: correlation of consecutive bits
        corr = np.corrcoef(arr[:-1], arr[1:])[0, 1]
        assert abs(corr) <= 4 / np.sqrt(n)

    def test_deterministic_replay(self):
        runs = []
        for _ in range(2):
            s = substream(MASTER, "s4")
            bits, _ = biased_bit_sampler(0.05, s, 2000)
            runs.append(bits)
        assert runs[0] == runs[1]

    def test_categorical_multiway_exact(self):
        s = substream(MASTER, "s6")
        weights = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        sampler = CategoricalSampler(weights, s)
        n = 60_000
        draws = np.array([sampler.sample() for _ in range(n)])
        for k, w in enumerate(weights):
            p = float(w)
            assert abs((draws == k).mean() - p) <= 3 * np.sqrt(p * (1 - p) / n)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CategoricalSampler([Fraction(1, 2)], substream(MASTER, "s7"))


class TestProtocolR:
    def test_honest_ghz_success_no_failures(self):
        cfg = ghz_config(5000, Fraction(1, 20), 0.01)
        out = run_protocol_r(cfg, ghz_honest_device(),
                             substream(MASTER, "r1"), numpy_rng(MASTER, "d1"))
        assert out.success
        assert out.transcript.failures == 0
        tr = out.transcript
        assert np.all(tr.codes[tr.g == 1] == "HTPF".index("P"))

    def test_threshold_formula(self):
        cfg = ghz_config(10_000, Fraction(1, 20), 0.01)
        assert cfg.abort_threshold == pytest.approx(5.0)

    def test_vacuous_threshold_never_aborts(self):
        # eta above the winning probability deficit makes the test vacuous
        always_fail = AdversarialBehavior(n=3, program=lambda tr, inp: (1, 0, 0))
        cfg = ghz_config(500, Fraction(1, 2), 0.49)
        out = run_protocol_r(cfg, always_fail, substream(MASTER, "r2"),
                             numpy_rng(MASTER, "d2"))
        # threshold 0.49*0.5*500 = 122.5 vs about 125 failures: this device
        # straddles; use a threshold at or above q N instead
        cfg2 = ProtocolConfig(mode="R", N=500, q=Fraction(1, 2), eta=0.4999,
                              game=GAME, w_G=0.5 + 0.4999)
        # w_G + eta - 1 >= 0 makes the threshold at least q N
        assert cfg2.abort_threshold >= 0.49 * 250

    def test_failing_device_aborts(self):
        # outputs even parity always: fails every game round with odd parity
        bad = AdversarialBehavior(n=3, program=lambda tr, inp: (0, 0, 0))
        cfg = ghz_config(2000, Fraction(1, 10), 0.01)
        out = run_protocol_r(cfg, bad, substream(MASTER, "r3"),
                             numpy_rng(MASTER, "d3"))
        assert not out.success

    def test_symbol_consistency(self):
        cfg = ghz_config(3000, Fraction(1, 10), 0.2)
        out = run_protocol_r(cfg, NoisyHonestBehavior(base=ghz_honest_device(),
                                                      p=0.2),
                             substream(MASTER, "r4"), numpy_rng(MASTER, "d4"))
        tr = out.transcript
        # a symbol code is 2g + bit, so its game bit is g
        assert np.array_equal(tr.codes >> 1, tr.g)

    def test_seed_accounting_split(self):
        cfg = ghz_config(4000, Fraction(1, 10), 0.01)
        out = run_protocol_r(cfg, ghz_honest_device(),
                             substream(MASTER, "r5"), numpy_rng(MASTER, "d5"))
        tr = out.transcript
        games = np.count_nonzero(tr.g)
        assert tr.input_bits_used == 2 * games  # uniform 4-way inputs cost 2 bits
        assert tr.seed_bits_used == tr.g_bits_used + tr.input_bits_used

    def test_abort_decision_pure_function_of_failures(self):
        cfg = ghz_config(1000, Fraction(1, 10), 0.05)
        out = run_protocol_r(cfg, NoisyHonestBehavior(base=ghz_honest_device(),
                                                      p=0.5),
                             substream(MASTER, "r6"), numpy_rng(MASTER, "d6"))
        assert out.success == (out.transcript.failures <= cfg.abort_threshold)

    def test_component_count_checked(self):
        from direx.devices import chsh_honest_device

        cfg = ghz_config(10, Fraction(1, 2), 0.01)
        with pytest.raises(ValueError):
            run_protocol_r(cfg, chsh_honest_device(),
                           substream(MASTER, "r7"), numpy_rng(MASTER, "d7"))

    def test_partially_trusted_device_refused(self):
        # a single-part device has no output distribution to answer from;
        # the component count stops it before the responder is built
        beh = random_partially_trusted(np.random.default_rng(3), 0.6, 0.2)
        cfg = ghz_config(10, Fraction(1, 2), 0.01)
        with pytest.raises(ValueError,
                           match="^device has 1 components, game needs 3$"):
            run_protocol_r(cfg, beh, substream(MASTER, "r8"),
                           numpy_rng(MASTER, "d8"))

    @pytest.mark.parametrize("N, q", [(0, Fraction(1, 2)),
                                      (5, Fraction(1, 10**6))])
    def test_columns_without_a_game_round(self, N, q):
        """A run that draws no game round still gives N-long columns of
        the tape's dtypes: its empty game and input columns index as
        integers, not as float64 arrays."""
        out = run_protocol_r(ghz_config(N, q, 0.01), ghz_honest_device(),
                             substream(MASTER, "r9"), numpy_rng(MASTER, "d9"))
        tr = out.transcript
        assert not tr.g.any()
        for column, dtype in ((tr.g, np.uint8), (tr.input_index, np.int64),
                              (tr.codes, np.uint8)):
            assert column.dtype == dtype and column.shape == (N,)
        assert tr.input_bits_used == 0


class TestMonteCarlo:
    def test_honest_zero_abort(self):
        cfg = ghz_config(500, Fraction(1, 10), 0.05)
        stats = monte_carlo(cfg, ghz_honest_device(), 40, MASTER)
        assert stats.abort_rate == 0.0
        assert stats.wilson_low == 0.0

    def test_noisy_within_completeness_bound(self):
        p = 0.03
        cfg = ghz_config(2000, Fraction(1, 8), 0.1)
        bound = completeness_error_bound(0.1, p / 2, 1 / 8, 2000)
        stats = monte_carlo(cfg, NoisyHonestBehavior(base=ghz_honest_device(), p=p),
                            60, MASTER, completeness_bound=bound)
        assert not stats.bound_exceeded

    def test_always_failing_aborts_everywhere(self):
        bad = AdversarialBehavior(n=3, program=lambda tr, inp: (0, 0, 0))
        cfg = ghz_config(800, Fraction(1, 4), 0.02)
        stats = monte_carlo(cfg, bad, 25, MASTER)
        assert stats.abort_rate == 1.0

    def test_replay_stable(self):
        cfg = ghz_config(300, Fraction(1, 10), 0.05)
        noisy = NoisyHonestBehavior(base=ghz_honest_device(), p=0.1)
        a = monte_carlo(cfg, noisy, 10, MASTER)
        b = monte_carlo(cfg, noisy, 10, MASTER)
        assert a.records == b.records

    def test_wilson_interval_sane(self):
        lo, hi = wilson_interval(5, 100)
        assert 0 < lo < 0.05 < hi < 0.15

    def test_parallel_workers_match_serial(self):
        cfg = ghz_config(200, Fraction(1, 10), 0.2)
        noisy = NoisyHonestBehavior(base=ghz_honest_device(), p=0.2)
        serial = monte_carlo(cfg, noisy, 8, MASTER, workers=1)
        parallel = monte_carlo(cfg, noisy, 8, MASTER, workers=2)
        assert serial.records == parallel.records


GHZ_INPUTS = tuple(bits for bits, _, _ in GAME.entries)


def local_ghz_tables():
    """The 4^3 = 64 local deterministic GHZ strategies as ResponseTables:
    each component maps its own input bit to an output bit in one of 4
    ways, on every game input (the all-zero generation input is one of
    them)."""
    maps = list(product((0, 1), repeat=2))  # (output on 0, output on 1)
    return [ResponseTable(n=3, entries={
                (None, bits): tuple(f[x] for f, x in zip(strategy, bits))
                for bits in GHZ_INPUTS})
            for strategy in product(maps, repeat=3)]


def ghz_win_probability(table) -> Fraction:
    """The exact winning probability of a table answered through
    make_responder: a game input is won when the output parity is
    (1 - sign) / 2."""
    responder = make_responder(AdversarialBehavior(n=3, program=table))
    outputs = responder(GHZ_INPUTS, np.arange(len(GHZ_INPUTS)), None)
    return sum((p for (_, p, sign), out in zip(GAME.entries, outputs.tolist())
                if out.bit_count() % 2 == (1 - sign) // 2), Fraction(0))


class TestLocalStrategies:
    def test_no_local_ghz_strategy_beats_the_classical_optimum(self):
        assert (0, 0, 0) in GHZ_INPUTS
        tables = local_ghz_tables()
        for table in tables:
            responder = make_responder(AdversarialBehavior(n=3, program=table))
            outputs = responder(GHZ_INPUTS, np.arange(len(GHZ_INPUTS)), None)
            assert [int(o) for o in outputs] == [
                int("".join(map(str, table.entries[(None, bits)])), 2)
                for bits in GHZ_INPUTS]
        wins = [ghz_win_probability(table) for table in tables]
        assert len(wins) == 64
        assert max(wins) == Fraction(3, 4) == classical_optimum(GAME)

    def test_best_local_strategy_aborts_at_the_binomial_tail(self):
        # soundness: each round of a local strategy that wins w of the game
        # inputs fails independently with probability q (1 - w), so its
        # abort rate is P[Bin(N, q (1 - w)) > threshold], w = 3/4 at best;
        # the sizes put that tail in [0.2, 0.8], where it can be missed on
        # either side (a device that signals wins more and aborts less)
        best = max(local_ghz_tables(), key=ghz_win_probability)
        w = classical_optimum(GAME)
        assert ghz_win_probability(best) == w
        n, q = 400, Fraction(1, 4)
        cfg = ghz_config(n, q, 0.25)
        p = q * (1 - w)
        tail = float(sum(comb(n, k) * p**k * (1 - p)**(n - k)
                         for k in range(n + 1) if k > cfg.abort_threshold))
        assert 0.2 <= tail <= 0.8
        stats = monte_carlo(cfg, AdversarialBehavior(n=3, program=best), 400,
                            parse_master_seed("07" * 32))
        assert stats.wilson_low <= tail <= stats.wilson_high


class TestSymbolEncoding:
    def test_two_bits_per_symbol(self):
        bits = symbols_to_bits("HTPF")
        assert list(bits) == [0, 0, 0, 1, 1, 0, 1, 1]


class TestExactSmallRun:
    def test_sweep_holds(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            v = float(rng.uniform(0.1, 1.0))
            h = float(rng.uniform(0.0, 1.0 - v))
            beh = random_partially_trusted(rng, v, h, env_dim=2)
            q = float(rng.uniform(0.05, 0.5))
            kappa = float(rng.uniform(0.1, 2.0))
            r = float(rng.uniform(0.05, 1.0)) / (q * kappa)
            n = int(rng.integers(1, 4))
            res = exact_small_run(n, beh, q, kappa, r)
            assert res.holds

    def test_one_round_matches_direct_oneshot(self):
        rng = np.random.default_rng(6)
        beh = random_partially_trusted(rng, 0.7, 0.1, env_dim=2)
        q, kappa, r = 0.2, 0.8, 1.5
        gamma = r * q * kappa
        res = exact_small_run(1, beh, q, kappa, r)
        cs = conditional_environment_states(beh)
        rho_env = cs["H"] + cs["T"]
        labels = (((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),))
        rho_blocks = ((1 - q) * cs["H"], (1 - q) * cs["T"],
                      q * cs["P"], q * cs["F"])
        sigma_blocks = ((1 - q) * rho_env, (1 - q) * rho_env,
                        q * rho_env, q * 2 ** (1 / (q * r)) * rho_env)
        direct = renyi_divergence(BlockOperator(labels, rho_blocks),
                                  BlockOperator(labels, sigma_blocks),
                                  1 + gamma)
        assert res.lhs == pytest.approx(direct, abs=1e-10)
        assert res.rhs == pytest.approx(
            -worst_case_rate(0.7, 0.1, q, kappa, r))

    def test_trusted_bell_two_rounds(self):
        # maximally entangled device-environment pair, fully trusted
        psi = np.zeros(4, dtype=complex)
        psi[0] = psi[3] = 1 / np.sqrt(2)
        beh = PartiallyTrustedBehavior(
            v=1.0, h=0.0, trusted_pair=(PAULI_X, PAULI_Y),
            dishonest=np.zeros((2, 2)), state=psi, env_dim=2)
        res = exact_small_run(2, beh, 0.25, 1.0, 1.0)
        assert res.holds
        assert res.rhs - res.lhs >= 0  # measured slack

    def test_round_count_capped(self):
        rng = np.random.default_rng(8)
        beh = random_partially_trusted(rng, 0.5, 0.2)
        with pytest.raises(ValueError):
            exact_small_run(5, beh, 0.2, 1.0, 1.0)

    # (q, kappa, r): q past 1 gave a negative g-weight and a support
    # violation; a negative kappa and r passed the old gamma check and
    # failed only in the rate
    BAD_ARGUMENTS = [(1.5, 0.5, 1.0), (0.3, -1.0, -1.0), (0.0, 1.0, 1.0),
                     (0.3, 0.0, 1.0), (0.3, 1.0, float("nan")),
                     (0.3, float("inf"), 1.0), (0.3, 1.0, -1.0),
                     (0.3, 1.0, 4.0), (0.3, 1e-300, 1e-10)]

    @pytest.mark.parametrize("q, kappa, r", BAD_ARGUMENTS)
    def test_arguments_checked_by_name_first(self, monkeypatch, q, kappa, r):
        beh = random_partially_trusted(np.random.default_rng(9), 0.5, 0.2)
        with pytest.raises(ValueError) as rate_err:
            worst_case_rate(beh.v, beh.h, q, kappa, r)
        # nothing is built before the check
        monkeypatch.setattr(type(beh), "kraus_for", None)
        with pytest.raises(ValueError) as err:
            exact_small_run(2, beh, q, kappa, r)
        assert type(err.value) is ValueError
        assert str(err.value) == str(rate_err.value)


class TestPartialTrustOperatorBounds:
    @staticmethod
    def violations():
        """Failed partial_trust_checks over 60 random devices (240 checks)."""
        rng = np.random.default_rng(9)
        failed = 0
        for _ in range(60):
            v = float(rng.uniform(0.05, 1.0))
            h = float(rng.uniform(0.0, 1.0 - v))
            beh = random_partially_trusted(rng, v, h,
                                           env_dim=int(rng.integers(1, 5)))
            failed += sum(not c.holds for c in partial_trust_checks(beh))
        return failed

    def test_four_inequalities_hold_exactly(self):
        assert self.violations() == 0

    def test_swapped_trusted_outcomes_violate(self, monkeypatch):
        # a mutant that exchanges the trusted outcomes "0" and "1"
        def swapped(behavior):
            cs = conditional_environment_states(behavior)
            cs["0"], cs["1"] = cs["1"], cs["0"]
            return cs
        monkeypatch.setattr(protocols, "conditional_environment_states", swapped)
        assert self.violations() == 178  # of 240; the least misses by 6e-5
        assert main(["verify", "--suite", "partial-trust",
                     "--instances", "4"]) == EXIT_VIOLATION


class TestAzumaTails:
    def test_game_failure_tail_bound(self):
        # known per-round failure probability: noisy honest device
        p = 0.1
        q = 0.25
        N = 800
        trials = 200
        cfg = ghz_config(N, Fraction(1, 4), 0.45)
        noisy = NoisyHonestBehavior(base=ghz_honest_device(), p=p)
        stats = monte_carlo(cfg, noisy, trials, MASTER)
        per_round_fail = p / 2
        for eps in (0.05, 0.1):
            bound = np.exp(-eps**2 * q * N / 3)
            tail = sum(1 for r in stats.records
                       if r.failures - q * N * per_round_fail >= eps * q * N)
            freq = tail / trials
            sigma = np.sqrt(max(freq * (1 - freq), 1e-4) / trials)
            assert freq <= bound + 3 * sigma


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


def _round_tuples(tr) -> list:
    """The (g, input, outputs, symbol) tuples of a transcript's rounds, or
    (g, None, None, symbol) when no inputs were recorded, rebuilt from its
    columns."""
    g = tr.g.tolist()
    symbols = ["HTPF"[c] for c in tr.codes.tolist()]
    if tr.outputs is None:
        return [(gi, None, None, s) for gi, s in zip(g, symbols)]
    n = len(tr.inputs[0])
    outs = [tuple((o >> (n - 1 - j)) & 1 for j in range(n))
            for o in tr.outputs.tolist()]
    ins = [tr.inputs[k] for k in tr.input_index.tolist()]
    return list(zip(g, ins, outs, symbols))


def _transcript_digest(tr, *extra) -> str:
    return _digest(*extra, tr.failures, tr.g_bits_used, tr.input_bits_used,
                   _round_tuples(tr))


def _outcome_digest(out) -> str:
    return _transcript_digest(out.transcript, out.success, out.threshold)


class TestRoundEngineDigests:
    """Transcripts, keys and ledgers pinned as sha256 digests.

    The digests were taken from the separate round loops that protocol R
    and key distribution had before they shared one engine; same seeds
    must keep giving bit-identical results, for noisy devices through the
    one-pass responder and for adversaries through their scripts.
    """

    ADVERSARY = {"variant": "adversarial", "n": 3, "table": {
        "0,0,0": [1, 1, 0], "1,1,0": [0, 1, 1], "0,1,1": [1, 0, 0],
        "3@1,0,1": [1, 1, 1], "0@0,0,0": [0, 0, 1], "7@0,0,0": [1, 1, 1]}}

    def _r(self, behavior, label, record_rounds=True):
        cfg = ghz_config(1500, Fraction(1, 10), 0.2)
        return run_protocol_r(cfg, behavior, substream(MASTER, f"{label}-seed"),
                              numpy_rng(MASTER, f"{label}-dev"),
                              record_rounds=record_rounds)

    def test_protocol_r_noisy_ghz(self):
        noisy = NoisyHonestBehavior(base=ghz_honest_device(), p=0.2)
        assert _outcome_digest(self._r(noisy, "eng-r")) == (
            "66775af93e61201ed5ae4728508e0530dc5a398b23c7afdc1f2ca69d15f30fd2")
        assert _outcome_digest(self._r(noisy, "eng-r", record_rounds=False)) == (
            "6d572c0f53c2616d614ebb434221c9ecd330e12d4f024d9aec2171060a1d6dec")

    def test_protocol_r_adversarial_table(self):
        from direx.devices import behavior_from_record

        adv = behavior_from_record(self.ADVERSARY)
        assert _outcome_digest(self._r(adv, "eng-adv")) == (
            "259658389afec9efe7fa8e558386b9567efcfde1dd7adf310847d537dcca0002")

    def test_key_distribution(self):
        from direx.qkd import KdConfig, run_rkd
        from direx.recon import hamming_code
        from direx.xorgames import ghz_constants

        code = hamming_code(2000)
        lam = code.supported_lambda() - 1e-9
        cfg = KdConfig(game=GAME, constants=ghz_constants(), N=2000, q=0.1,
                       eta=0.05, lam=lam, lam_prime=min(lam + 1e-5, 0.49999),
                       code=code, kappa=2.64, epsilon_exp=2.0)
        out = run_rkd(cfg, NoisyHonestBehavior(base=ghz_honest_device(), p=0.001),
                      substream(MASTER, "kd-seed", 1), numpy_rng(MASTER, "kd-dev", 1),
                      shared_randomness=substream(MASTER, "kd-share", 1))
        # a successful run with one disagreement and one failed game round
        assert (out.success, out.disagreements, out.transcript.failures) == (True, 1, 1)
        wins = cfg.N - out.transcript.failures - out.disagreements
        assert _digest(out.alice_key, out.bob_key, out.public_transcript,
                       out.seed_bits_used, wins, out.disagreements,
                       out.leaked_bits) == (
            "981e0b45953aad070c3ef76ce0df0abbf80832b18110e27f23e56ccde4fa8e77")
        assert _transcript_digest(out.transcript) == (
            "234f57503a14e6ff68f4488c837fefbfb12f6835ca54484e630a2e6cbe65e4b4")

    def test_cross_feed_criterion_11(self):
        from direx.postprocess import CrossFeedStage, cross_feed
        from direx.xorgames import ghz_constants

        stages = [CrossFeedStage(N=n, q=0.5, eta=0.002, kappa=2.6,
                                 epsilon_exp=20, m_out=m)
                  for n, m in ((10_000, 64), (11_000, 256), (25_000, 4096))]
        dev = ghz_honest_device()
        res = cross_feed(GAME, ghz_constants(), dev, dev, stages,
                         parse_master_seed("d1" * 32))
        assert _digest(np.packbits(res.final_bits).tobytes().hex(),
                       res.ledger.to_record()) == (
            "91e797451eaf6523a159e686abfd13194486905615b6c29d65ebe822ae2589f5")
