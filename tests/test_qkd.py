import numpy as np
import pytest

from direx.devices import (
    AdversarialBehavior,
    NoisyHonestBehavior,
    ghz_honest_device,
    random_partially_trusted,
)
from direx.qkd import KdConfig, key_rate_report, run_rkd
from direx.recon import bch_15_5, hamming_code, interleaved
from direx.seeding import numpy_rng, parse_master_seed, substream
from direx.xorgames import ghz_constants, ghz_game

MASTER = parse_master_seed("9a" * 32)
GAME = ghz_game()
GHZ = ghz_constants()


def kd_config(N, q, eta=0.001, code=None, kappa=2.64, epsilon_exp=2.0):
    code = code or hamming_code(N)
    lam = code.supported_lambda() - 1e-9
    return KdConfig(game=GAME, constants=GHZ, N=N, q=q, eta=eta, lam=lam,
                    lam_prime=min(lam + 1e-5, 0.49999), code=code,
                    kappa=kappa, epsilon_exp=epsilon_exp)


def run(cfg, behavior, label, trial=0):
    return run_rkd(cfg, behavior, substream(MASTER, f"{label}-seed", trial),
                   numpy_rng(MASTER, f"{label}-dev", trial),
                   shared_randomness=substream(MASTER, f"{label}-share", trial))


class TestHonestRun:
    def test_keys_agree_every_round(self):
        cfg = kd_config(3000, 0.05)
        out = run(cfg, ghz_honest_device(), "honest")
        assert out.success
        assert out.disagreements == 0
        assert out.keys_match
        assert len(out.alice_key) == 3000
        # no correction: the estimate is the second party's string, which
        # equals the first party's bits
        assert np.array_equal(out.eir.estimate, out.transcript.codes & 1)

    def test_leak_equals_eir_accounting(self):
        cfg = kd_config(3000, 0.05)
        out = run(cfg, ghz_honest_device(), "leak")
        assert out.leaked_bits == out.eir.leaked_bits == cfg.code.n_checks

    def test_public_transcript_recorded_verbatim(self):
        from direx.recon import syndrome

        cfg = kd_config(1000, 0.1)
        out = run(cfg, ghz_honest_device(), "public")
        pub = out.public_transcript
        games = np.flatnonzero(out.transcript.g).tolist()
        assert [i for i, _ in pub["game_round_outputs"]] == games
        assert len(pub["syndrome"]) == cfg.code.n_checks
        # the recorded syndrome is exactly what the first party sent
        alice_bits = np.array(
            [0 if s in "HP" else 1 for s in out.alice_key], dtype=np.uint8)
        assert pub["syndrome"] == "".join(map(str, syndrome(cfg.code, alice_bits)))

    def test_generation_round_equality_structural(self):
        # on a won generation round the first party's bit equals the
        # win-completing bit by construction
        cfg = kd_config(1500, 0.05)
        out = run(cfg, ghz_honest_device(), "struct")
        tr = out.transcript
        outs = tr.outputs[tr.g == 0]  # first component in the highest bit
        assert len(outs)
        a = outs >> 2 & 1
        b = (outs >> 1 ^ outs) & 1
        assert np.array_equal(a, b)  # honest device wins all gen rounds

    def test_certified_bits_positive_at_pinned_scale(self):
        cfg = kd_config(10_000, 0.05)
        out = run(cfg, ghz_honest_device(), "pinned")
        assert out.success and out.keys_match
        assert out.certified_bits > 0
        rep = key_rate_report(out)
        assert rep["certified_bits"] == pytest.approx(
            out.report.bound - out.leaked_bits)

    def test_leakage_floor_at_zero(self):
        # tiny run: bound negative, certified bits floored with the flag up
        cfg = kd_config(400, 0.05)
        out = run(cfg, ghz_honest_device(), "floor")
        rep = key_rate_report(out)
        assert rep["certified_bits"] == 0.0
        assert rep["leakage_exceeds_bound"]


class TestAdversarialAndNoisy:
    def test_all_losing_device_aborts_somewhere(self):
        bad = AdversarialBehavior(n=3, program=lambda tr, inp: (1, 0, 0))
        cfg = kd_config(1000, 0.2, eta=0.001)
        out = run(cfg, bad, "bad")
        assert not out.success
        assert out.abort_reason in ("failure threshold", "reconciliation")
        # the device loses every round: disagreement fraction is 1 on
        # generation rounds
        gens = np.count_nonzero(out.transcript.g == 0)
        assert out.disagreements == gens

    def test_noisy_device_corrected_by_block_code(self):
        # block-decodable interleaved code: light noise spreads thin enough
        # for every block to stay within its radius almost always
        code = interleaved(bch_15_5(), 100)  # length 1500, 3 per block
        noisy = NoisyHonestBehavior(base=ghz_honest_device(), p=0.004)
        cfg = kd_config(1500, 0.05, eta=0.01, code=code)
        matched = 0
        trials = 10
        for t in range(trials):
            out = run(cfg, noisy, "noisy", trial=t)
            if out.success and out.keys_match:
                matched += 1
        assert matched >= 8

    def test_disagreement_fraction_small_under_light_noise(self):
        noisy = NoisyHonestBehavior(base=ghz_honest_device(), p=0.01)
        cfg = kd_config(4000, 0.05, eta=0.02)
        out = run(cfg, noisy, "frac")
        gens = np.count_nonzero(out.transcript.g == 0)
        assert out.disagreements / gens <= 0.02


class TestAzumaTailsEmpirical:
    def test_generation_win_deficit_tail(self):
        # honest device: per-round generation win probability is 1; the
        # empirical deficit sum never goes positive, trivially within bound
        cfg = kd_config(500, 0.1)
        outs = [run(cfg, ghz_honest_device(), "tail", trial=t)
                for t in range(30)]
        for eps in (0.05, 0.1):
            bound = np.exp(-eps**2 * 500 / 2)
            tail = sum(1 for o in outs
                       if o.transcript.failures + o.disagreements >= eps * 500)
            freq = tail / 30
            sigma = np.sqrt(max(freq * (1 - freq), 1e-3) / 30)
            assert freq <= bound + 3 * sigma

    def test_noisy_game_failure_tail(self):
        p = 0.06
        q, n = 0.2, 1500
        noisy = NoisyHonestBehavior(base=ghz_honest_device(), p=p)
        cfg = kd_config(n, q, eta=0.08)
        outs = [run(cfg, noisy, "ntail", trial=t) for t in range(60)]
        per_round_fail = p / 2
        for eps in (0.05, 0.1):
            bound = np.exp(-eps**2 * q * n / 3)
            tail = sum(1 for o in outs
                       if o.transcript.failures - q * n * per_round_fail
                       >= eps * q * n)
            freq = tail / 60
            sigma = np.sqrt(max(freq * (1 - freq), 1e-3) / 60)
            assert freq <= bound + 3 * sigma


class TestConfigValidation:
    def test_lambda_domain(self):
        with pytest.raises(ValueError):
            kd_config(100, 0.05).__class__(
                game=GAME, constants=GHZ, N=100, q=0.05, eta=0.001,
                lam=0.6, lam_prime=0.7, code=hamming_code(100),
                kappa=1.0, epsilon_exp=20.0)

    def test_partially_trusted_device_refused(self):
        # a single-part device has no output distribution to answer from;
        # the component count stops it before the responder is built
        beh = random_partially_trusted(np.random.default_rng(3), 0.6, 0.2)
        with pytest.raises(ValueError,
                           match="^device has 1 components, game needs 3$"):
            run(kd_config(64, 0.1), beh, "pt")

    def test_code_length_must_match(self):
        with pytest.raises(ValueError):
            KdConfig(game=GAME, constants=GHZ, N=100, q=0.05, eta=0.001,
                     lam=0.4, lam_prime=0.45, code=hamming_code(50),
                     kappa=1.0, epsilon_exp=20.0)

    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5])
    def test_test_probability_domain(self, q):
        # q = 0 plays no game round and q = 1 no generation round
        with pytest.raises(ValueError,
                           match=rf"^q must lie in \(0, 1\), got {q}$"):
            kd_config(15, q)

    @pytest.mark.parametrize("name, value", [
        ("kappa", -1.0), ("kappa", 0.0), ("kappa", float("nan")),
        ("kappa", float("inf")), ("epsilon_exp", -5.0),
        ("epsilon_exp", float("nan")), ("epsilon_exp", 1075.0)])
    def test_rate_arguments_checked_at_construction(self, name, value):
        # these used to pass unchecked: a bad kappa or epsilon_exp played
        # a whole session, or failed after it without naming the field
        with pytest.raises(ValueError, match=rf"^{name} must .*, got {value}$"):
            kd_config(15, 0.2, **{name: value})

    def test_eir_epsilon_convention(self):
        cfg = kd_config(1000, 0.05)
        assert cfg.eir_epsilon == pytest.approx(np.exp(-0.05 * 1000))


class TestKeyRateReport:
    def test_reports_the_stored_count(self):
        # run_rkd computes max(bound - leaked, 0) once; the report reads
        # that count rather than recomputing it
        import dataclasses

        cfg = kd_config(10_000, 0.05)
        out = run(cfg, ghz_honest_device(), "zeroleak")
        assert out.certified_bits == max(out.report.bound - out.leaked_bits, 0.0)
        edited = dataclasses.replace(out, certified_bits=123.0)
        assert key_rate_report(edited)["certified_bits"] == 123.0

    def test_ledger_recount(self):
        cfg = kd_config(10_000, 0.05)
        out = run(cfg, ghz_honest_device(), "recount")
        rep = key_rate_report(out)
        # independent recount: bound minus syndrome bits
        assert rep["certified_bits"] == pytest.approx(
            out.report.bound - cfg.code.n_checks)
        assert rep["seed_bits_used"] == out.transcript.seed_bits_used

    def test_no_report_outside_certification_domain(self):
        # eta >= v_G/2: the protocol succeeds, but no expansion bound exists
        cfg = kd_config(2000, 0.1, eta=0.1)
        out = run(cfg, ghz_honest_device(), "nobound")
        assert out.success and out.report is None and out.certified_bits == 0
        with pytest.raises(ValueError, match="rate report"):
            key_rate_report(out)

    def test_one_report_per_config(self, monkeypatch):
        # the bound depends on the config alone: sessions share one report,
        # looked up through qkd.certified_bound on the first success
        from direx import qkd
        from direx.rates import certified_bound

        calls = []

        def counted(*args):
            calls.append(args)
            return certified_bound(*args)
        monkeypatch.setattr(qkd, "certified_bound", counted)
        cfg = kd_config(3000, 0.05)
        outs = [run(cfg, ghz_honest_device(), "shared", trial=t) for t in range(3)]
        assert all(o.success for o in outs) and len(calls) == 1
        assert all(o.report is outs[0].report for o in outs)
        assert outs[0].report == certified_bound(GHZ, 3000, 0.05, 0.001, 2.64, 0.25)
        assert kd_config(3000, 0.05).rate_report == outs[0].report
