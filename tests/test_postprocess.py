import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx import postprocess
from direx.devices import ghz_honest_device
from direx.errors import InfeasibleError
from direx.postprocess import (
    CrossFeedStage,
    ErrorLedger,
    ExtractorSpec,
    LedgerEntry,
    cross_feed,
    dyadic_upper,
    toeplitz_extract,
)
from direx.seeding import parse_master_seed, substream
from direx.xorgames import ghz_constants, ghz_game

MASTER = parse_master_seed("f0" * 32)


def _bits_to_int_lsb(bits: np.ndarray) -> int:
    padded = np.zeros(-(-bits.size // 8) * 8, dtype=np.uint8)
    padded[: bits.size] = bits
    return int.from_bytes(np.packbits(padded, bitorder="little").tobytes(), "little")


def reference_toeplitz(source, seed, m: int) -> np.ndarray:
    """The Toeplitz product as a carryless product of big integers: one
    XOR-shift of the seed per set source bit, then the middle m bits."""
    src = np.asarray(source, dtype=np.uint8) % 2
    sd = np.asarray(seed, dtype=np.uint8) % 2
    n = src.size
    assert sd.size == n + m - 1
    seed_int = _bits_to_int_lsb(sd)
    prod = 0
    for j in np.nonzero(src)[0]:
        prod ^= seed_int << int(j)
    window = (prod >> (n - 1)) & ((1 << m) - 1)
    raw = np.frombuffer(window.to_bytes(-(-m // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:m].astype(np.uint8)


class TestToeplitz:
    def test_matches_explicit_matrix(self):
        rng = np.random.default_rng(0)
        n, m = 40, 12
        src = rng.integers(0, 2, n).astype(np.uint8)
        seed = rng.integers(0, 2, n + m - 1).astype(np.uint8)
        t = np.zeros((m, n), dtype=np.uint8)
        for i in range(m):
            for j in range(n):
                t[i, j] = seed[i - j + n - 1]
        assert np.array_equal(toeplitz_extract(src, seed, m), (t @ src) % 2)

    def test_zero_source_zero_output(self):
        rng = np.random.default_rng(1)
        seed = rng.integers(0, 2, 57).astype(np.uint8)
        assert not toeplitz_extract(np.zeros(50, np.uint8), seed, 8).any()

    def test_linearity(self):
        rng = np.random.default_rng(2)
        seed = rng.integers(0, 2, 57).astype(np.uint8)
        x = rng.integers(0, 2, 50).astype(np.uint8)
        y = rng.integers(0, 2, 50).astype(np.uint8)
        assert np.array_equal(
            toeplitz_extract(x ^ y, seed, 8),
            toeplitz_extract(x, seed, 8) ^ toeplitz_extract(y, seed, 8))

    def test_seed_length_checked(self):
        with pytest.raises(ValueError):
            toeplitz_extract(np.zeros(10, np.uint8), np.zeros(10, np.uint8), 4)

    def test_leftover_hash_exhaustive(self):
        # N = 12, m = 4: average-over-seeds distance from uniform for a
        # min-entropy-8 source stays under 2^-2 (brute-force enumeration)
        rng = np.random.default_rng(3)
        n, m = 12, 4
        support = rng.choice(2**n, size=256, replace=False)
        masks = np.zeros((2 ** (n + m - 1), m), dtype=np.int64)
        for seed in range(2 ** (n + m - 1)):
            for i in range(m):
                row = 0
                for j in range(n):
                    row |= ((seed >> (i - j + n - 1)) & 1) << j
                masks[seed, i] = row
        inputs = np.asarray(support, dtype=np.int64)
        counts = np.bitwise_count(masks[:, :, None] & inputs[None, None, :]) & 1
        outputs = np.zeros((masks.shape[0], inputs.size), dtype=np.int64)
        for i in range(m):
            outputs = (outputs << 1) | counts[:, i, :]
        total_sd = 0.0
        for seed in range(masks.shape[0]):
            hist = np.bincount(outputs[seed], minlength=2**m) / inputs.size
            total_sd += 0.5 * np.abs(hist - 1.0 / 2**m).sum()
        assert total_sd / masks.shape[0] <= 2.0**-2


def _bits(data, n):
    return np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                       max_size=n)), dtype=np.uint8)


def _packed_bits(data, n):
    raw = data.draw(st.binary(min_size=-(-n // 8), max_size=-(-n // 8)))
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8))[:n]


def _random_case(n, m, seed):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, 2, n).astype(np.uint8),
            rng.integers(0, 2, n + m - 1).astype(np.uint8))


class TestToeplitzAgainstReference:
    """The word-packed product equals the big-integer reference bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 300), m=st.integers(1, 200), data=st.data())
    def test_random_sizes(self, n, m, data):
        x, s = _packed_bits(data, n), _packed_bits(data, n + m - 1)
        assert np.array_equal(toeplitz_extract(x, s, m),
                              reference_toeplitz(x, s, m))

    def test_single_bit(self):
        for x, s in ((0, 0), (0, 1), (1, 0), (1, 1)):
            out = toeplitz_extract([x], [s], 1)
            assert out.dtype == np.uint8
            assert out.tolist() == [x & s]
            assert np.array_equal(out, reference_toeplitz([x], [s], 1))

    def test_all_zero_source(self):
        _, s = _random_case(300, 200, seed=4)
        out = toeplitz_extract(np.zeros(300, np.uint8), s, 200)
        assert np.array_equal(out, np.zeros(200, np.uint8))
        assert np.array_equal(
            out, reference_toeplitz(np.zeros(300, np.uint8), s, 200))

    @pytest.mark.parametrize("n", [63, 64, 65])
    @pytest.mark.parametrize("m", [63, 64, 65])
    def test_word_boundaries(self, n, m):
        x, s = _random_case(n, m, seed=n * 100 + m)
        assert np.array_equal(toeplitz_extract(x, s, m),
                              reference_toeplitz(x, s, m))

    def test_benchmark_size(self):
        x, s = _random_case(50_000, 4096, seed=5)
        assert np.array_equal(toeplitz_extract(x, s, 4096),
                              reference_toeplitz(x, s, 4096))

    @pytest.mark.parametrize("block_words", [1, 2, 3, 7])
    def test_small_blocks(self, monkeypatch, block_words):
        """Blocks smaller than one row split the words of a row as well as
        the rows of a residue class."""
        monkeypatch.setattr(postprocess, "_BLOCK_WORDS", block_words)
        for n, m in ((1, 1), (65, 130), (300, 200), (700, 70)):
            x, s = _random_case(n, m, seed=n + m)
            assert np.array_equal(toeplitz_extract(x, s, m),
                                  reference_toeplitz(x, s, m))

    def test_bounded_temporaries(self):
        # one residue class alone would need about 7.8 MB of AND words
        # here without row blocking; the whole call stays under 3 MB
        x, s = _random_case(200_000, 20_000, seed=6)
        tracemalloc.start()
        try:
            toeplitz_extract(x, s, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20

    @pytest.mark.parametrize("n, m", [(0, 4), (10, 0), (10, -3)])
    def test_empty_extraction_rejected(self, n, m):
        with pytest.raises(ValueError):
            toeplitz_extract(np.zeros(n, np.uint8),
                             np.zeros(max(n + m - 1, 0), np.uint8), m)


class TestToeplitzProperties:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 120), m=st.integers(1, 40), data=st.data())
    def test_linear_in_source_and_seed(self, n, m, data):
        x, y = _bits(data, n), _bits(data, n)
        s, r = _bits(data, n + m - 1), _bits(data, n + m - 1)
        assert np.array_equal(
            toeplitz_extract(x ^ y, s, m),
            toeplitz_extract(x, s, m) ^ toeplitz_extract(y, s, m))
        assert np.array_equal(
            toeplitz_extract(x, s ^ r, m),
            toeplitz_extract(x, s, m) ^ toeplitz_extract(x, r, m))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 60), m=st.integers(1, 30),
           seed_len=st.integers(0, 100), data=st.data())
    def test_seed_length_contract(self, n, m, seed_len, data):
        x, seed = _bits(data, n), _bits(data, seed_len)
        if seed_len == n + m - 1:
            assert toeplitz_extract(x, seed, m).shape == (m,)
        else:
            with pytest.raises(ValueError):
                toeplitz_extract(x, seed, m)


class TestExtractorSpec:
    def test_budget_enforced(self):
        with pytest.raises(InfeasibleError):
            ExtractorSpec(source_len=100, output_len=90,
                          claimed_min_entropy=100.0, ext_error_exp=10.0)
        spec = ExtractorSpec(source_len=100, output_len=70,
                             claimed_min_entropy=100.0, ext_error_exp=10.0)
        assert spec.seed_len == 169
        assert spec.ext_error == Fraction(1, 1024)

    @pytest.mark.parametrize("source_len, output_len",
                             [(100, 0), (100, -3), (0, 10), (-5, 10)])
    def test_empty_extraction_rejected(self, source_len, output_len):
        with pytest.raises(ValueError, match="nonempty") as err:
            ExtractorSpec(source_len=source_len, output_len=output_len,
                          claimed_min_entropy=100.0, ext_error_exp=10.0)
        assert not isinstance(err.value, InfeasibleError)


class TestLedger:
    def test_totals_are_exact_sums(self):
        led = ErrorLedger()
        vals = [Fraction(1, 8), Fraction(1, 32), Fraction(3, 64)]
        for i, v in enumerate(vals):
            led.add(LedgerEntry(stage=i, device_id=i % 2, soundness=v,
                                completeness=v / 2, vacuous=False,
                                seed_from_stage=i - 1))
        assert led.total_soundness == sum(vals)
        assert led.total_completeness == sum(vals) / 2
        assert led.check_totals()
        assert led.check_wiring()

    def test_tampered_entry_fails_totals(self):
        led = ErrorLedger()
        led.add(LedgerEntry(0, 0, Fraction(1, 8), Fraction(1, 16), False, -1))
        led.add(LedgerEntry(1, 1, Fraction(1, 4), Fraction(1, 32), False, 0))
        assert led.check_totals()
        led.entries[1] = LedgerEntry(1, 1, Fraction(1, 8), Fraction(1, 32),
                                     False, 0)
        assert not led.check_totals()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40),
                              st.booleans()), max_size=12))
    def test_totals_add_up(self, entries):
        led = ErrorLedger()
        for i, (ks, kc, vacuous) in enumerate(entries):
            led.add(LedgerEntry(stage=i, device_id=i % 2,
                                soundness=Fraction(1, 2 ** ks),
                                completeness=Fraction(3, 2 ** (kc + 2)),
                                vacuous=vacuous, seed_from_stage=i - 1))
        assert led.total_soundness == sum(e.soundness for e in led.entries)
        assert led.total_completeness == sum(e.completeness
                                             for e in led.entries)
        assert led.check_totals()

    def test_wiring_violation_detected(self):
        led = ErrorLedger()
        led.add(LedgerEntry(0, 0, Fraction(1, 2), Fraction(1, 2), False, -1))
        led.add(LedgerEntry(1, 0, Fraction(1, 2), Fraction(1, 2), False, 0))
        assert not led.check_wiring()

    def test_dyadic_upper(self):
        assert dyadic_upper(-3.2) == Fraction(1, 8)
        assert dyadic_upper(-3.0) == Fraction(1, 8)
        assert dyadic_upper(2.5) == Fraction(1)


class TestQueuedStream:
    def test_queue_then_topup(self):
        src = substream(MASTER, "chain", queued=[1, 0, 1])
        first = src.take(3)
        assert first == 0b101
        assert src.take(5) == substream(MASTER, "chain").take(5)
        assert src.consumed == 8

    def test_topup_matches_fallback_stream(self):
        src = substream(MASTER, "chain", queued=np.array([0, 1], dtype=np.uint8))
        bits = [src.take(1) for _ in range(40)]
        assert bits == [0, 1] + substream(MASTER, "chain").take_bits(38).tolist()


class TestCrossFeed:
    STAGES = [
        CrossFeedStage(N=10_000, q=0.5, eta=0.002, kappa=2.6, epsilon_exp=20,
                       m_out=64),
        CrossFeedStage(N=11_000, q=0.5, eta=0.002, kappa=2.6, epsilon_exp=20,
                       m_out=128),
    ]

    def test_two_stage_run(self):
        dev = ghz_honest_device()
        res = cross_feed(ghz_game(), ghz_constants(), dev, dev, self.STAGES,
                         MASTER)
        assert len(res.final_bits) == 128
        assert len(res.ledger.entries) == 2
        assert res.ledger.check_totals()
        assert res.ledger.check_wiring()
        assert [s.device_id for s in res.stages] == [0, 1]
        # second stage seeded by the first stage's 64 bits
        assert res.stages[1].seed_from_previous == 64

    def test_single_stage_is_plain_run(self):
        dev = ghz_honest_device()
        res = cross_feed(ghz_game(), ghz_constants(), dev, dev,
                         self.STAGES[:1], MASTER)
        assert len(res.final_bits) == 64
        assert len(res.ledger.entries) == 1

    def test_soundness_total_is_sum(self):
        dev = ghz_honest_device()
        res = cross_feed(ghz_game(), ghz_constants(), dev, dev, self.STAGES,
                         MASTER)
        led = res.ledger
        assert led.total_soundness == led.entries[0].soundness + led.entries[1].soundness

    @settings(max_examples=6, deadline=None)
    @given(stages=st.lists(st.tuples(st.sampled_from([10_000, 12_000]),
                                     st.integers(10, 20), st.integers(1, 32)),
                           min_size=1, max_size=2),
           ext_error_exp=st.integers(3, 10), label=st.integers(0, 10**6))
    def test_ledger_totals_are_entry_sums(self, stages, ext_error_exp, label):
        dev = ghz_honest_device()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(postprocess, "EXT_ERROR_EXP", ext_error_exp)
            res = cross_feed(
                ghz_game(), ghz_constants(), dev, dev,
                [CrossFeedStage(N=n, q=0.5, eta=0.002, kappa=2.6, epsilon_exp=e,
                                m_out=m) for n, e, m in stages],
                parse_master_seed(f"{label:x}"))
        assert {s.extractor.ext_error_exp for s in res.stages} == {ext_error_exp}
        led = res.ledger
        assert len(led.entries) == len(stages)
        assert led.total_soundness == sum(e.soundness for e in led.entries)
        assert led.total_completeness == sum(e.completeness
                                             for e in led.entries)
        assert led.check_totals() and led.check_wiring()
        for prev, stage in zip(res.stages, res.stages[1:]):
            assert (stage.seed_from_previous + stage.seed_topped_up
                    == stage.seed_bits_used)
            assert stage.seed_from_previous <= len(prev.output_bits)

    def test_output_capped_by_bound(self):
        dev = ghz_honest_device()
        stages = [CrossFeedStage(N=2500, q=0.5, eta=0.002, kappa=2.6,
                                 epsilon_exp=20, m_out=4096)]
        with pytest.raises(InfeasibleError):
            cross_feed(ghz_game(), ghz_constants(), dev, dev, stages, MASTER)

    def test_abort_carries_stage_index(self):
        from direx.devices import AdversarialBehavior
        from direx.postprocess import CrossFeedAbort

        bad = AdversarialBehavior(n=3, program=lambda tr, inp: (0, 0, 0))
        dev = ghz_honest_device()
        with pytest.raises(CrossFeedAbort) as err:
            cross_feed(ghz_game(), ghz_constants(), dev, bad, self.STAGES,
                       MASTER)
        assert err.value.stage == 1

    def test_deterministic(self):
        dev = ghz_honest_device()
        a = cross_feed(ghz_game(), ghz_constants(), dev, dev, self.STAGES,
                       MASTER)
        b = cross_feed(ghz_game(), ghz_constants(), dev, dev, self.STAGES,
                       MASTER)
        assert np.array_equal(a.final_bits, b.final_bits)

