import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx.errors import DecodeFailureError, ListOverflowError
from direx.recon import (
    AffineHashFamily,
    GF2m,
    bch_15_5,
    eir_run,
    gf2_null_space,
    hamming_code,
    hash_bits_required,
    LinearCode,
    interleaved,
    list_decode,
    random_linear_code,
    syndrome,
    unique_decode,
    verify_min_distance,
)
from direx.seeding import parse_master_seed, substream

MASTER = parse_master_seed("ac" * 32)


class TestCodes:
    def test_bch_parameters(self):
        code = bch_15_5()
        assert (code.length, code.n_checks) == (15, 10)
        assert verify_min_distance(code) == 7
        assert code.unique_radius == 3
        assert code.supported_lambda() == pytest.approx(0.3)

    def test_hamming_distance_exhaustive(self):
        code = hamming_code(15)
        assert verify_min_distance(code) == 3

    def test_shortened_hamming_distance(self):
        code = hamming_code(21)
        assert verify_min_distance(code) == 3

    def test_null_space_orthogonal(self):
        code = bch_15_5()
        gen = gf2_null_space(code.check_matrix)
        assert np.all((code.check_matrix @ gen.T) % 2 == 0)


class TestSyndrome:
    def test_codeword_zero_syndrome(self):
        code = bch_15_5()
        gen = gf2_null_space(code.check_matrix)
        word = gen.sum(axis=0) % 2
        assert not syndrome(code, word).any()

    def test_linearity(self):
        code = hamming_code(15)
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, 15).astype(np.uint8)
        y = rng.integers(0, 2, 15).astype(np.uint8)
        assert np.array_equal(
            (syndrome(code, x) + syndrome(code, y)) % 2, syndrome(code, x ^ y))

    def test_against_dense_multiply(self):
        # lengths 15, 10^4, 105 and 1003 (not a multiple of 8); uint8 words
        # with entries past 1 read each entry mod 2
        rng = np.random.default_rng(1)
        for code in (bch_15_5(), hamming_code(10**4),
                     interleaved(bch_15_5(), 7), hamming_code(1003)):
            h = code.check_matrix
            for high in (2, 256):
                for _ in range(5):
                    w = rng.integers(0, high, code.length).astype(np.uint8)
                    s = syndrome(code, w)
                    assert s.dtype == np.uint8
                    assert np.array_equal(
                        s, (h.astype(int) @ w.astype(int)) % 2), code.name


class TestUniqueDecode:
    def test_zero_syndrome_zero_error(self):
        code = bch_15_5()
        assert not unique_decode(code, np.zeros(10, np.uint8)).any()

    def test_plant_and_recover_weights(self):
        code = bch_15_5()
        rng = np.random.default_rng(2)
        for w in (1, 2, 3):
            for _ in range(50):
                e = np.zeros(15, np.uint8)
                e[rng.choice(15, w, replace=False)] = 1
                assert np.array_equal(unique_decode(code, syndrome(code, e)), e)

    def test_weight_beyond_bound_fails(self):
        code = bch_15_5()
        rng = np.random.default_rng(3)
        failures = 0
        for _ in range(50):
            e = np.zeros(15, np.uint8)
            e[rng.choice(15, 5, replace=False)] = 1
            try:
                got = unique_decode(code, syndrome(code, e))
                # a wrong-but-in-radius leader may exist; it cannot be e
                assert not np.array_equal(got, e)
            except DecodeFailureError:
                failures += 1
        assert failures > 0

    def test_interleaved_blockwise(self):
        code = interleaved(bch_15_5(), 4)
        rng = np.random.default_rng(4)
        e = np.zeros(60, np.uint8)
        for b in range(4):
            e[b * 15 + rng.choice(15, 3, replace=False)] = 1
        assert np.array_equal(unique_decode(code, syndrome(code, e)), e)


class TestListDecode:
    def _code(self):
        rng = np.random.default_rng(5)
        return random_linear_code(20, 14, rng, list_cap=64)

    def test_radius_zero_singleton(self):
        code = self._code()
        out = list_decode(code, np.zeros(14, np.uint8), 0)
        assert len(out) == 1 and not out[0].any()

    def test_planted_error_in_list(self):
        code = self._code()
        rng = np.random.default_rng(6)
        for _ in range(100):
            e = np.zeros(20, np.uint8)
            e[rng.choice(20, 8, replace=False)] = 1
            cands = list_decode(code, syndrome(code, e), 8)
            assert any(np.array_equal(c, e) for c in cands)

    def test_list_size_capped(self):
        code = self._code()
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = rng.integers(0, 2, 14).astype(np.uint8)
            assert len(list_decode(code, s, 8)) <= 64

    def test_overflow_raises(self):
        rng = np.random.default_rng(8)
        tight = random_linear_code(20, 14, rng, list_cap=1)
        e = np.zeros(20, np.uint8)
        e[:8] = 1
        with pytest.raises(ListOverflowError):
            list_decode(tight, syndrome(tight, e), 8)


def dense_patterns(n, radius):
    """Every error vector of weight <= radius, built densely."""
    for w in range(radius + 1):
        for positions in itertools.combinations(range(n), w):
            e = np.zeros(n, np.uint8)
            e[list(positions)] = 1
            yield e


class TestTablesAgainstDenseReference:
    @pytest.mark.parametrize("code", [
        hamming_code(7), hamming_code(21), bch_15_5(),
        interleaved(hamming_code(7), 3)], ids=lambda c: c.name)
    def test_unique_leaders(self, code):
        # one block's leaders from h @ e; every syndrome of the block
        # either decodes to its leader or has none within the radius
        n, per = code.block_length, code.n_checks // code.interleave
        h = code.check_matrix[:per, :n]
        leaders = {}
        for e in dense_patterns(n, code.unique_radius):
            key = tuple((h @ e) % 2)
            assert key not in leaders
            leaders[key] = e
        for bits in itertools.product((0, 1), repeat=per):
            for b in range(code.interleave):
                s = np.zeros(code.n_checks, np.uint8)
                s[b * per:(b + 1) * per] = bits
                if bits not in leaders:
                    with pytest.raises(DecodeFailureError):
                        unique_decode(code, s)
                    continue
                want = np.zeros(code.length, np.uint8)
                want[b * n:(b + 1) * n] = leaders[bits]
                assert np.array_equal(unique_decode(code, s), want)

    def test_list_tables_match_enumeration(self):
        code = random_linear_code(12, 7, np.random.default_rng(15),
                                  list_cap=2**12)
        for radius in (0, 2, 4):
            cosets = {}
            for e in dense_patterns(12, radius):
                cosets.setdefault(tuple(syndrome(code, e)), []).append(e)
            for bits in itertools.product((0, 1), repeat=7):
                got = list_decode(code, np.array(bits, np.uint8), radius)
                want = cosets.get(bits, [])
                assert len(got) == len(want)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_collision_within_radius_raises(self):
        h = hamming_code(7).check_matrix.copy()
        h[:, 2] = h[:, 1]  # two equal columns: the distance is really 2
        code = LinearCode(name="bad", check_matrix=h, min_distance=3)
        with pytest.raises(ValueError, match="collision"):
            unique_decode(code, np.zeros(3, np.uint8))


UNIQUE_CODES = [hamming_code(n) for n in (3, 7, 16, 100, 1000)] + [
    bch_15_5(), interleaved(hamming_code(7), 3), interleaved(bch_15_5(), 2)]


class TestDecodingRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(code=st.sampled_from(UNIQUE_CODES), data=st.data())
    def test_unique_recovers_planted_error(self, code, data):
        weight = data.draw(st.integers(0, code.unique_radius))
        positions = data.draw(st.lists(st.integers(0, code.length - 1),
                                       min_size=weight, max_size=weight,
                                       unique=True))
        e = np.zeros(code.length, np.uint8)
        e[positions] = 1
        assert np.array_equal(unique_decode(code, syndrome(code, e)), e)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), length=st.integers(6, 14),
           data=st.data())
    def test_list_contains_planted_error(self, seed, length, data):
        checks = data.draw(st.integers(2, length - 1))
        radius = data.draw(st.integers(0, 4))
        code = random_linear_code(length, checks, np.random.default_rng(seed),
                                  list_cap=2**length)
        positions = data.draw(st.lists(st.integers(0, length - 1),
                                       max_size=radius, unique=True))
        e = np.zeros(length, np.uint8)
        e[positions] = 1
        s = syndrome(code, e)
        cands = list_decode(code, s, radius)
        assert any(np.array_equal(c, e) for c in cands)
        for c in cands:
            assert np.array_equal(syndrome(code, c), s)
            assert c.sum() <= radius


def gf2_rank(rows) -> int:
    """Rank over GF(2) of vectors packed into ints."""
    basis = []
    for v in rows:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


class TestGF2m:
    """Field axioms of GF(2^m).mul, on which AffineHashFamily's pairwise
    independence rests."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_field_axioms(self, data):
        m = data.draw(st.integers(2, 16))
        gf = GF2m(m)
        a, b, c = (data.draw(st.integers(0, 2**m - 1)) for _ in range(3))
        assert 0 <= gf.mul(a, b) < 2**m
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
        assert gf.mul(a, 1) == a
        if a:
            # by distributivity a*b is the XOR of a*x^i over the set bits of
            # b, so a*b = 0 for some b != 0 exactly when these m products
            # are linearly dependent, as for every a sharing a factor with
            # a reducible modulus
            assert gf2_rank(gf.mul(a, 1 << i) for i in range(m)) == m


class TestHashFamilies:
    def test_equal_inputs_equal_hashes(self):
        fam = AffineHashFamily(n_bits=8, k=4)
        seed = substream(MASTER, "h1").take(fam.seed_bits)
        x = [1, 0, 1, 1, 0, 0, 1, 0]
        assert fam.evaluate(seed, x) == fam.evaluate(seed, np.array(x, np.uint8))

    def test_affine_collision_rate_exhaustive(self):
        # exhaustive sweep of every seed and input pair at n = 8, k = 4
        fam = AffineHashFamily(n_bits=8, k=4)
        assert fam.seed_bits == 12
        table = np.empty((2**fam.seed_bits, 2**8), dtype=np.uint8)
        for seed in range(2**fam.seed_bits):
            for x in range(2**8):
                bits = [(x >> (7 - i)) & 1 for i in range(8)]
                table[seed, x] = fam.evaluate(seed, bits)
        worst = 0.0
        rng = np.random.default_rng(9)
        pairs = {(int(a), int(b)) for a, b in
                 rng.integers(0, 256, size=(400, 2)) if a != b}
        for a, b in pairs:
            rate = float(np.mean(table[:, a] == table[:, b]))
            worst = max(worst, abs(rate - 2.0**-4))
        assert worst <= 1e-12  # exact pairwise family

    def test_hash_bits_rule(self):
        assert hash_bits_required(64, 2.0**-10) == 17
        assert hash_bits_required(32, 2.0**-10) == 16

    @pytest.mark.parametrize("eps", [2.0**-1050, 0.0, -0.25, float("nan"),
                                     float("inf")])
    def test_hash_bits_reject_eps(self, eps):
        # 2 L / eps overflows a float at 2^-1050; the ceiling must not
        # reach int() as an infinity
        with pytest.raises(ValueError, match="eps"):
            hash_bits_required(64, eps)

    def test_hash_bits_need_eps_below_twice_the_cap(self):
        # 2 L / eps <= 1 would ask for no hash bits, or a negative number
        assert hash_bits_required(64, 127.0) == 1
        assert hash_bits_required(64, np.nextafter(128.0, 0.0)) == 1
        for eps in (128.0, 1000.0):
            with pytest.raises(ValueError, match=f"eps = {eps}"):
                hash_bits_required(64, eps)

    def test_eir_run_rejects_eps_above_twice_the_cap(self):
        lc = random_linear_code(20, 14, np.random.default_rng(12), list_cap=64)
        x = np.zeros(20, np.uint8)
        with pytest.raises(ValueError, match="eps"):
            eir_run(x, x, lc, 0.1, 1000.0, shared=substream(MASTER, "h3"))

    def test_eir_run_rejects_tiny_eps(self):
        lc = random_linear_code(20, 14, np.random.default_rng(12), list_cap=64)
        x = np.zeros(20, np.uint8)
        with pytest.raises(ValueError, match="eps"):
            eir_run(x, x, lc, 0.1, 2.0**-1050, shared=substream(MASTER, "h3"))


class TestEir:
    def test_equal_strings(self):
        code = bch_15_5()
        x = np.ones(15, np.uint8)
        res = eir_run(x, x.copy(), code, 0.3, 0.0)
        assert not res.aborted
        assert np.array_equal(res.estimate, x)
        assert res.randomness_used == 0
        assert res.leaked_bits == 10

    def test_unique_regime_always_recovers(self):
        code = bch_15_5()
        rng = np.random.default_rng(11)
        for _ in range(1000):
            x = rng.integers(0, 2, 15).astype(np.uint8)
            e = np.zeros(15, np.uint8)
            e[rng.choice(15, 2, replace=False)] = 1
            res = eir_run(x, x ^ e, code, 0.3, 0.0)
            assert not res.aborted and np.array_equal(res.estimate, x)
            assert res.randomness_used == 0

    def test_leak_accounting_exact(self):
        code = bch_15_5()
        x = np.zeros(15, np.uint8)
        res = eir_run(x, x, code, 0.3, 0.0)
        assert res.leaked_bits == code.n_checks
        lc = random_linear_code(20, 14, np.random.default_rng(12), list_cap=64)
        sh = substream(MASTER, "h3")
        res = eir_run(np.zeros(20, np.uint8), np.zeros(20, np.uint8), lc, 0.1,
                      2.0**-10, shared=sh)
        k = hash_bits_required(64, 2.0**-10)
        assert res.leaked_bits == 14 + k
        fam = AffineHashFamily(n_bits=20, k=k)
        assert res.randomness_used == fam.seed_bits

    def test_list_regime_failure_rate_under_budget(self):
        rng = np.random.default_rng(13)
        code = random_linear_code(20, 14, rng, list_cap=64)
        eps = 2.0**-10
        sh = substream(MASTER, "h4")
        failures = 0
        trials = 3000
        for _ in range(trials):
            x = rng.integers(0, 2, 20).astype(np.uint8)
            e = np.zeros(20, np.uint8)
            e[rng.choice(20, 8, replace=False)] = 1
            res = eir_run(x, x ^ e, code, 0.1, eps, shared=sh)
            if res.aborted or not np.array_equal(res.estimate, x):
                failures += 1
        freq = failures / trials
        sigma = np.sqrt(max(freq * (1 - freq), eps) / trials)
        assert freq <= eps + 3 * sigma

    def test_promise_violation_reported(self):
        code = bch_15_5()
        x = np.zeros(15, np.uint8)
        y = x.copy()
        y[:7] = 1
        res = eir_run(x, y, code, 0.3, 0.0)
        assert res.promise_violated

    def test_unique_regime_exhaustive_promise_sweep(self):
        # correctness depends only on the error pattern by linearity, so
        # sweep every pattern inside the promise radius
        code = bch_15_5()
        x = np.zeros(15, np.uint8)
        for w in range(4):
            for positions in itertools.combinations(range(15), w):
                e = np.zeros(15, np.uint8)
                e[list(positions)] = 1
                res = eir_run(x, x ^ e, code, 0.3, 0.0)
                assert not res.aborted and np.array_equal(res.estimate, x)

    def test_failure_budget_by_construction(self):
        # the affine family is exactly pairwise independent (no bias term),
        # so L / 2^k <= eps for k = ceil(log2(2 L / eps))
        for cap in (8, 32, 64):
            for eps in (2.0**-6, 2.0**-10):
                k = hash_bits_required(cap, eps)
                assert cap / 2.0**k <= eps

    def test_promise_radius_beyond_code_guarantee_rejected(self):
        code = bch_15_5()  # unique radius 3
        x = np.zeros(15, np.uint8)
        with pytest.raises(ValueError, match="unique-decoding"):
            eir_run(x, x, code, 0.2, 0.0)  # radius floor(0.3*15) = 4
