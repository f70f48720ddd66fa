"""Property tests of the round tape against per-round reference versions.

The reference sampler is the four-integer interval decoder (absolute
interval and window bounds) the tape's sampler replaced; the reference
responder draws one uniform per round.  Both must agree exactly with the
tape: same symbols, same bits consumed, same device outputs.
"""

import hashlib
import inspect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from direx import protocols
from direx.devices import (
    NoisyHonestBehavior,
    chsh_honest_device,
    ghz_honest_device,
)
from direx.protocols import (
    CategoricalSampler,
    ProtocolConfig,
    make_responder,
    run_protocol_r,
    symbols_to_bits,
)
from direx.seeding import numpy_rng, parse_master_seed, substream
from direx.xorgames import chsh_game, ghz_game

MASTER = parse_master_seed("7a" * 32)


class ReferenceSampler:
    """Interval decoder over absolute bounds lo < hi of the interval and
    wlo < whi of the known window of the seed real."""

    def __init__(self, weights, stream, block=4096):
        fracs = [Fraction(w) for w in weights]
        den = 1
        for w in fracs:
            den = den * w.denominator // gcd(den, w.denominator)
        self._weights = [int(w * den) for w in fracs]
        self._den = den
        self._cum = np.cumsum([0] + self._weights).tolist()
        self._stream = stream
        self._block = block
        self._reset()

    def _reset(self):
        self._lo, self._hi = 0, 1
        self._wlo, self._whi = 0, 1
        self._emitted_in_block = 0

    def _consume_bit(self):
        bit = self._stream.take(1)
        self._lo *= 2
        self._hi *= 2
        mid = self._wlo + self._whi
        if bit == 0:
            self._wlo, self._whi = 2 * self._wlo, mid
        else:
            self._wlo, self._whi = mid, 2 * self._whi

    def sample(self) -> int:
        if self._emitted_in_block >= self._block:
            self._reset()
        den = self._den
        self._lo *= den
        self._hi *= den
        self._wlo *= den
        self._whi *= den
        while True:
            unit = (self._hi - self._lo) // den
            for k in range(len(self._weights)):
                if self._weights[k] == 0:
                    continue
                a = self._lo + unit * self._cum[k]
                b = self._lo + unit * self._cum[k + 1]
                if a <= self._wlo and self._whi <= b:
                    self._lo, self._hi = a, b
                    self._emitted_in_block += 1
                    return k
            self._consume_bit()


def blocked_sampler(weights, stream, block=4096):
    """A CategoricalSampler whose decoder resets every block symbols."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocols, "_BLOCK", block)
        return CategoricalSampler(weights, stream)


def _draw_all(make, first, second, draws, label, stream=None):
    """Alternate two samplers on one stream, as the round engine does with
    its g and input samplers; return the symbols and each one's bits."""
    if stream is None:
        stream = substream(MASTER, label)
    samplers = [make(first, stream), make(second, stream)]
    used = [0, 0]
    out = []
    for i in range(draws):
        before = stream.consumed
        out.append(samplers[i % 2].sample())
        used[i % 2] += stream.consumed - before
    return out, used, samplers


# small rational distributions, zero weights included
distributions = st.lists(st.integers(0, 12), min_size=1, max_size=5).filter(
    any).map(lambda ws: [Fraction(w, sum(ws)) for w in ws])


def _two_slices(p, q, zero_at):
    """The table [p, q] / (p + q), with a zero weight inserted at zero_at
    when that is 0, 1 or 2."""
    weights = [Fraction(p, p + q), Fraction(q, p + q)]
    if zero_at < 3:
        weights.insert(zero_at, Fraction(0))
    return weights


# two-slice tables, the float-shadow path
binary_tables = st.builds(_two_slices, st.integers(1, 10**6),
                          st.integers(1, 10**6), st.integers(0, 3))
TABLES = {
    "uniform": [Fraction(1, 4)] * 4,
    "quarter": [Fraction(3, 4), Fraction(1, 4)],
    "twentieth": [Fraction(19, 20), Fraction(1, 20)],
    "thirds": [Fraction(1, 3)] * 3,
}


def _count_calls(monkeypatch, name):
    """Count the calls of protocols.<name> while the test runs."""
    calls = [0]
    original = getattr(protocols, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)
    monkeypatch.setattr(protocols, name, counted)
    return calls


class TestSamplerAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(first=distributions, second=distributions,
           block=st.integers(1, 80), draws=st.integers(0, 400),
           label=st.integers(0, 10**6))
    def test_same_symbols_and_bits(self, first, second, block, draws, label):
        ref, ref_used, _ = _draw_all(
            lambda w, s: ReferenceSampler(w, s, block), first, second, draws,
            f"ref/{label}")
        new, new_used, samplers = _draw_all(
            lambda w, s: blocked_sampler(w, s, block), first, second, draws,
            f"ref/{label}")
        assert new == ref
        assert new_used == ref_used
        assert [s.consumed for s in samplers] == ref_used

    @settings(max_examples=20, deadline=None)
    @given(first=binary_tables, second=st.one_of(binary_tables, distributions),
           draws=st.integers(1000, 5000), label=st.integers(0, 10**6))
    def test_full_blocks(self, first, second, draws, label):
        ref = _draw_all(lambda w, s: ReferenceSampler(w, s, 4096), first,
                        second, draws, f"long/{label}")[:2]
        new = _draw_all(lambda w, s: CategoricalSampler(w, s), first,
                        second, draws, f"long/{label}")[:2]
        assert new == ref

    def test_commit_and_exact_step_both_run(self, monkeypatch):
        # t starts at the dyadic point 3/4, so the first decision of each
        # block is uncertain and takes the exact step
        commits = _count_calls(monkeypatch, "_commit")
        exact = _count_calls(monkeypatch, "_exact_symbols")
        weights = [Fraction(1, 4), Fraction(3, 4)]
        for block in (37, 4096):
            runs = []
            for make in (ReferenceSampler, blocked_sampler):
                stream = substream(MASTER, f"paths/{block}")
                sampler = make(weights, stream, block=block)
                runs.append(([sampler.sample() for _ in range(5000)],
                             stream.consumed))
            assert runs[0] == runs[1]
        assert commits[0] > 100 and exact[0] > 100

    @pytest.mark.parametrize("follow, exact_steps", [(40, 1), (30, 1), (29, 0)])
    def test_read_at_the_word_edge(self, monkeypatch, follow, exact_steps):
        # on [1/3, 2/3], t starts at 1/3 = 0.0101...(base 2); the queued
        # bits follow that expansion for `follow` bits and then leave it.
        # A common prefix that fills the 30-bit word takes the exact step;
        # one bit shorter is the longest read the floats decide.
        assert protocols._WORD == 30
        exact = _count_calls(monkeypatch, "_exact_symbols")
        weights = [Fraction(1, 3), Fraction(2, 3)]
        expansion = [k % 2 for k in range(40)]
        queue = expansion[:follow] + [1 - b for b in expansion[follow:]]
        runs = []
        for make in (ReferenceSampler, CategoricalSampler):
            stream = substream(MASTER, "edge", queued=queue)
            sampler = make(weights, stream)
            symbols = [sampler.sample()]
            if make is CategoricalSampler:
                assert exact[0] == exact_steps
            symbols += [sampler.sample() for _ in range(300)]
            runs.append((symbols, stream.consumed))
        assert runs[0] == runs[1]
        if follow < len(queue):
            # the first bit off the expansion puts the real on its side
            assert runs[1][0][0] == queue[follow]

    @settings(max_examples=15, deadline=None)
    @given(first=binary_tables, second=st.one_of(binary_tables, distributions),
           draws=st.integers(1, 9000), keep=st.integers(64, 256),
           label=st.integers(0, 10**6))
    def test_truncated_state(self, first, second, draws, keep, label):
        # a keep this short truncates from the first commits on and runs
        # the error budget out every few commits
        ref = _draw_all(lambda w, s: ReferenceSampler(w, s, 4096), first,
                        second, draws, f"keep/{label}")[:2]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocols, "_keep_bits", lambda den, a, block: keep)
            new = _draw_all(lambda w, s: CategoricalSampler(w, s),
                            first, second, draws, f"keep/{label}")[:2]
        assert new == ref

    def test_truncation_reanchor_and_replay_all_run(self, monkeypatch):
        # with keep at 64 bits the state is truncated from the first
        # commits on, and on these streams a decision is uncertain while it
        # is: the replay before that exact step is one outside _truncate
        monkeypatch.setattr(protocols, "_keep_bits", lambda den, a, block: 64)
        counts = {"truncated": 0, "reanchored": 0, "replayed": 0}
        inside = [False]
        truncate, replay = protocols._truncate, protocols._replay

        def counted_truncate(*args):
            inside[0] = True
            try:
                state = truncate(*args)
            finally:
                inside[0] = False
            counts["truncated" if state[3] else "reanchored"] += 1
            return state

        def counted_replay(*args):
            counts["replayed"] += not inside[0]
            return replay(*args)
        monkeypatch.setattr(protocols, "_truncate", counted_truncate)
        monkeypatch.setattr(protocols, "_replay", counted_replay)
        weights = [Fraction(1, 4), Fraction(3, 4)]
        for label in (4, 98, 162, 247):
            runs = []
            for make in (ReferenceSampler, CategoricalSampler):
                stream = substream(MASTER, f"paths/{label}")
                sampler = make(weights, stream)
                runs.append(([sampler.sample() for _ in range(1500)],
                             stream.consumed))
            assert runs[0] == runs[1]
        assert all(counts.values()), counts

    def test_keep_for_every_accepted_table(self):
        # keep comes from the table's binary entropy: equal slices, and
        # denominators up to the largest float, where a/den or 1 - a/den
        # is below every normal float, still give a bit count
        top = int(protocols._FLOAT_MAX)
        assert protocols._keep_bits(2, 1, 4096) == 4096 * 5 // 4 + 256
        assert protocols._keep_bits(top, 1, 4096) == 256
        for den, a in ((2 * 10**300, 10**300), (top, 2), (top, top // 3),
                       (top, top // 2), (top, top - 1), (top - 1, top // 2)):
            for block in (1, 37, 4096):
                keep = protocols._keep_bits(den, a, block)
                assert 256 <= keep <= block * 5 // 4 + 256
        small = Fraction(1, top)
        sampler = CategoricalSampler([1 - small, small], substream(MASTER, "top"))
        assert [sampler.sample() for _ in range(300)] == [0] * 300

    def test_denominator_past_the_floats(self):
        # the binary path's float shadow needs den as a float: 10**308
        # runs, and a larger den is refused by a message naming the weights
        small = Fraction(1, 10**308)
        sampler = CategoricalSampler([1 - small, small], substream(MASTER, "big"))
        assert [sampler.sample() for _ in range(100)] == [0] * 100
        for small in (Fraction(22, 10**309), Fraction(1, 10**320)):
            with pytest.raises(ValueError, match=r"^weights \(about \[1\.0, "):
                CategoricalSampler([1 - small, small], substream(MASTER, "big"))

    def test_zero_weights_on_the_binary_path(self, monkeypatch):
        binary = _count_calls(monkeypatch, "_binary_symbols")
        weights = [0, Fraction(3, 7), Fraction(4, 7)]
        runs = []
        for make in (ReferenceSampler, blocked_sampler):
            stream = substream(MASTER, "gap")
            sampler = make(weights, stream, block=100)
            runs.append(([sampler.sample() for _ in range(3000)],
                         stream.consumed))
        assert runs[0] == runs[1]
        assert set(runs[1][0]) == {1, 2} and binary[0] == 1

    @settings(max_examples=30, deadline=None)
    @given(queue=st.lists(st.integers(0, 1), max_size=600),
           draws=st.integers(0, 2000), label=st.integers(0, 10**6))
    def test_chained_source(self, queue, draws, label):
        runs = []
        for make in (ReferenceSampler, CategoricalSampler):
            source = substream(MASTER, f"chain/{label}", queued=queue)
            out, used, _ = _draw_all(
                make, [Fraction(3, 4), Fraction(1, 4)], TABLES["uniform"],
                draws, None, stream=source)
            runs.append((out, used, source.consumed))
        assert runs[0] == runs[1]

    def test_skewed_and_zero_weights(self):
        for weights in ([Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)],
                        [Fraction(1, 256), Fraction(255, 256)],
                        [0, Fraction(1, 4), 0, Fraction(3, 4)]):
            runs = []
            for make in (ReferenceSampler, blocked_sampler):
                stream = substream(MASTER, f"skew/{weights}")
                sampler = make(weights, stream, block=50)
                runs.append(([sampler.sample() for _ in range(3000)],
                             stream.consumed))
            assert runs[0] == runs[1]


class TestSampleDescriptor:
    """sample is the generator's own __next__ on a sampler, and a wrapper
    set on the class still sees every draw of the round loop."""

    def test_class_wrapper_sees_every_draw(self, monkeypatch):
        calls = [0]
        original = CategoricalSampler.sample

        def counted(sampler):
            calls[0] += 1
            return original(sampler)
        monkeypatch.setattr(CategoricalSampler, "sample", counted)
        n = 2000
        tr = protocols._play_rounds(
            n, Fraction(1, 4), ghz_game().entries,
            make_responder(ghz_honest_device()), substream(MASTER, "wrap"),
            numpy_rng(MASTER, "wrap"))
        games = int(np.count_nonzero(tr.g))
        assert 0 < games < n
        assert calls[0] == n + games

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_class_call_draws_as_the_instance(self, name):
        weights = TABLES[name]
        on_instance = CategoricalSampler(weights, substream(MASTER, "call"))
        on_class = CategoricalSampler(weights, substream(MASTER, "call"))
        assert inspect.isgenerator(on_instance.sample.__self__)
        assert ([on_instance.sample() for _ in range(5000)]
                == [CategoricalSampler.sample(on_class) for _ in range(5000)])
        assert on_instance.consumed == on_class.consumed > 0


class TestLawCache:
    def test_float_and_fraction_weights_share_one_table(self):
        protocols._law.cache_clear()
        runs = []
        for weights in ([0.95, 0.05], [Fraction(19, 20), Fraction(1, 20)]):
            sampler = CategoricalSampler(weights, substream(MASTER, "law"))
            runs.append([sampler.sample() for _ in range(500)])
        info = protocols._law.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert runs[0] == runs[1]

    def test_errors_raise_on_every_call(self):
        # exceptions are not cached: the same message every time, and
        # nothing is kept
        protocols._law.cache_clear()
        huge = Fraction(1, 10**320)
        for weights, message in (
                ([Fraction(1, 2)], "^weights must be nonnegative"),
                ([Fraction(3, 2), Fraction(-1, 2)], "^weights must be nonnegative"),
                ([], "^weights must be nonnegative"),
                ([1 - huge, huge], r"^weights \(about \[1\.0, 1e-320\]\) have a "
                                   r"common denominator of 321 digits")):
            for _ in range(3):
                with pytest.raises(ValueError, match=message):
                    CategoricalSampler(weights, substream(MASTER, "bad"))
        assert protocols._law.cache_info().currsize == 0

    def test_bounded(self):
        protocols._law.cache_clear()
        size = protocols._LAW_CACHE_SIZE
        assert protocols._law.cache_info().maxsize == size
        for k in range(3 * size):
            CategoricalSampler([Fraction(1, k + 3), Fraction(k + 2, k + 3)],
                               substream(MASTER, "many"))
        assert protocols._law.cache_info().currsize == size

    def test_power_tables_only_for_short_bases(self):
        # a table holds 97 powers of a base of at most 32 bits; a longer
        # base, up to the largest float, computes each power on lookup
        top = protocols._MAX_PENDING
        for den, tabulated in ((20, True), (2**32 - 1, True), (2**32 + 1, False),
                               (10**308, False)):
            _, slices, (apow, dpow) = protocols._law(
                (Fraction(den - 1, den), Fraction(1, den)))
            a = slices[0][2]
            assert isinstance(dpow, list) is tabulated
            assert isinstance(apow, list) is tabulated
            for k in (0, 1, 2, top // 2, top):
                assert (apow[k], dpow[k]) == (a**k, den**k)
            if tabulated:
                assert len(dpow) == top + 1
                assert dpow[-1].bit_length() <= top * protocols._POWER_TABLE_BITS


def _commit_by_powers(L, W, U, den, a, n, R, B, ones):
    """The closed-form commit with every power taken by **."""
    if not n:
        return L, W, U
    Z, P, last = 0, 1, 0
    for j in ones:
        P *= a ** (j - 1 - last)
        Z = Z * den ** (j - last) + a * P
        P *= den - a
        last = j
    P *= a ** (n - last)
    Z *= den ** (n - last)
    dn = den ** n
    return (L * dn << R) + W * dn * B - (U * Z << R), W * dn, U * P << R


class TestCommitTables:
    @settings(max_examples=200, deadline=None)
    @given(den=st.one_of(st.integers(2, 10**6), st.integers(2**32, 2**400)),
           n=st.one_of(st.sampled_from([0, 1, protocols._MAX_PENDING]),
                       st.integers(0, protocols._MAX_PENDING)),
           data=st.data())
    def test_equals_the_power_form(self, den, n, data):
        a = data.draw(st.integers(1, den - 1))
        ones = sorted(data.draw(st.sets(st.integers(1, n), max_size=n))) if n else []
        R = data.draw(st.integers(0, 400))
        B = data.draw(st.integers(0, 2**R - 1))
        W = data.draw(st.integers(1, 2**300))
        U = data.draw(st.integers(W, 2**310))
        L = data.draw(st.integers(0, U - W))
        powers = (protocols._powers(a), protocols._powers(den))
        assert (protocols._commit(L, W, U, powers, n, R, B, ones)
                == _commit_by_powers(L, W, U, den, a, n, R, B, ones))

    def test_longest_commits(self):
        n = protocols._MAX_PENDING
        _, _, powers = protocols._law((Fraction(3, 4), Fraction(1, 4)))
        for ones in ([], list(range(1, n + 1)), [1, n], [n]):
            for L, W, U, R, B in ((0, 1, 1, 0, 0), (5, 7, 19, 130, 2**129 + 3)):
                assert (protocols._commit(L, W, U, powers, n, R, B, ones)
                        == _commit_by_powers(L, W, U, 4, 3, n, R, B, ones))
        assert protocols._commit(5, 7, 19, powers, 0, 0, 0, []) == (5, 7, 19)


class _HashStream:
    """The bits a stream must serve, built apart from BitStream: the queued
    bits, then SHA-256(master || label || counter) for counter = 0, 1, 2,
    ..., served one list slice per take."""

    def __init__(self, label, queued):
        self._prefix = MASTER + label.encode()
        self._bits = list(queued)
        self._blocks = 0
        self.consumed = 0

    def take(self, k):
        while len(self._bits) < self.consumed + k:
            digest = hashlib.sha256(
                self._prefix + self._blocks.to_bytes(8, "big")).digest()
            self._bits += [int(b) for byte in digest for b in f"{byte:08b}"]
            self._blocks += 1
        bits = self._bits[self.consumed:self.consumed + k]
        self.consumed += k
        return int("".join(map(str, bits)), 2) if bits else 0


_STREAM_OPS = st.lists(st.one_of(
    st.tuples(st.just("sample"), st.integers(1, 60)),
    st.tuples(st.sampled_from(["take", "take_bits"]), st.integers(0, 600))),
    max_size=25)


def _uniform_table(k, zero_at):
    """The uniform table over 2^k slices, with a zero weight inserted at
    zero_at when that is at most 2^k."""
    weights = [Fraction(1, 2**k)] * 2**k
    if zero_at <= 2**k:
        weights.insert(zero_at, Fraction(0))
    return weights


# uniform 2^k tables, the cursor path of the uniform decoder
uniform_tables = st.builds(_uniform_table, st.integers(1, 3),
                           st.integers(0, 9))
decoder_tables = st.one_of(binary_tables, uniform_tables)


class TestStreamReads:
    @settings(max_examples=80, deadline=None)
    @given(queue=st.lists(st.integers(0, 1), max_size=700),
           first=decoder_tables, second=decoder_tables, ops=_STREAM_OPS,
           label=st.integers(0, 10**6))
    @example(queue=[1, 0, 1], first=[0, Fraction(1, 2), Fraction(1, 2)],
             second=[Fraction(1, 4)] * 4,
             ops=[("sample", 60), ("take", 5), ("sample", 60),
                  ("take_bits", 300), ("sample", 60)], label=0)
    def test_decoder_reads_interleave_with_take(self, queue, first, second,
                                                ops, label):
        """Two samplers, each reading its bits off the stream's buffer and
        drawing by moving the cursor (a uniform or a two-slice table), and
        take and take_bits on the same stream walk the queued bits and then
        the hash blocks.  The second sampler draws after each nonzero
        symbol of the first, as the round engine draws a game round's input
        after its g bit.  Against ReferenceSamplers on a stream built apart:
        the same symbols, the same bits from every take, the same consumed
        on the stream after every draw, and on each sampler the bits it
        drew.  Reads cross the end of the queue and 256-bit refills."""
        stream = substream(MASTER, f"reads/{label}", queued=queue)
        samplers = [CategoricalSampler(first, stream),
                    CategoricalSampler(second, stream)]
        expect = _HashStream(f"reads/{label}", queue)
        references = [ReferenceSampler(first, expect),
                      ReferenceSampler(second, expect)]
        decoded = [0, 0]

        def draw(j):
            before = stream.consumed
            symbol = samplers[j].sample()
            assert symbol == references[j].sample()
            decoded[j] += stream.consumed - before
            assert stream.consumed == expect.consumed
            assert samplers[j].consumed == decoded[j]
            return symbol

        for op, k in ops:
            for _ in range(k if op == "sample" else 1):
                if op == "sample":
                    if draw(0):
                        draw(1)
                elif op == "take":
                    assert stream.take(k) == expect.take(k)
                else:
                    want = expect.take(k)
                    assert stream.take_bits(k).tolist() == [
                        (want >> (k - 1 - i)) & 1 for i in range(k)]
                assert stream.consumed == expect.consumed
        assert [s.consumed for s in samplers] == decoded


def _reference_take_bits(stream, k):
    """take_bits as one shift of the k-bit integer per bit."""
    v = stream.take(k)
    return [(v >> (k - 1 - i)) & 1 for i in range(k)]


def _misalign(stream, reads):
    for op, k in reads:
        getattr(stream, op)(k)


_READS = st.lists(st.tuples(st.sampled_from(["take", "take_bits"]),
                            st.integers(0, 40).map(lambda k: 2 * k + 1)),
                  max_size=6)


class TestTakeBits:
    @pytest.mark.parametrize("k", list(range(17)) + [255, 256, 257, 1000])
    def test_every_residue_mod_8(self, k):
        for offset in (0, 1, 3, 7):
            stream, ref = (substream(MASTER, "bits") for _ in range(2))
            stream.take(offset)
            ref.take(offset)
            bits = stream.take_bits(k)
            assert bits.dtype == np.uint8 and bits.shape == (k,)
            assert bits.tolist() == _reference_take_bits(ref, k)
            assert stream.consumed == ref.consumed == offset + k
            assert stream.take(9) == ref.take(9)

    @settings(max_examples=100, deadline=None)
    @given(reads=_READS, ks=st.lists(st.integers(0, 2000), min_size=1,
                                     max_size=4),
           label=st.integers(0, 10**6))
    def test_matches_per_bit_shift(self, reads, ks, label):
        stream, ref = (substream(MASTER, f"bits/{label}") for _ in range(2))
        _misalign(stream, reads)
        _misalign(ref, reads)
        for k in ks:
            assert stream.take_bits(k).tolist() == _reference_take_bits(ref, k)
            assert stream.consumed == ref.consumed


def _scalar_responses(behavior, inputs, input_index, rng):
    """One uniform per round, placed in the round's cumulative distribution."""
    out = []
    for k in input_index:
        cum = np.cumsum(behavior.output_distribution(inputs[k]))
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        out.append(min(idx, len(cum) - 1))
    return out


DEVICES = {
    "ghz": (ghz_game(), ghz_honest_device()),
    "ghz-noisy": (ghz_game(), NoisyHonestBehavior(base=ghz_honest_device(),
                                                  p=0.3)),
    "ghz-fixed": (ghz_game(), NoisyHonestBehavior(
        base=ghz_honest_device(), p=0.5, mode="fixed",
        fixed_outputs=(7, 6, 5, 4, 3, 2, 1, 0))),
    "chsh-noisy": (chsh_game(), NoisyHonestBehavior(base=chsh_honest_device(),
                                                    p=0.1)),
}


class TestBatchResponder:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(DEVICES)), data=st.data(),
           label=st.integers(0, 10**6))
    def test_equals_one_draw_per_round(self, name, data, label):
        game, behavior = DEVICES[name]
        inputs = tuple(game.inputs)
        input_index = np.array(data.draw(st.lists(
            st.integers(0, len(inputs) - 1), max_size=300)), dtype=np.int64)
        batch = make_responder(behavior)(inputs, input_index,
                                         numpy_rng(MASTER, "resp", label))
        scalar = _scalar_responses(behavior, inputs, input_index.tolist(),
                                   numpy_rng(MASTER, "resp", label))
        assert batch.tolist() == scalar

    def test_plateaus_and_draws_on_the_table(self):
        # dyadic rows, so every cumulative value and every x = u·top below
        # is exact; rows ending in zero-probability outputs plateau at
        # their top.  The draws land on cumulative values, just below the
        # top, and at 1.0 (outside numpy's [0, 1)), where only the cap
        # keeps the answer among the outputs
        behavior = _TableDevice(n=2, rows={
            (0, 0): (0.25, 0.5, 0.25, 0.0),
            (0, 1): (0.375, 0.125, 0.0, 0.0),   # top 0.5
            (1, 0): (0.0, 0.5, 0.0, 0.5),
            (1, 1): (1.0, 0.0, 0.0, 0.0),
        })
        inputs = tuple(behavior.rows)
        draws = (0.0, 0.25, 0.5, 0.75, 1 - 2.0**-53, 1.0)
        input_index = np.repeat(np.arange(len(inputs)), len(draws))
        u = np.tile(draws, len(inputs))
        batch = make_responder(behavior)(inputs, input_index, _Draws(u))
        scalar = _scalar_responses(behavior, inputs, input_index.tolist(),
                                   _Draws(u))
        assert batch.tolist() == scalar == [0, 1, 1, 2, 2, 3,
                                            0, 0, 0, 1, 1, 3,
                                            1, 1, 3, 3, 3, 3,
                                            0, 0, 0, 0, 0, 3]


@dataclass(frozen=True)
class _TableDevice:
    """A history-independent device given by its output distributions."""

    n: int
    rows: dict

    def output_distribution(self, input_bits):
        return np.array(self.rows[tuple(input_bits)])


class _Draws:
    """Stands in for a numpy generator: random() hands out the given
    uniforms in order, one at a time or as an array."""

    def __init__(self, values):
        self._values = list(values)

    def random(self, size=None):
        if size is None:
            return self._values.pop(0)
        out, self._values = self._values[:size], self._values[size:]
        return np.array(out)


OLD_ENCODING = {"H": (0, 0), "T": (0, 1), "P": (1, 0), "F": (1, 1)}


def _per_character(symbols: str) -> list:
    return [b for s in symbols for b in OLD_ENCODING[s]]


class TestSymbolBits:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=200))
    def test_codes_and_string_match_per_character(self, codes):
        symbols = "".join("HTPF"[c] for c in codes)
        expected = _per_character(symbols)
        assert symbols_to_bits(np.array(codes, dtype=np.uint8)).tolist() == expected
        assert symbols_to_bits(symbols).tolist() == expected

    def test_tape_columns(self):
        game, behavior = DEVICES["ghz-noisy"]
        cfg = ProtocolConfig(mode="R", N=3000, q=Fraction(1, 3), eta=0.2,
                             game=game, w_G=1.0)
        for record_rounds in (True, False):
            tr = run_protocol_r(cfg, behavior, substream(MASTER, "tape"),
                                numpy_rng(MASTER, "tape"),
                                record_rounds=record_rounds).transcript
            assert (symbols_to_bits(tr.codes).tolist()
                    == _per_character(tr.symbols))
            assert np.array_equal(tr.codes >> 1, tr.g)
            assert tr.failures == np.count_nonzero(tr.codes == 3) > 0
        # the check fails once one code's game bit is flipped
        tampered = tr.codes.copy()
        tampered[7] ^= 2
        assert not np.array_equal(tampered >> 1, tr.g)
