"""Strong-extractor post-processing and the two-device cross-feeding engine.

Extraction is Toeplitz (2-universal) hashing over GF(2): a stand-in for a
quantum-proof strong extractor whose quantum-proofness is taken from the
leftover hashing literature and recorded as an external assumption in the
results.  Its seed is linear in the source length, so at desk scale a
stage's seed demand exceeds the previous stage's output; the shortfall is
drawn from the master pool and reported honestly in the seed ledger.

Cross-feeding alternates two devices, feeding each stage's extracted output
forward as the next stage's seed material; soundness and completeness
entries accumulate additively in exact dyadic arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DirexError, InfeasibleError
from .protocols import ProtocolConfig, run_protocol_r, symbols_to_bits
from .rates import RateReport, certified_bound, tune_parameters
from .seeding import numpy_rng, substream
from .xorgames import GameConstants, XorGame


@dataclass(frozen=True)
class ExtractorSpec:
    """Toeplitz extraction plan: m output bits from an N-bit source under a
    claimed min-entropy k, with leftover-hash slack 2 log(1/ext_error)."""

    source_len: int
    output_len: int
    claimed_min_entropy: float
    ext_error_exp: float  # log2(1/ext_error)

    def __post_init__(self):
        if self.source_len < 1 or self.output_len < 1:
            raise ValueError(
                f"extraction needs a nonempty source and output, got source "
                f"length {self.source_len} and output length {self.output_len}")
        if self.output_len > self.claimed_min_entropy - 2 * self.ext_error_exp:
            raise InfeasibleError(
                f"output length {self.output_len} exceeds the hashing budget "
                f"{self.claimed_min_entropy - 2 * self.ext_error_exp:.6g}")

    @property
    def seed_len(self) -> int:
        return self.source_len + self.output_len - 1

    @property
    def ext_error(self) -> Fraction:
        return Fraction(1, 2 ** int(np.ceil(self.ext_error_exp)))


# rows of one residue class are multiplied in blocks of at most this many
# 64-bit words (1 MB), so the temporaries stay bounded whatever n and m are
_BLOCK_WORDS = 1 << 17


def _pack_words(bits: np.ndarray, start: int, words: int) -> np.ndarray:
    """bits[start : start + 64 * words], 64 to a uint64 word.  The order of
    the bits inside a word is the same for every array packed here, and only
    AND, XOR and popcount are applied to the words, so it never matters."""
    return np.packbits(bits[start:start + 64 * words]).view(np.uint64)


def toeplitz_extract(source, seed, m: int) -> np.ndarray:
    """Multiply the source by the Toeplitz matrix packed in the seed.

    Row i, column j of the matrix is seed[i - j + N - 1], so output bit i is
    the GF(2) inner product of seed[i : i + N] with the reversed source.
    Both sides are packed into 64-bit words: the reversed source once, and
    the seed once from each offset r < 64, so that every row i = r (mod 64)
    is a window of consecutive words of the seed packed from offset r.  A
    row's bit is the parity of the popcount of the XOR over its window of
    the word-wise AND with the source.  This is exact integer arithmetic at
    a cost of N*m/64 word operations; rows (and, for very long sources,
    words) are taken in blocks of at most _BLOCK_WORDS words, so the
    temporaries stay near 1 MB whatever N and m are.
    """
    src = np.asarray(source, dtype=np.uint8) % 2
    sd = np.asarray(seed, dtype=np.uint8) % 2
    n = src.size
    if m < 1 or n < 1:
        raise ValueError(f"need a nonempty source and m >= 1, got N = {n}, "
                         f"m = {m}")
    if sd.size != n + m - 1:
        raise ValueError(f"seed must have {n + m - 1} bits, got {sd.size}")
    width = -(-n // 64)
    # zero padding: every word read below lies inside the padded arrays,
    # and the source's padding bits mask the seed bits beyond each row
    src_pad = np.zeros(64 * width, dtype=np.uint8)
    src_pad[:n] = src[::-1]
    seed_pad = np.zeros(n + m + 63, dtype=np.uint8)
    seed_pad[:sd.size] = sd
    src_words = _pack_words(src_pad, 0, width)
    cols = min(width, _BLOCK_WORDS)
    rows_per_block = max(1, _BLOCK_WORDS // cols)
    out = np.empty(m, dtype=np.uint8)
    for r in range(min(m, 64)):
        rows = -(-(m - r) // 64)
        seed_words = _pack_words(seed_pad, r, rows - 1 + width)
        # row q of this class reads seed_words[q : q + width]
        windows = np.lib.stride_tricks.as_strided(
            seed_words, (rows, width), (8, 8), writeable=False)
        acc = np.zeros(rows, dtype=np.uint64)
        for c0 in range(0, width, cols):
            sw = src_words[c0:c0 + cols]
            for r0 in range(0, rows, rows_per_block):
                block = windows[r0:r0 + rows_per_block, c0:c0 + cols]
                acc[r0:r0 + rows_per_block] ^= np.bitwise_xor.reduce(
                    block & sw, axis=1)
        out[r::64] = np.bitwise_count(acc) & 1
    return out


def dyadic_upper(log2_value: float) -> Fraction:
    """Smallest power of two at or above 2**log2_value, as an exact Fraction,
    capped at one."""
    return min(Fraction(2) ** int(np.ceil(log2_value)), Fraction(1))


@dataclass(frozen=True)
class LedgerEntry:
    stage: int
    device_id: int
    soundness: Fraction
    completeness: Fraction
    vacuous: bool
    seed_from_stage: int  # -1 means the initial pool


@dataclass
class ErrorLedger:
    """Additive error bookkeeping across composition stages, in exact
    dyadic rationals.

    The totals are accumulated as entries are added, independently of the
    entry list that check_totals re-sums.
    """

    entries: list = field(default_factory=list, init=False)
    total_soundness: Fraction = field(default=Fraction(0), init=False)
    total_completeness: Fraction = field(default=Fraction(0), init=False)

    def add(self, entry: LedgerEntry):
        self.entries.append(entry)
        self.total_soundness += entry.soundness
        self.total_completeness += entry.completeness

    def check_totals(self) -> bool:
        """The recorded totals equal the sums of the recorded entries.

        Both sides are read back from to_record(), so an entry changed after
        it was added, or a value that does not survive serialization
        exactly, fails the check.
        """
        rec = self.to_record()
        return all(
            sum((Fraction(e[key]) for e in rec["entries"]), Fraction(0))
            == Fraction(rec[f"total_{key}"])
            for key in ("soundness", "completeness"))

    def check_wiring(self) -> bool:
        """No stage may be seeded by its own device's previous output."""
        by_stage = {e.stage: e for e in self.entries}
        for e in self.entries:
            if e.seed_from_stage >= 0:
                feeder = by_stage[e.seed_from_stage]
                if feeder.device_id == e.device_id:
                    return False
        return True

    def to_record(self) -> dict:
        return {
            "entries": [
                {"stage": e.stage, "device": e.device_id,
                 "soundness": str(e.soundness), "completeness": str(e.completeness),
                 "vacuous": e.vacuous, "seed_from_stage": e.seed_from_stage}
                for e in self.entries
            ],
            "total_soundness": str(self.total_soundness),
            "total_completeness": str(self.total_completeness),
        }


@dataclass(frozen=True)
class CrossFeedStage:
    """One composition stage: protocol size, rate parameters, and the
    requested extraction length."""

    N: int
    q: float
    eta: float
    kappa: float
    epsilon_exp: float  # smoothing parameter = 2**(-epsilon_exp)
    m_out: int


@dataclass(frozen=True)
class StageResult:
    stage: int
    device_id: int
    output_bits: np.ndarray
    report: RateReport
    extractor: ExtractorSpec
    seed_bits_used: int
    seed_from_previous: int
    seed_topped_up: int


class CrossFeedAbort(DirexError, RuntimeError):
    """A stage's protocol run aborted, which ends the composition."""

    def __init__(self, stage: int, failures: int):
        super().__init__(f"stage {stage} aborted ({failures} failures)")
        self.stage = stage
        self.failures = failures


@dataclass(frozen=True)
class CrossFeedResult:
    final_bits: np.ndarray
    ledger: ErrorLedger
    stages: tuple


# the rate slack below the limit rate that cross_feed tunes its error
# exponent for
TUNE_DELTA = 0.1
# log2(1/ext_error) of every stage's extractor
EXT_ERROR_EXP = 20.0


def cross_feed(game: XorGame, constants: GameConstants, device_a, device_b,
               stages, master: bytes) -> CrossFeedResult:
    """Run the alternating two-device composition.

    Stage i runs the game protocol on device i mod 2 and extracts m_out
    bits; the extracted output is queued as the next stage's protocol seed.
    Any stage abort aborts the composition with its index.  Ledger entries
    price each stage's soundness with the tuned error exponent and its
    completeness with the honest-abort bound; entries beyond their premise
    regime are capped at one and flagged vacuous.

    Two assumptions are flagged, not reproved: the extractor is Toeplitz
    2-universal hashing, whose quantum-proofness is taken from leftover
    hashing against quantum side information; and composition soundness
    relies on output-to-input uniformity switching between devices (no
    device-adversary interaction).
    """
    tuned = tune_parameters(constants, stages[0].eta, TUNE_DELTA)
    ledger = ErrorLedger()
    results = []
    prev_bits: np.ndarray = np.zeros(0, dtype=np.uint8)
    devices = (device_a, device_b)
    for i, stage in enumerate(stages):
        device_id = i % 2
        behavior = devices[device_id]
        report = certified_bound(constants, stage.N, stage.q, stage.eta,
                                 stage.kappa, 2.0 ** (-stage.epsilon_exp))
        spec = ExtractorSpec(
            source_len=2 * stage.N, output_len=stage.m_out,
            claimed_min_entropy=report.bound, ext_error_exp=EXT_ERROR_EXP)
        seed_source = substream(master, "stage-topup", i, queued=prev_bits)
        config = ProtocolConfig(mode="R", N=stage.N, q=stage.q, eta=stage.eta,
                                game=game, w_G=constants.wG)
        outcome = run_protocol_r(config, behavior, seed_source,
                                 numpy_rng(master, "stage-device", i),
                                 record_rounds=False)
        if not outcome.success:
            raise CrossFeedAbort(i, outcome.transcript.failures)
        source = symbols_to_bits(outcome.transcript.codes)
        ext_stream = substream(master, "extractor-seed", i)
        seed = ext_stream.take_bits(spec.seed_len)
        out_bits = toeplitz_extract(source, seed, stage.m_out)
        log2_sound = 0.5 - tuned.b * stage.q * stage.N
        soundness = dyadic_upper(log2_sound) + spec.ext_error
        completeness = dyadic_upper(-stage.eta**2 * stage.q * stage.N
                                    / (3.0 * np.log(2.0)))
        vacuous = stage.q > tuned.q0 or soundness >= 1
        ledger.add(LedgerEntry(stage=i, device_id=device_id,
                               soundness=min(soundness, Fraction(1)),
                               completeness=completeness, vacuous=vacuous,
                               seed_from_stage=i - 1))
        used = seed_source.consumed
        from_previous = min(used, len(prev_bits))
        results.append(StageResult(
            stage=i, device_id=device_id, output_bits=out_bits,
            report=report, extractor=spec,
            seed_bits_used=used,
            seed_from_previous=from_previous,
            seed_topped_up=used - from_previous,
        ))
        prev_bits = out_bits
    if not ledger.check_wiring():
        raise RuntimeError("wiring invariant violated")
    return CrossFeedResult(final_bits=prev_bits, ledger=ledger,
                           stages=tuple(results))

