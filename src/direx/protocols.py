"""Executable protocol state machines and their exact desk-scale validator.

The round structure: a biased bit g decides between a game round (an input
is drawn from the protocol's input table and the device plays, scored P or
F) and a generation round (the all-zero input is fed and the first
component's output is recorded as H or T).  The run aborts when game
failures exceed the configured threshold.

One round engine plays every protocol.  Protocol R passes its game's input
table; the single-part protocol A' passes a one-input table (input 1 with
certainty, won on output 0), so the g bit itself is the device input; key
distribution (qkd.run_rkd) plays the game table and derives both parties'
bits from the recorded rounds.

Seed bits are consumed through an exact arithmetic decoder, so a biased bit
costs close to its Shannon entropy; g-bits and game-input bits are drawn
from the same stream and accounted separately.  Device (Born-rule)
randomness comes from a distinct labeled stream.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from math import lcm

import numpy as np

from .devices import (
    AdversarialBehavior,
    DeviceState,
    PartiallyTrustedBehavior,
    respond,
)
from .entropy import BlockOperator, renyi_divergence
from .errors import SeedExhaustedError
from .rates import worst_case_rate
from .seeding import BitStream, numpy_rng, substream
from .xorgames import XorGame, as_fraction

SYMBOLS = ("H", "T", "P", "F")


# the binary decoder's float shadow (see CategoricalSampler)
_WORD = 64                     # seed bits peeked per decision
_TWO_WORD = float(1 << _WORD)
_MAX_READ = 48                 # longer reads take the exact step
_POW2 = [float(1 << r) for r in range(_WORD + 1)]
_MAX_PENDING = 96              # emissions between commits
_FRESH_ERR = 2.0 ** -50        # error of t per unit of |t| + 1 when rebuilt
_STEP_ERR = 2.0 ** -45         # error of t per emission per unit of den·g;
                               # >= (2 * _MAX_PENDING + 3) * 2^-53
_GROW = 1 + 2.0 ** -40         # covers the rounding of g's rescaling
_COMMIT_ERR = 2.0 ** -16       # commit once the error of t exceeds this


class CategoricalSampler:
    """Exact sampler over a rational distribution via arithmetic decoding.

    The uniform bit stream is read as the binary expansion of a real in
    [0, 1); symbols are emitted as soon as the known window of that real
    fits inside one slice of the current interval, so consumption tracks
    the entropy rate (Han-Hoshi interval algorithm).  The state is kept
    relative to the interval's low end as three integers: the window's
    offset L and width W, and the interval's width U.  The state is reset
    every ``block`` symbols to keep the integers bounded, wasting at most a
    few bits per block.

    Three paths give the symbols and bit counts of the plain integer loop
    (``_exact_symbols``); the table alone picks one:

    (a) Uniform 2^k tables (every positive slice one unit wide, den = 2^k)
        return the positive slice that ``stream.take(k)`` names.  From a
        state c·(0, 1, 1) the window spans more than one slice until k bits
        are read; after exactly k bits it is one slice, and emitting it
        gives a state c'·(0, 1, 1) again.  Block resets give (0, 1, 1), so
        every symbol is one k-bit take.
    (b) Two-slice tables [0, a) and [a, den) decide on floats: the cut's
        position in the window, t = (a·U - L·den) / (W·den), and
        g = U / (W·den).  The loop emits slice 0 when t >= 1 and slice 1
        when t <= 0, reading nothing.  Otherwise it reads until the bits
        leave t's binary expansion: r = (common prefix of the next seed
        bits and t) + 1 bits, then emits the slice on the side of the last
        bit.  A read of bits B maps t <- 2^r·t - B, g <- 2^r·g, exactly in
        floats; emitting slice 0 maps g <- g·a/den, t <- t - (den - a)·g,
        and slice 1 maps g <- g·(den - a)/den, t <- t + a·g.
        eps bounds the float error of t and is kept as e = eps / g.  A
        rebuild from the integers is correctly rounded, so it starts at
        eps = 2^-50·(|t| + 1).  A read scales g and eps by 2^r and leaves e
        as it is.  An emission rescales e by den/width (times 1 + 2^-40)
        and adds den·2^-45: t/g is a - y for a window start y in [0, den),
        so that term covers the rounding of t and of the step, whose g has
        a relative error of at most (2n + 1)·2^-53 after n emissions.  A
        decision is taken only when [t - eps, t + eps] avoids every dyadic
        point of level r.  An uncertain decision or r > 48 takes one step
        of the integer loop instead.
        Pending steps, n emissions and R reads, commit to the integers in
        closed form:
            L <- L·den^n·2^R + W·den^n·B - U·2^R·Z
            W <- W·den^n,  U <- U·2^R·P
        where B holds the R bits read, P is the product of the emitted
        slices' widths and Z <- Z·den + low·P per emission.  Commits happen
        before an integer step, after 96 emissions, or once eps exceeds
        2^-16; each rebuilds t and g.
    (c) Every other table, and every table on a capped stream (``limit``,
        so that exhaustion fails bit by bit), runs the integer loop.
    """

    def __init__(self, weights, stream: BitStream, block: int = 4096):
        fracs = [as_fraction(w) for w in weights]
        if any(w < 0 for w in fracs) or sum(fracs) != 1:
            raise ValueError("weights must be nonnegative rationals summing to 1")
        den = lcm(*(w.denominator for w in fracs))
        cum = [0, *accumulate(int(w * den) for w in fracs)]
        # the positive-weight slices as (symbol, low end, high end) in
        # units of 1/den
        slices = [(k, cum[k], cum[k + 1]) for k in range(len(fracs))
                  if cum[k] < cum[k + 1]]
        # bits drawn so far, shared with the decoding generator
        self._count = count = [0]
        block = max(block, 1)
        capped = getattr(stream, "limit", None) is not None
        if not capped and den == len(slices) and den & (den - 1) == 0:
            symbols = _uniform_symbols(count, stream, den.bit_length() - 1,
                                       [k for k, _, _ in slices])
        elif not capped and len(slices) == 2:
            symbols = _binary_symbols(count, stream, den, slices, block)
        else:
            symbols = _exact_blocks(count, stream, den, slices, block)
        self._next = symbols.__next__

    @property
    def consumed(self) -> int:
        """Bits this sampler has drawn from its stream so far."""
        return self._count[0]

    def sample(self) -> int:
        """Emit the next symbol index, drawing bits only as needed."""
        try:
            return self._next()
        except StopIteration:
            # the decoding generator ended when its stream ran out
            raise SeedExhaustedError("sampler's seed stream is exhausted",
                                     bits_needed=1) from None


def _exact_symbols(count, stream, den, slices, n, L=0, W=1, U=1):
    """The integer interval decoder: yield n symbols from state (L, W, U),
    then return the state."""
    take = stream.take
    for _ in range(n):
        # refine the scale by den: the interval's slices are then
        # [U * low, U * high) in whole units
        L, W = L * den, W * den
        while True:
            for k, low, high in slices:
                top = U * high
                if L < top:
                    break
            if L + W <= top:
                break
            # the window straddles a slice boundary: read one more bit
            L = 2 * L + (W if take(1) else 0)
            U *= 2
            count[0] += 1
        L, U = L - U * low, U * (high - low)
        yield k
    return L, W, U


def _exact_blocks(count, stream, den, slices, block):
    while True:
        yield from _exact_symbols(count, stream, den, slices, block)


def _uniform_symbols(count, stream, k, symbols):
    take = stream.take
    while True:
        v = take(k)
        count[0] += k
        yield symbols[v]


def _commit(L, W, U, den, a, n, R, B, ones):
    """The integer state after n pending emissions and R pending reads of
    bits B; ones lists the (1-based) emissions of slice [a, den)."""
    if not n:
        return L, W, U
    # P: product of the emitted widths; Z <- Z·den + low·P per emission,
    # with the runs of slice-0 emissions (low 0, width a) taken as powers
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


def _shadow(L, W, U, den, a):
    """The float shadow (t, g) of an integer state and the error bound of
    t in units of g."""
    Wd = W * den
    t = (a * U - L * den) / Wd
    g = U / Wd
    return t, g, ((t if t > 0 else -t) + 1) * _FRESH_ERR / g


def _binary_symbols(count, stream, den, slices, block):
    (sym0, _, a), (sym1, _, _) = slices
    b = den - a
    scale0, scale1 = a / den, b / den
    # an emission maps the error bound e (in units of g) to e·grow + add
    grow0, grow1 = den / a * _GROW, den / b * _GROW
    add = den * _STEP_ERR
    peek, advance = stream.peek, stream.advance
    while True:
        L, W, U = 0, 1, 1
        t, g, e = _shadow(L, W, U, den, a)
        n = R = B = 0
        ones = []
        one = ones.append
        for _ in range(block):
            eps = e * g
            if eps > _COMMIT_ERR or n >= _MAX_PENDING:
                L, W, U = _commit(L, W, U, den, a, n, R, B, ones)
                n = R = B = 0
                ones.clear()
                t, g, e = _shadow(L, W, U, den, a)
                eps = e * g
            lo = t - eps
            if lo >= 1:
                s = 0
            elif t + eps <= 0:
                s = 1
            else:
                # r = (common prefix of the next seed bits and t) + 1, or
                # more than _MAX_READ when that prefix is too long to use
                word = peek(_WORD)
                r = _WORD + 1 - ((word ^ int(t * _TWO_WORD)) | 1).bit_length()
                bits = word >> (_WORD - r)
                edge = bits ^ 1  # t's own first r bits
                scale = _POW2[r]
                if (r > _MAX_READ or not edge < lo * scale
                        or not (t + eps) * scale < edge + 1):
                    # uncertain: commit, take the exact step, rebuild
                    L, W, U = yield from _exact_symbols(
                        count, stream, den, slices, 1,
                        *_commit(L, W, U, den, a, n, R, B, ones))
                    n = R = B = 0
                    ones.clear()
                    t, g, e = _shadow(L, W, U, den, a)
                    continue
                advance(r)
                count[0] += r
                B = (B << r) | bits
                R += r
                t = t * scale - bits
                g *= scale
                s = bits & 1
            n += 1
            if s:
                g *= scale1
                t += a * g
                e = e * grow1 + add
                one(n)
                yield sym1
            else:
                g *= scale0
                t -= b * g
                e = e * grow0 + add
                yield sym0


def biased_bit_sampler(q, stream: BitStream, N: int, block: int = 4096):
    """Draw N exact biased bits (probability q of 1) from a uniform stream.

    Returns (bits, bits_consumed).  Consumption is within a few percent of
    N times the binary entropy of q for large N; q = 1/2 costs exactly one
    bit per output bit.
    """
    qf = as_fraction(q)
    if not 0 < qf < 1:
        raise ValueError(f"bias must lie in (0, 1), got {q}")
    sampler = CategoricalSampler([1 - qf, qf], stream, block=block)
    before = stream.consumed
    bits = [sampler.sample() for _ in range(N)]
    return bits, stream.consumed - before


@dataclass(frozen=True)
class ProtocolConfig:
    """Arguments of the round protocols.

    mode "R" plays a nonlocal game; modes "A" and "Aprime" drive a
    single-part (partially) trusted device with the raw g bit.  Mode "A"
    is the special case v = 1, h = 0 of "Aprime".
    """

    mode: str
    N: int
    q: Fraction
    eta: float
    game: XorGame | None = None
    w_G: float | None = None
    v: float = 1.0
    h: float = 0.0

    def __post_init__(self):
        if self.mode not in ("R", "A", "Aprime"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.N < 0:
            raise ValueError("round count must be nonnegative")
        object.__setattr__(self, "q", as_fraction(self.q))
        if not 0 < self.q < 1:
            raise ValueError("test probability must lie in (0, 1)")
        if self.mode == "R":
            if self.game is None or self.w_G is None:
                raise ValueError("mode R needs a game and its winning probability")
            if not 0 < self.eta < 0.5:
                raise ValueError("error tolerance must lie in (0, 1/2)")
        else:
            if self.mode == "A" and not (self.v == 1.0 and self.h == 0.0):
                raise ValueError("mode A fixes v = 1, h = 0")
            # v = 0 (pure coin-flip mixture) is accepted as a degenerate
            # case with the game-protocol tolerance domain
            cap = self.v / 2 if self.v > 0 else 0.5
            if not 0 < self.eta < cap:
                raise ValueError(f"error tolerance must lie in (0, {cap})")

    @property
    def abort_threshold(self) -> float:
        q = float(self.q)
        if self.mode == "R":
            return (1.0 - self.w_G + self.eta) * q * self.N
        return (self.h / 2.0 + self.eta) * q * self.N


def _symbol_string(codes) -> str:
    return np.frombuffer(b"HTPF", dtype=np.uint8)[codes].tobytes().decode()


@dataclass
class Transcript:
    """The round tape of one run and its seed accounting.  Numpy columns,
    one entry per round: g, the symbol code (H, T, P, F = 0..3: twice g
    plus the first output or the loss, which is also the 2-bit encoding)
    and, when recorded, the input (a position in inputs) and the packed
    outputs (first component in the highest bit).  rounds rebuilds the
    (g, input, outputs, symbol) tuples, or (g, None, None, symbol), on read."""

    g: np.ndarray
    codes: np.ndarray
    inputs: tuple = ()
    input_index: np.ndarray | None = None
    outputs: np.ndarray | None = None
    failures: int = 0
    g_bits_used: int = 0
    input_bits_used: int = 0

    @property
    def seed_bits_used(self) -> int:
        return self.g_bits_used + self.input_bits_used

    @property
    def symbols(self) -> str:
        return _symbol_string(self.codes)

    @property
    def rounds(self) -> list:
        g = self.g.tolist()
        if self.outputs is None:
            return [(gi, None, None, s) for gi, s in zip(g, self.symbols)]
        n = len(self.inputs[0])
        outs = [tuple((o >> (n - 1 - j)) & 1 for j in range(n))
                for o in self.outputs.tolist()]
        ins = [self.inputs[k] for k in self.input_index.tolist()]
        return list(zip(g, ins, outs, self.symbols))

    def counts(self) -> dict:
        return dict(zip(SYMBOLS, np.bincount(self.codes, minlength=4).tolist()))

    def check_symbol_consistency(self) -> bool:
        h, t, p, f = np.bincount(self.codes, minlength=4).tolist()
        games = int(np.count_nonzero(self.g))
        return p + f == games and h + t == len(self.g) - games


@dataclass(frozen=True)
class RunOutcome:
    success: bool
    transcript: Transcript
    threshold: float

    @property
    def aborted(self) -> bool:
        return not self.success


def symbols_to_bits(symbols) -> np.ndarray:
    """Fixed 2-bit encoding of the round alphabet (H=00, T=01, P=10, F=11),
    from a symbol string or a column of symbol codes."""
    if isinstance(symbols, str):
        symbols = ["HTPF".index(s) for s in symbols]
    codes = np.asarray(symbols, dtype=np.uint8)
    return np.stack((codes >> 1, codes & 1), axis=1).ravel()


def _at_once(behavior):
    """Answers a run of a history-independent behavior in one pass: one
    uniform draw per round, located in the cumulative output distribution
    of the round's input with the float arithmetic of a per-round draw."""
    def answer(inputs, input_index, rng):
        u = rng.random(len(input_index))
        out = np.zeros(len(input_index), dtype=np.int64)
        for k, bits in enumerate(inputs):
            rounds = input_index == k
            cum = np.cumsum(behavior.output_distribution(bits))
            out[rounds] = np.minimum(
                np.searchsorted(cum, u[rounds] * cum[-1], side="right"),
                len(cum) - 1)
        return out
    return answer


def _per_round(state: DeviceState):
    """Answers a run of a stateful device round by round, in round order,
    through devices.respond."""
    def answer(inputs, input_index, rng):
        return np.array([int("".join(map(str, respond(state, inputs[k], rng))), 2)
                         for k in input_index.tolist()], dtype=np.int64)
    return answer


def make_responder(behavior):
    """The device's answers to a run: responder(inputs, input_index, rng)
    returns every round's packed outputs in one call."""
    if isinstance(behavior, (PartiallyTrustedBehavior, AdversarialBehavior)):
        return _per_round(DeviceState(behavior))
    return _at_once(behavior)


# the single-part protocol as a one-input game: input 1 with certainty, won
# on output 0 (sign +1)
_SINGLE_PART_TABLE = (((1,), Fraction(1), 1),)


def _play_rounds(N: int, q, table, responder, seed_stream: BitStream,
                 device_rng: np.random.Generator,
                 record_rounds: bool = True) -> Transcript:
    """Play N rounds of the round protocol and return their tape.

    table holds (input bits, probability, sign) triples in XorGame.entries
    form; a game round is won when the output parity is (1 - sign) / 2,
    and a generation round feeds the all-zero input.  Two passes: the one
    per-round loop decodes each round's g bit and, on a game round, its
    input from the seed stream; then one responder call (make_responder)
    answers every round and the rounds are scored on whole columns.  The
    device never draws from the seed stream, so this gives the transcript
    of a round-by-round loop.  record_rounds=False keeps only g and codes.
    """
    q = as_fraction(q)
    draw_g = CategoricalSampler([1 - q, q], seed_stream)
    draw_input = CategoricalSampler([p for _, p, _ in table], seed_stream)
    sample_g, sample_input = draw_g.sample, draw_input.sample
    games, picks = [], []
    for i in range(N):
        if sample_g():
            games.append(i)
            picks.append(sample_input())
    inputs = [bits for bits, _, _ in table]
    zero = tuple([0] * len(inputs[0]))
    if zero not in inputs:
        inputs.append(zero)  # fed on generation rounds only, never scored
    win_parity = np.array([(1 - sign) // 2 for _, _, sign in table] + [0])
    g = np.zeros(N, dtype=np.uint8)
    g[games] = 1
    input_index = np.full(N, inputs.index(zero), dtype=np.int64)
    input_index[games] = picks
    outputs = responder(tuple(inputs), input_index, device_rng)
    lost = (np.bitwise_count(outputs) & 1) != win_parity[input_index]
    first = outputs >> (len(zero) - 1)
    codes = (2 * g + np.where(g == 1, lost, first)).astype(np.uint8)
    if not record_rounds:
        input_index = outputs = None
    return Transcript(g=g, codes=codes, inputs=tuple(inputs),
                      input_index=input_index, outputs=outputs,
                      failures=int(np.count_nonzero(codes == 3)),
                      g_bits_used=draw_g.consumed,
                      input_bits_used=draw_input.consumed)


def _outcome(config: ProtocolConfig, tr: Transcript) -> RunOutcome:
    threshold = config.abort_threshold
    return RunOutcome(success=tr.failures <= threshold, transcript=tr,
                      threshold=threshold)


def run_protocol_r(config: ProtocolConfig, behavior, seed_stream: BitStream,
                   device_rng: np.random.Generator,
                   record_rounds: bool = True):
    """Execute the game protocol against a device.

    Generation rounds feed the all-zero input and read component 1 (H on
    output 0, T on 1); game rounds sample the game's input distribution and
    score P or F.  Aborts when failures exceed (1 - w + eta) q N.
    """
    if config.mode != "R":
        raise ValueError("config is not for the game protocol")
    game = config.game
    if behavior.n != game.n:
        raise ValueError(
            f"device has {behavior.n} components, game needs {game.n}")
    tr = _play_rounds(config.N, config.q, game.entries, make_responder(behavior),
                      seed_stream, device_rng, record_rounds)
    return _outcome(config, tr)


def run_protocol_a_prime(config: ProtocolConfig, behavior, seed_stream: BitStream,
                         device_rng: np.random.Generator):
    """Execute the single-part protocol: the g bit itself is the device input.

    P/F are recorded on g = 1 (output 0 passes), H/T on g = 0; aborts when
    failures exceed (h/2 + eta) q N.  The device answers through
    devices.respond for every behavior, so its draws do not depend on the
    variant's sampling shortcut.
    """
    if config.mode not in ("A", "Aprime"):
        raise ValueError("config is not for the trusted-device protocol")
    if behavior.n != 1:
        raise ValueError("trusted-device protocol drives a single-part device")
    tr = _play_rounds(config.N, config.q, _SINGLE_PART_TABLE,
                      _per_round(DeviceState(behavior)), seed_stream, device_rng)
    return _outcome(config, tr)


def run_protocol(config: ProtocolConfig, behavior, seed_stream, device_rng,
                 record_rounds: bool = True):
    """Run the protocol config.mode names.  record_rounds=False applies to
    the game protocol; A' transcripts always keep their inputs and outputs."""
    if config.mode == "R":
        return run_protocol_r(config, behavior, seed_stream, device_rng,
                              record_rounds)
    return run_protocol_a_prime(config, behavior, seed_stream, device_rng)


# ---------------------------------------------------------------------------
# Monte Carlo harness


@dataclass(frozen=True)
class TrialSummary:
    trial: int
    success: bool
    failures: int
    games: int
    seed_bits: int


@dataclass(frozen=True)
class MonteCarloStats:
    trials: int
    aborts: int
    abort_rate: float
    wilson_low: float
    wilson_high: float
    failure_histogram: dict
    completeness_bound: float | None
    bound_exceeded: bool
    records: tuple

    def to_record(self) -> dict:
        return {
            "trials": self.trials,
            "aborts": self.aborts,
            "abort_rate": self.abort_rate,
            "wilson_low": self.wilson_low,
            "wilson_high": self.wilson_high,
            "completeness_bound": self.completeness_bound,
            "bound_exceeded": self.bound_exceeded,
        }


def wilson_interval(k: int, n: int, z: float = 1.96):
    if n == 0:
        return 0.0, 1.0
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def completeness_error_bound(eta: float, eta_prime: float, q: float, N: int) -> float:
    """Abort-probability bound for a device within eta' of honest play."""
    if eta_prime >= eta:
        raise ValueError("requires eta' < eta")
    return float(np.exp(-((eta - eta_prime) ** 2) * q * N / 3.0))


def exceeds_bound(events: int, trials: int, bound: float) -> bool:
    """True when the frequency events/trials exceeds bound by more than
    three binomial standard errors, taken at the smoothed frequency
    (events + 1/2)/(trials + 1) so that zero events still carry an error."""
    p_smooth = (events + 0.5) / (trials + 1)
    sigma = np.sqrt(p_smooth * (1 - p_smooth) / trials)
    return bool(events / trials > bound + 3 * sigma)


def monte_carlo(config: ProtocolConfig, behavior, trials: int, master: bytes,
                completeness_bound: float | None = None,
                workers: int = 1) -> MonteCarloStats:
    """Repeat a protocol run over per-trial substreams and aggregate.

    Each trial derives its protocol-seed stream and device stream from
    (master, trial index), so results do not depend on scheduling.  When a
    completeness bound is supplied, the empirical abort rate is flagged if
    it exceeds the bound by more than three binomial standard errors.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    indices = range(trials)
    # the fork-based pool starts all its processes up front, so never ask
    # for more than there are trials or CPUs
    workers = min(workers, trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(
                _run_trial, ((config, behavior, master, t) for t in indices),
                chunksize=max(1, trials // (workers * 4))))
    else:
        records = [_run_trial((config, behavior, master, t)) for t in indices]
    aborts = sum(1 for r in records if not r.success)
    rate = aborts / trials
    lo, hi = wilson_interval(aborts, trials)
    hist: dict = {}
    for r in records:
        hist[r.failures] = hist.get(r.failures, 0) + 1
    exceeded = (completeness_bound is not None
                and exceeds_bound(aborts, trials, completeness_bound))
    return MonteCarloStats(
        trials=trials, aborts=aborts, abort_rate=rate,
        wilson_low=lo, wilson_high=hi, failure_histogram=hist,
        completeness_bound=completeness_bound, bound_exceeded=exceeded,
        records=tuple(records),
    )


def _run_trial(args) -> TrialSummary:
    config, behavior, master, trial = args
    stream = substream(master, "protocol-seed", trial)
    rng = numpy_rng(master, "device", trial)
    out = run_protocol(config, behavior, stream, rng, record_rounds=False)
    tr = out.transcript
    return TrialSummary(trial=trial, success=out.success, failures=tr.failures,
                        games=int(np.count_nonzero(tr.g)),
                        seed_bits=tr.seed_bits_used)


# ---------------------------------------------------------------------------
# Exact small-N execution


@dataclass(frozen=True)
class ExactRunResult:
    lhs: float
    rhs: float
    holds: bool
    gamma: float
    labels: tuple
    gamma_blocks: tuple
    sigma_blocks: tuple
    env_state: np.ndarray


def exact_small_run(N: int, behavior: PartiallyTrustedBehavior, q: float,
                    kappa: float, r: float, slack: float = 1e-8) -> ExactRunResult:
    """Exact density-operator execution of the single-part protocol for
    N <= 4 rounds, checking the accumulated divergence inequality.

    Builds the joint classical-quantum state over (environment, g-string,
    o-string) by branching every round through the device's Kraus
    decomposition, then compares its order-(1+gamma) divergence against the
    weighted reference operator (failures weighted by 2^(1/(q r)) per
    round) with the bound -N times the worst-case one-round rate.
    """
    if not 1 <= N <= 4:
        raise ValueError("exact execution supports 1 to 4 rounds")
    dq = behavior.device_dim
    de = behavior.env_dim
    if dq * de > 16:
        raise ValueError("joint dimension too large for exact execution")
    gamma = r * q * kappa
    if not 0 < gamma <= 1:
        raise ValueError("need 0 < r q kappa <= 1")
    psi = behavior.state
    rho0 = np.outer(psi, psi.conj())
    env_eye = np.eye(de)

    kraus = {g: [(w, np.kron(k0, env_eye), np.kron(k1, env_eye))
                 for w, k0, k1, _ in behavior.kraus_for(g)]
             for g in (0, 1)}
    g_weight = {0: 1.0 - q, 1: q}

    branches = {(): rho0}
    for _ in range(N):
        nxt = {}
        for hist, rho in branches.items():
            for g in (0, 1):
                outs = {0: np.zeros_like(rho), 1: np.zeros_like(rho)}
                for w, k0, k1 in kraus[g]:
                    outs[0] += w * (k0 @ rho @ k0.conj().T)
                    outs[1] += w * (k1 @ rho @ k1.conj().T)
                for o in (0, 1):
                    nxt[hist + ((g, o),)] = g_weight[g] * outs[o]
        branches = nxt

    labels = tuple(sorted(branches))
    gamma_blocks = []
    env_state = np.zeros((de, de), dtype=np.complex128)
    for lab in labels:
        block = _trace_out_device(branches[lab], dq, de)
        gamma_blocks.append(block)
        env_state += block
    sigma_blocks = []
    for lab in labels:
        fails = sum(g * o for g, o in lab)
        games = sum(g for g, o in lab)
        weight = (1.0 - q) ** (N - games) * q**games * 2.0 ** (fails / (q * r))
        sigma_blocks.append(weight * env_state)

    lhs = renyi_divergence(
        BlockOperator(labels, tuple(gamma_blocks)),
        BlockOperator(labels, tuple(sigma_blocks)),
        1.0 + gamma,
    )
    rhs = -N * worst_case_rate(behavior.v, behavior.h, q, kappa, r)
    return ExactRunResult(
        lhs=float(lhs), rhs=float(rhs), holds=bool(lhs <= rhs + slack),
        gamma=gamma, labels=labels, gamma_blocks=tuple(gamma_blocks),
        sigma_blocks=tuple(sigma_blocks), env_state=env_state,
    )


def _trace_out_device(rho: np.ndarray, dq: int, de: int) -> np.ndarray:
    r = rho.reshape(dq, de, dq, de)
    return np.einsum("iaib->ab", r)


def conditional_environment_states(behavior: PartiallyTrustedBehavior) -> dict:
    """One-round conditional states of the environment.

    Keys "H","T" (input 0), "P","F" (input 1, actual mixture), and "0","1"
    (input 1 with the trusted measurement only), all as subnormalized
    operators on the environment.
    """
    dq, de = behavior.device_dim, behavior.env_dim
    psi = behavior.state
    rho = np.outer(psi, psi.conj())
    env_eye = np.eye(de)

    def apply(k):
        kk = np.kron(k, env_eye)
        return _trace_out_device(kk @ rho @ kk.conj().T, dq, de)

    t0, t1 = behavior.trusted_pair
    out = {
        "H": apply(0.5 * (np.eye(dq) + t0)),
        "T": apply(0.5 * (np.eye(dq) - t0)),
        "0": apply(0.5 * (np.eye(dq) + t1)),
        "1": apply(0.5 * (np.eye(dq) - t1)),
    }
    p = np.zeros((de, de), dtype=np.complex128)
    f = np.zeros((de, de), dtype=np.complex128)
    for w, k0, k1, _ in behavior.kraus_for(1):
        kk0, kk1 = np.kron(k0, env_eye), np.kron(k1, env_eye)
        p += w * _trace_out_device(kk0 @ rho @ kk0.conj().T, dq, de)
        f += w * _trace_out_device(kk1 @ rho @ kk1.conj().T, dq, de)
    out["P"], out["F"] = p, f
    return out
