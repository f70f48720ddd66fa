"""Executable protocol state machines and their exact desk-scale validator.

The round structure: a biased bit g decides between a game round (an input
is drawn from the protocol's input table and the device plays, scored P or
F) and a generation round (the all-zero input is fed and the first
component's output is recorded as H or T).  The run aborts when game
failures exceed the configured threshold.

One round engine plays protocol R and key distribution (qkd.run_rkd),
which plays the game table too and derives both parties' bits from the
recorded rounds.  The device answers a run in one call: history-independent
behaviors in one pass over per-round uniform draws, adversaries through
their scripts round by round.  The single-part protocol A' on a partially
trusted device is executed exactly, for a few rounds, by exact_small_run.

Seed bits are consumed through an exact arithmetic decoder, so a biased bit
costs close to its Shannon entropy; g-bits and game-input bits are drawn
from the same stream and accounted separately.  Device (Born-rule)
randomness comes from a distinct labeled stream.
"""

from __future__ import annotations

import functools
import os
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from math import lcm, log2

import numpy as np

from .devices import (
    AdversarialBehavior,
    PartiallyTrustedBehavior,
    random_partially_trusted,
)
from .entropy import (
    INEQUALITY_SLACK,
    BlockOperator,
    measurement_split,
    renyi_divergence,
    schatten_ineq_check,
    uncertainty_check,
)
from .errors import check_domain
from .rates import _checked_lanes, worst_case_rate
from .seeding import BitStream, numpy_rng, substream
from .xorgames import XorGame, as_fraction

VERIFY_SUITES = ("uncertainty", "schatten", "multishot", "partial-trust")
WILSON_Z = 1.96          # normal quantile of the two-sided 95% abort interval
EXACT_RUN_SLACK = 1e-8   # float tolerance of exact_small_run's inequality


# the binary decoder's float shadow (see CategoricalSampler)
_WORD = 30                     # seed bits in a read's word: the word,
                               # t·2^30 and their XOR stay single-digit
                               # ints
_TWO_WORD = float(1 << _WORD)
_WORD_MASK = (1 << _WORD) - 1
_POW2 = [float(1 << r) for r in range(_WORD + 1)]
_MAX_PENDING = 96              # emissions between commits
_FRESH_ERR = 2.0 ** -50        # error of t per unit of |t| + 1 when rebuilt
_STEP_ERR = 2.0 ** -45         # error of t per emission per unit of den·g;
                               # >= (2 * _MAX_PENDING + 4) * 2^-53
_GROW = 1 + 2.0 ** -40         # covers the rounding of g's rescaling
_COMMIT_ERR = 2.0 ** -16       # commit once the error of t exceeds this
_FLOAT_MAX = float(np.finfo(float).max)  # a larger den fails the shadow
_TRUNCATED_ERR = 57            # rebuild from a truncated state only while
                               # D / (W - D) <= 2^-_TRUNCATED_ERR
_BLOCK = 4096                  # symbols between decoder state resets
_LAW_CACHE_SIZE = 32           # decoder tables kept per process
_POWER_TABLE_BITS = 32         # longer bases compute their powers on use


def _draw(sampler) -> int:
    """Emit the next symbol index, drawing bits only as needed."""
    return sampler._next()


class _Draw:
    """CategoricalSampler.sample.  Read on a sampler, it is the decoding
    generator's bound ``__next__``, so a call adds no Python frame per
    symbol.  Read on the class, it is the plain function _draw, so
    ``CategoricalSampler.sample(s)`` draws from s too, and a wrapper set on
    the class in its place sees every draw at the cost of one function
    call."""

    def __get__(self, sampler, owner=None):
        return _draw if sampler is None else sampler._next


class CategoricalSampler:
    """Exact sampler over a rational distribution via arithmetic decoding.

    The uniform bit stream is read as the binary expansion of a real in
    [0, 1); symbols are emitted as soon as the known window of that real
    fits inside one slice of the current interval, so consumption tracks
    the entropy rate (Han-Hoshi interval algorithm).  The state is kept
    relative to the interval's low end as three integers: the window's
    offset L and width W, and the interval's width U.  The state is reset
    every _BLOCK symbols to keep the integers bounded, wasting at most a
    few bits per block.

    Three paths give the symbols and bit counts of the plain integer loop
    (``_exact_symbols``); the table alone picks one:

    (a) Uniform 2^k tables (every positive slice one unit wide, den = 2^k)
        draw the next k seed bits by moving the stream's cursor past them
        (see BitStream), with no method call, and return the positive
        slice they name.  From a state c·(0, 1, 1) the window spans more
        than one slice until k bits are read; after exactly k bits it is
        one slice, and emitting it gives a state c'·(0, 1, 1) again.  Block
        resets give (0, 1, 1), so every symbol is one k-bit draw.
    (b) Two-slice tables [0, a) and [a, den) decide on floats: the cut's
        position in the window, t = (a·U - L·den) / (W·den), and
        g = U / (W·den).  The loop emits slice 0 when t >= 1 and slice 1
        when t <= 0, reading nothing.  Otherwise it reads until the bits
        leave t's binary expansion: r = (common prefix of t and the word,
        the next 30 seed bits) + 1 bits, then emits the slice on the side
        of the last bit.  The word comes straight off the stream's buffer,
        and the r bits are drawn by moving the stream's cursor (see
        BitStream).  A read of bits B maps t <- 2^r·t - B, g <- 2^r·g,
        exactly in floats; emitting slice 0 maps g <- g·a/den,
        t <- t - (den - a)·g, and slice 1 maps g <- g·(den - a)/den,
        t <- t + a·g.
        eps bounds the float error of t and is kept as e = eps / g.  A
        rebuild from the integers is correctly rounded, so it starts at
        eps = 2^-50·(|t| + 1).  A read scales g and eps by 2^r and leaves e
        as it is.  An emission rescales e by den/width (times 1 + 2^-40)
        and adds den·2^-45: t/g is a - y for a window start y in [0, den),
        so that term covers the rounding of t and of the step, whose g has
        a relative error of at most (2n + 1)·2^-53 after n emissions.  A
        decision is taken only when [t - eps, t + eps] avoids every dyadic
        point of level r.  An uncertain decision, or a common prefix that
        fills the word (r > 30), takes one step of the integer loop
        instead.
        Pending steps, n emissions and R reads, commit in closed form:
            L <- L·den^n·2^R + W·den^n·B - U·2^R·Z
            W <- W·den^n,  U <- U·2^R·P
        where B holds the R bits read, P is the product of the emitted
        slices' widths and Z <- Z·den + low·P per emission.  Commits happen
        before an integer step, after 96 emissions, or once eps exceeds
        2^-16; each rebuilds t and g.  den must not exceed the largest
        float, or the table is rejected with a ValueError.
        While W has at most keep bits the commits apply to the exact
        integers.  keep is block·h·1.25 + 256 bits, h the table's binary
        entropy: a quarter more than the seed bits a block reads.  Past
        keep bits a commit shifts its result right so that W keeps keep
        bits, and an integer D bounds each component's distance from the
        exact state at that scale.  A commit maps D <- D·den^n·2^(R+2):
        each of L's three terms moves by at most D·den^n·2^R (B < 2^R,
        Z < den^n, P <= den^n), W and U by no more.  A shift by k maps
        D <- ceil(D/2^k) + 1.  The shadow is rebuilt from the truncated
        state only while r = D/(W - D) <= 2^-57, where it keeps the budgets
        above.  The numerator a·U - L·den moves by at most
        D·(a + den) < 2·D·den and W by at most D, so the truncated state's
        t lies within r·(2 + |t|) of the exact one; with the rounding that
        is under 2^-52·(|t| + 1), inside the rebuild's eps.  The window
        lies in the interval (W <= U), so g's relative error gains at most
        2r + r^2 < 2^-55, and after n emissions it stays under
        (2n + 2)·2^-53, which the den·2^-45 term still covers with the two
        roundings of the step.  The exact state
        is held as an anchor (the last exact state) and the steps committed
        since.  A commit that would leave r above 2^-57, and an uncertain
        decision before its integer step, replay those steps through the
        closed form and go on from the exact state; D = 0 marks the state
        as exact, and only a commit past keep bits truncates it again.
    (c) Every other table runs the integer loop.

    The table depends on the weights alone: den, the positive slices and,
    for two slices, the powers a^k and den^k for k <= 96 that commits
    multiply by.  So ``_law`` keeps the last 32 tables in one process-wide
    LRU cache keyed by the exact weights (floats through their decimal
    form: 0.05 and 1/20 share one table).  Powers of a base longer than 32
    bits are computed on lookup rather than held.  Weights that raise are
    not cached and raise again on every call.  keep, the stream and the
    decoding state belong to each sampler, so no symbol or bit count
    depends on what the cache holds.
    """

    def __init__(self, weights, stream: BitStream):
        den, slices, powers = _law(tuple(as_fraction(w) for w in weights))
        # bits drawn so far, shared with the decoding generator
        self._count = count = [0]
        if den == len(slices) and den & (den - 1) == 0:
            symbols = _uniform_symbols(count, stream, den.bit_length() - 1,
                                       [k for k, _, _ in slices])
        elif powers:
            symbols = _binary_symbols(count, stream, den, slices, powers,
                                      _BLOCK)
        else:
            symbols = _exact_blocks(count, stream, den, slices, _BLOCK)
        self._next = symbols.__next__

    @property
    def consumed(self) -> int:
        """Bits this sampler has drawn from its stream so far."""
        return self._count[0]

    sample = _Draw()


@functools.lru_cache(maxsize=_LAW_CACHE_SIZE)
def _law(fracs):
    """The decoder table of the exact weights fracs: (den, slices, powers).
    slices lists the positive-weight slices as (symbol, low end, high end)
    in units of 1/den; powers is the pair of tables a^k and den^k for
    k <= _MAX_PENDING on a two-slice table [0, a), [a, den), and None on
    any other table."""
    if any(w < 0 for w in fracs) or sum(fracs) != 1:
        raise ValueError("weights must be nonnegative rationals summing to 1")
    den = lcm(*(w.denominator for w in fracs))
    cum = [0, *accumulate(int(w * den) for w in fracs)]
    slices = tuple((k, cum[k], cum[k + 1]) for k in range(len(fracs))
                   if cum[k] < cum[k + 1])
    if len(slices) != 2:
        return den, slices, None
    if den > _FLOAT_MAX:
        raise ValueError(
            f"weights (about {[float(w) for w in fracs]}) have a common "
            f"denominator of {len(str(den))} digits, past the "
            f"largest float that the two-slice decoder works in")
    return den, slices, (_powers(slices[0][2]), _powers(den))


class _PowerOf:
    """x^k on indexing, for a base too long to tabulate."""

    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x

    def __getitem__(self, k):
        return self.x ** k


def _powers(x):
    """x^k for k <= _MAX_PENDING: a list while x has at most
    _POWER_TABLE_BITS bits, else computed on each lookup."""
    if x.bit_length() > _POWER_TABLE_BITS:
        return _PowerOf(x)
    return [x ** k for k in range(_MAX_PENDING + 1)]


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
    mask = (1 << k) - 1
    while True:
        # draw k bits: move the stream's cursor past them (see BitStream)
        buffered = stream._buffered
        if buffered < k:
            stream._refill(k)
            buffered = stream._buffered
        buffered -= k
        stream._buffered = buffered
        count[0] += k
        yield symbols[(stream._buffer >> buffered) & mask]


def _commit(L, W, U, powers, n, R, B, ones):
    """The integer state after n pending emissions and R pending reads of
    bits B; ones lists the (1-based) emissions of slice [a, den), and
    powers holds the tables of a^k and den^k."""
    if not n:
        return L, W, U
    apow, dpow = powers
    a, b = apow[1], dpow[1] - apow[1]
    # P: product of the emitted widths; Z <- Z·den + low·P per emission,
    # with the runs of slice-0 emissions (low 0, width a) taken as powers
    Z, P, last = 0, 1, 0
    for j in ones:
        P *= apow[j - 1 - last]
        Z = Z * dpow[j - last] + a * P
        P *= b
        last = j
    P *= apow[n - last]
    Z *= dpow[n - last]
    dn = dpow[n]
    return (L * dn << R) + W * dn * B - (U * Z << R), W * dn, U * P << R


def _shadow(L, W, U, den, a):
    """The float shadow (t, g) of an integer state and the error bound of
    t in units of g."""
    Wd = W * den
    t = (a * U - L * den) / Wd
    g = U / Wd
    return t, g, ((t if t > 0 else -t) + 1) * _FRESH_ERR / g


def _keep_bits(den, a, block):
    """The bit length of W past which commits shift their result back
    (see CategoricalSampler): block·h·1.25 + 256 for the table
    [0, a), [a, den) of binary entropy h."""
    p, log_den = a / den, log2(den)
    h = p * (log_den - log2(a)) + (1 - p) * (log_den - log2(den - a))
    return int(block * h * 1.25) + 256


def _replay(held, powers):
    """The exact state: the anchor held[0] carried through the steps
    held[1:] committed since."""
    L, W, U = held[0]
    for step in held[1:]:
        L, W, U = _commit(L, W, U, powers, *step)
    return L, W, U


def _truncate(L, W, U, D, held, step, powers, keep):
    """Carry the distance bound D of (L, W, U), just committed by step,
    shift the state back to keep bits of W, and return it with the new D
    (0 once the state is exact again); held is the anchor and the steps
    committed since, and an exact state becomes the anchor.  powers holds
    the tables of a^k and den^k."""
    if D:
        n, R = step[0], step[1]
        D = (D * powers[1][n]) << (R + 2)
        held.append(step)
    else:
        held[:] = [(L, W, U)]
    k = W.bit_length() - keep
    if k > 0:
        L, W, U, D = L >> k, W >> k, U >> k, 1 - (-D >> k)
    if (D << _TRUNCATED_ERR) + D > W:
        return (*_replay(held, powers), 0)
    return L, W, U, D


def _binary_symbols(count, stream, den, slices, powers, block):
    (sym0, _, a), (sym1, _, _) = slices
    b = den - a
    keep = _keep_bits(den, a, block)
    scale0, scale1 = a / den, b / den
    # an emission maps the error bound e (in units of g) to e·grow + add
    grow0, grow1 = den / a * _GROW, den / b * _GROW
    add = den * _STEP_ERR
    commit_err, max_pending = _COMMIT_ERR, _MAX_PENDING
    word_bits, word_mask, two_word, pow2 = _WORD, _WORD_MASK, _TWO_WORD, _POW2
    held = []
    while True:
        L, W, U = 0, 1, 1
        D = 0  # distance bound of the truncated state; 0 while exact
        t, g, e = _shadow(L, W, U, den, a)
        n = R = B = 0
        ones = []
        one = ones.append
        for _ in range(block):
            eps = e * g
            if eps > commit_err or n >= max_pending:
                L, W, U = _commit(L, W, U, powers, n, R, B, ones)
                if D or W.bit_length() > keep:
                    L, W, U, D = _truncate(L, W, U, D, held, (n, R, B, ones),
                                           powers, keep)
                n = R = B = 0
                ones = []  # held may keep the last list
                one = ones.append
                t, g, e = _shadow(L, W, U, den, a)
                eps = e * g
            lo = t - eps
            if lo >= 1:
                # slice 0, reading nothing
                n += 1
                g *= scale0
                t -= b * g
                e = e * grow0 + add
                yield sym0
                continue
            hi = t + eps
            if hi <= 0:
                # slice 1, reading nothing
                n += 1
                g *= scale1
                t += a * g
                e = e * grow1 + add
                one(n)
                yield sym1
                continue
            # the word: the next _WORD seed bits, off the stream's buffer;
            # r = (common prefix of the word and t) + 1, past word_bits when
            # that prefix fills the word
            buffered = stream._buffered
            if buffered < word_bits:
                stream._refill(word_bits)
                buffered = stream._buffered
            word = (stream._buffer >> (buffered - word_bits)) & word_mask
            r = word_bits + 1 - (word ^ int(t * two_word)).bit_length()
            if r <= word_bits:
                bits = word >> (word_bits - r)
                edge = bits ^ 1  # t's own first r bits
                scale = pow2[r]
            if (r > word_bits or not edge < lo * scale
                    or not hi * scale < edge + 1):
                # uncertain: commit exactly, take the exact step, rebuild
                if D:
                    L, W, U = _replay(held, powers)
                    D = 0
                L, W, U = yield from _exact_symbols(
                    count, stream, den, slices, 1,
                    *_commit(L, W, U, powers, n, R, B, ones))
                n = R = B = 0
                ones.clear()
                t, g, e = _shadow(L, W, U, den, a)
                continue
            # draw the r bits: move the stream's cursor past them
            stream._buffered = buffered - r
            count[0] += r
            B = (B << r) | bits
            R += r
            t = t * scale - bits
            g *= scale
            n += 1
            if bits & 1:
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


def biased_bit_sampler(q, stream: BitStream, N: int):
    """Draw N exact biased bits (probability q of 1) from a uniform stream.

    Returns (bits, bits_consumed).  Consumption is within a few percent of
    N times the binary entropy of q for large N; q = 1/2 costs exactly one
    bit per output bit.
    """
    qf = as_fraction(q)
    check_domain("q", qf, "q")
    sampler = CategoricalSampler([1 - qf, qf], stream)
    before = stream.consumed
    draw = sampler.sample
    bits = [draw() for _ in range(N)]
    return bits, stream.consumed - before


@dataclass(frozen=True)
class ProtocolConfig:
    """Arguments of protocol R: N rounds of game probability q against a
    game won with probability w_G, aborting past the error tolerance eta.
    mode is "R", the only protocol the round engine runs."""

    mode: str
    N: int
    q: Fraction
    eta: float
    game: XorGame
    w_G: float

    def __post_init__(self):
        if self.mode != "R":
            raise ValueError(f"unknown mode {self.mode!r}")
        check_domain("N", self.N, "nonnegative")
        object.__setattr__(self, "q", as_fraction(self.q))
        check_domain("q", self.q, "q")
        check_domain("eta", self.eta, "eta")

    @property
    def abort_threshold(self) -> float:
        return (1.0 - self.w_G + self.eta) * float(self.q) * self.N


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


@dataclass(frozen=True)
class RunOutcome:
    success: bool
    transcript: Transcript
    threshold: float


def symbols_to_bits(symbols) -> np.ndarray:
    """Fixed 2-bit encoding of the round alphabet (H=00, T=01, P=10, F=11),
    from a symbol string or a column of symbol codes."""
    if isinstance(symbols, str):
        symbols = ["HTPF".index(s) for s in symbols]
    codes = np.asarray(symbols, dtype=np.uint8)
    return np.stack((codes >> 1, codes & 1), axis=1).ravel()


def _at_once(behavior):
    """Answers a run of a history-independent behavior in one pass: one
    uniform draw u per round, located in the cumulative output distribution
    of the round's input with the float arithmetic of a per-round draw.

    One table cum holds every input's cumulative distribution, built per
    call from the behavior's distributions (honest and noisy behaviors
    memoise one read-only array per instance and input, so no run can
    change a later one).  A round's output is the number of columns
    j < outputs - 1 with cum[input, j] <= x, x = u·cum[input, -1].  Each
    row is nondecreasing, so that count is exactly
    min(searchsorted(row, x, "right"), outputs - 1); leaving out the last
    column is the cap."""
    def answer(inputs, input_index, rng):
        x = rng.random(len(input_index))
        # one contiguous row per output column, to gather the rounds from
        cum = np.cumsum([behavior.output_distribution(bits) for bits in inputs],
                        axis=1).T.copy()
        x *= cum[-1][input_index]  # in place: one rounds-long array fewer
        out = np.zeros(len(input_index), dtype=np.int64)
        for column in cum[:-1]:
            out += column[input_index] <= x
        return out
    return answer


class _TranscriptView(Sequence):
    """Read-only view of a growing transcript list; an adversary reads its
    memory through it without a per-round copy."""

    __slots__ = ("_items",)

    def __init__(self, items: list):
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        return tuple(self._items[i]) if isinstance(i, slice) else self._items[i]


def _scripted(behavior: AdversarialBehavior):
    """Answers an adversary's rounds in round order.  Each round calls its
    program with one view of the run's memory, the (input bits, output
    bits) pairs of the rounds before, and the round's input bits; an answer
    that is not n bits in {0, 1} raises ValueError.  The memory lives as
    long as the responder, and no answer draws from rng."""
    n, program = behavior.n, behavior.program
    memory = []
    view = _TranscriptView(memory)

    def answer(inputs, input_index, rng):
        inputs = [tuple(int(b) for b in bits) for bits in inputs]
        out = np.empty(len(input_index), dtype=np.int64)
        for i, k in enumerate(input_index.tolist()):
            bits = inputs[k]
            reply = tuple(int(b) for b in program(view, bits))
            if len(reply) != n or not set(reply) <= {0, 1}:
                raise ValueError(f"adversary answered {reply}, not {n} bits")
            memory.append((bits, reply))
            out[i] = int("".join(map(str, reply)), 2)
        return out
    return answer


def make_responder(behavior):
    """The device's answers to a run: responder(inputs, input_index, rng)
    returns every round's packed outputs in one call."""
    if isinstance(behavior, AdversarialBehavior):
        return _scripted(behavior)
    return _at_once(behavior)


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
    # one conversion each; the dtypes hold when no round is a game round
    games = np.array(games, dtype=np.intp)
    picks = np.array(picks, dtype=np.int64)
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
    game = config.game
    if behavior.n != game.n:
        raise ValueError(
            f"device has {behavior.n} components, game needs {game.n}")
    tr = _play_rounds(config.N, config.q, game.entries, make_responder(behavior),
                      seed_stream, device_rng, record_rounds)
    return _outcome(config, tr)


def run_protocol(config: ProtocolConfig, behavior, seed_stream, device_rng,
                 record_rounds: bool = True):
    """run_protocol_r, called once per monte_carlo trial under this name,
    by which perfbench's Monte Carlo workload times its trials."""
    return run_protocol_r(config, behavior, seed_stream, device_rng,
                          record_rounds)


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


def wilson_interval(k: int, n: int):
    z = WILSON_Z
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
    check_domain("trials", trials, "count")
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
    labels: tuple
    gamma_blocks: tuple
    sigma_blocks: tuple
    env_state: np.ndarray


def exact_small_run(N: int, behavior: PartiallyTrustedBehavior, q: float,
                    kappa: float, r: float) -> ExactRunResult:
    """Exact density-operator execution of the single-part protocol for
    N <= 4 rounds, checking the accumulated divergence inequality.

    Builds the joint classical-quantum state over (environment, g-string,
    o-string) by branching every round through the device's Kraus
    decomposition, then compares its order-(1+gamma) divergence against the
    weighted reference operator (failures weighted by 2^(1/(q r)) per
    round) with the bound -N times the worst-case one-round rate.

    The branch tree grows as one (4^n, D, D) stack: a round maps branch
    hist to the four children hist*4 + 2g + o, so stack order is the sorted
    order of the (g, o) label strings.  Every Kraus product of a round is
    one broadcast matmul chain over the stack, both outcomes of an input
    are weighted and added in one broadcast, and one einsum traces out
    the device.  The labels and each label's (games, fails) counts come
    from a table built once per N (:func:`_label_table`).  The results
    equal a branch-by-branch loop bit for bit (see the entropy module):
    children and reference weights are combined in the loop's order, and
    the environment state is accumulated block by block in label order (one
    ``np.cumsum`` over the stack).

    q, kappa, r and r q kappa are checked before any work, with the names
    and messages of :func:`worst_case_rate`'s lane check.
    """
    if not 1 <= N <= 4:
        raise ValueError("exact execution supports 1 to 4 rounds")
    dq = behavior.device_dim
    de = behavior.env_dim
    if dq * de > 16:
        raise ValueError("joint dimension too large for exact execution")
    _checked_lanes(behavior.v, behavior.h, q, kappa, r)
    gamma = r * q * kappa
    psi = behavior.state
    dim = dq * de

    # per input g: (weight, index of K_out0) for each Kraus branch, with
    # K_out1 at the next index; all operators lifted to the joint space
    ops, branches = [], {}
    for g in (0, 1):
        branches[g] = []
        for w, k0, k1, _ in behavior.kraus_for(g):
            branches[g].append((w, len(ops)))
            ops += [k0, k1]
    ops = _lift(ops, de)[:, None]
    ops_h = ops.conj().swapaxes(-1, -2)
    g_weight = {0: 1.0 - q, 1: q}

    stack = np.outer(psi, psi.conj())[None]
    for _ in range(N):
        prods = ops @ stack @ ops_h
        children = np.empty((len(stack), 4, dim, dim), dtype=np.complex128)
        for g in (0, 1):
            # prods[k + o] is outcome o of branch k: both outcomes at once
            out = np.zeros((2, *stack.shape), dtype=np.complex128)
            for w, k in branches[g]:
                out += w * prods[k:k + 2]
            children[:, 2 * g:2 * g + 2] = (g_weight[g] * out).swapaxes(0, 1)
        stack = children.reshape(-1, dim, dim)

    labels, counts, count_of = _label_table(N)
    gamma_stack = _trace_out_device(stack, dq, de)
    env_state = np.cumsum(gamma_stack, axis=0)[-1]
    # a label's reference weight depends on its game and failure counts
    # only; each is one scalar expression, since numpy's array power can
    # round differently
    weight = np.array([(1.0 - q) ** (N - games) * q**games
                       * 2.0 ** (fails / (q * r)) for games, fails in counts])
    sigma_stack = weight[count_of][:, None, None] * env_state

    lhs = renyi_divergence(BlockOperator(labels, gamma_stack),
                           BlockOperator(labels, sigma_stack), 1.0 + gamma)
    rhs = -N * worst_case_rate(behavior.v, behavior.h, q, kappa, r)
    return ExactRunResult(
        lhs=float(lhs), rhs=float(rhs), holds=bool(lhs <= rhs + EXACT_RUN_SLACK),
        labels=labels, gamma_blocks=tuple(gamma_stack),
        sigma_blocks=tuple(sigma_stack), env_state=env_state,
    )


@functools.cache
def _label_table(N: int) -> tuple:
    """The 4^N (g, o) label strings of an N-round run in stack order, the
    distinct (games, fails) counts among them, and each label's index into
    those counts (read-only)."""
    labels = tuple(product(((0, 0), (0, 1), (1, 0), (1, 1)), repeat=N))
    per_label = [(sum(g for g, _ in lab), sum(g * o for g, o in lab))
                 for lab in labels]
    counts = sorted(set(per_label))
    count_of = np.array([counts.index(c) for c in per_label])
    count_of.setflags(write=False)
    return labels, tuple(counts), count_of


def _lift(ops, de: int) -> np.ndarray:
    """Device operators K as one stack of K (x) I_env: the products
    np.kron forms, without a call per operator."""
    ks = np.array(ops, dtype=np.complex128)
    m, dq = ks.shape[:2]
    return (ks[:, :, None, :, None] * np.eye(de)[:, None, :]).reshape(
        m, dq * de, dq * de)


def _trace_out_device(rho: np.ndarray, dq: int, de: int) -> np.ndarray:
    """Partial trace over the device factor of a stack (..., dq*de, dq*de)."""
    r = rho.reshape(*rho.shape[:-2], dq, de, dq, de)
    return np.einsum("...iaib->...ab", r)


def conditional_environment_states(behavior: PartiallyTrustedBehavior) -> dict:
    """One-round conditional states of the environment.

    Keys "H","T" (input 0), "P","F" (input 1, actual mixture), and "0","1"
    (input 1 with the trusted measurement only), all as subnormalized
    operators on the environment.  Every operator is applied in one
    stacked product.
    """
    dq, de = behavior.device_dim, behavior.env_dim
    psi = behavior.state
    rho = np.outer(psi, psi.conj())
    eye = np.eye(dq)
    t0, t1 = behavior.trusted_pair
    ops = [0.5 * (eye + t0), 0.5 * (eye - t0), 0.5 * (eye + t1), 0.5 * (eye - t1)]
    kraus = behavior.kraus_for(1)
    for _, k0, k1, _ in kraus:
        ops += [k0, k1]
    kk = _lift(ops, de)
    states = _trace_out_device(kk @ rho @ kk.conj().swapaxes(-1, -2), dq, de)
    out = dict(zip("HT01", states))
    p = np.zeros((de, de), dtype=np.complex128)
    f = np.zeros((de, de), dtype=np.complex128)
    for j, (w, _, _, _) in enumerate(kraus):
        p += w * states[4 + 2 * j]
        f += w * states[5 + 2 * j]
    out["P"], out["F"] = p, f
    return out


@dataclass(frozen=True)
class PartialTrustCheck:
    least_eigenvalue: float  # of the Hermitian part of the difference
    holds: bool


def partial_trust_checks(behavior: PartiallyTrustedBehavior) -> tuple:
    """The four one-round operator bounds of a partially trusted device,
    on its :func:`conditional_environment_states` with rho = H + T:
    (h/2) rho + v "0" <= P <= (1 - h/2) rho - v "1", and the same for F
    with "0" and "1" exchanged.  A bound holds when the least eigenvalue
    of its gap's Hermitian part is at least -INEQUALITY_SLACK."""
    v, h = behavior.v, behavior.h
    cs = conditional_environment_states(behavior)
    rho = cs["H"] + cs["T"]
    diffs = (
        cs["P"] - (h / 2) * rho - v * cs["0"],
        (1 - h / 2) * rho - v * cs["1"] - cs["P"],
        cs["F"] - (h / 2) * rho - v * cs["1"],
        (1 - h / 2) * rho - v * cs["0"] - cs["F"],
    )
    least = [float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]) for m in diffs]
    return tuple(PartialTrustCheck(x, x >= -INEQUALITY_SLACK) for x in least)


def verify_suite(suite: str, rng: np.random.Generator, instances: int) -> list:
    """The checks of ``instances`` random instances of one of
    VERIFY_SUITES, as ``direx verify`` draws them, in draw order: per
    instance three :func:`uncertainty_check` or :func:`schatten_ineq_check`
    results, one :func:`exact_small_run` (multishot) or four
    :func:`partial_trust_checks`.  Each has a ``holds`` verdict."""
    if suite not in VERIFY_SUITES:
        raise ValueError(f"unknown verify suite {suite!r}")
    out = []
    for _ in range(instances):
        if suite == "uncertainty":
            dw, dv = int(rng.integers(1, 5)), int(rng.integers(1, 9))
            z = rng.normal(size=(2 * dw, dv)) + 1j * rng.normal(size=(2 * dw, dv))
            inst = measurement_split(z / np.linalg.norm(z))
            out += [uncertainty_check(inst, eps) for eps in (0.1, 0.5, 1.0)]
        elif suite == "schatten":
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            out += [schatten_ineq_check(a, b, p) for p in (2.0, 2.5, 4.0)]
        else:
            v = float(rng.uniform(0.1, 1.0))
            h = float(rng.uniform(0.0, 1.0 - v))
            env_dim = 2 if suite == "multishot" else int(rng.integers(1, 5))
            beh = random_partially_trusted(rng, v, h, env_dim=env_dim)
            if suite == "partial-trust":
                out += partial_trust_checks(beh)
                continue
            q = float(rng.uniform(0.05, 0.5))
            kappa = float(rng.uniform(0.2, 2.0))
            r = float(rng.uniform(0.05, 1.0)) / (q * kappa)
            out.append(exact_small_run(int(rng.integers(1, 4)), beh, q, kappa, r))
    return out
