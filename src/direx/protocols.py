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

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

import numpy as np

from .devices import (
    AdversarialBehavior,
    DeviceState,
    PartiallyTrustedBehavior,
    respond,
)
from .entropy import BlockOperator, renyi_divergence
from .rates import worst_case_rate
from .seeding import BitStream, numpy_rng, substream
from .xorgames import XorGame

SYMBOLS = ("H", "T", "P", "F")
SYMBOL_BITS = {"H": (0, 0), "T": (0, 1), "P": (1, 0), "F": (1, 1)}


def _as_fraction(x) -> Fraction:
    """Exact rational value of a probability; floats and strings go through
    their decimal form, so 0.05 becomes 1/20."""
    return x if isinstance(x, Fraction) else Fraction(str(x))


class CategoricalSampler:
    """Exact sampler over a rational distribution via arithmetic decoding.

    The uniform bit stream is read as the binary expansion of a real in
    [0, 1); symbols are emitted as soon as the known window of that real
    fits inside one slice of the current interval, so consumption tracks
    the entropy rate.  All interval arithmetic is integer-exact; the
    decoder state is reset every ``block`` symbols to keep the integers
    bounded, wasting at most a few bits per block.
    """

    def __init__(self, weights, stream: BitStream, block: int = 4096):
        fracs = [_as_fraction(w) for w in weights]
        if any(w < 0 for w in fracs) or sum(fracs) != 1:
            raise ValueError("weights must be nonnegative rationals summing to 1")
        den = 1
        for w in fracs:
            den = den * w.denominator // gcd(den, w.denominator)
        self._weights = [int(w * den) for w in fracs]
        self._den = int(den)
        self._cum = np.cumsum([0] + self._weights).tolist()
        self._stream = stream
        self._block = block
        self._start_consumed = stream.consumed
        self._reset()

    def _reset(self):
        self._lo, self._hi = 0, 1
        self._wlo, self._whi = 0, 1
        self._emitted_in_block = 0

    @property
    def consumed(self) -> int:
        """Bits this sampler has drawn from its stream so far."""
        return self._stream.consumed - self._start_consumed

    def _consume_bit(self):
        bit = self._stream.take_bit()
        self._lo *= 2
        self._hi *= 2
        mid = self._wlo + self._whi
        if bit == 0:
            self._wlo, self._whi = 2 * self._wlo, mid
        else:
            self._wlo, self._whi = mid, 2 * self._whi

    def sample(self) -> int:
        """Emit the next symbol index, drawing bits only as needed."""
        if self._emitted_in_block >= self._block:
            self._reset()
        den = self._den
        self._lo *= den
        self._hi *= den
        self._wlo *= den
        self._whi *= den
        while True:
            # interval width stays divisible by den, so slice bounds
            # lo + (width/den) * cum[k] are exact integers
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


def biased_bit_sampler(q, stream: BitStream, N: int, block: int = 4096):
    """Draw N exact biased bits (probability q of 1) from a uniform stream.

    Returns (bits, bits_consumed).  Consumption is within a few percent of
    N times the binary entropy of q for large N; q = 1/2 costs exactly one
    bit per output bit.
    """
    qf = _as_fraction(q)
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
        object.__setattr__(self, "q", _as_fraction(self.q))
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


@dataclass
class Transcript:
    """Per-round (g, input, outputs, symbol) records plus seed accounting."""

    rounds: list = field(default_factory=list)
    failures: int = 0
    g_bits_used: int = 0
    input_bits_used: int = 0

    @property
    def seed_bits_used(self) -> int:
        return self.g_bits_used + self.input_bits_used

    @property
    def symbols(self) -> str:
        return "".join(r[3] for r in self.rounds)

    def counts(self) -> dict:
        c = {s: 0 for s in SYMBOLS}
        for r in self.rounds:
            c[r[3]] += 1
        return c

    def check_symbol_consistency(self) -> bool:
        c = self.counts()
        games = sum(1 for r in self.rounds if r[0] == 1)
        gens = len(self.rounds) - games
        return c["P"] + c["F"] == games and c["H"] + c["T"] == gens


@dataclass(frozen=True)
class RunOutcome:
    success: bool
    transcript: Transcript
    threshold: float

    @property
    def aborted(self) -> bool:
        return not self.success


def symbols_to_bits(symbols: str) -> np.ndarray:
    """Fixed 2-bit encoding of the round alphabet (H=00, T=01, P=10, F=11)."""
    out = np.empty(2 * len(symbols), dtype=np.uint8)
    for i, s in enumerate(symbols):
        out[2 * i], out[2 * i + 1] = SYMBOL_BITS[s]
    return out


class _FastResponder:
    """Cumulative-distribution sampling for history-independent behaviors."""

    def __init__(self, behavior):
        self.behavior = behavior
        self.n = behavior.n
        self._cums = {}

    def __call__(self, input_bits, rng):
        cum = self._cums.get(input_bits)
        if cum is None:
            cum = np.cumsum(self.behavior.output_distribution(input_bits))
            self._cums[input_bits] = cum
        idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        idx = min(idx, len(cum) - 1)
        return tuple((idx >> (self.n - 1 - j)) & 1 for j in range(self.n))


def make_responder(behavior):
    if isinstance(behavior, (PartiallyTrustedBehavior, AdversarialBehavior)):
        state = DeviceState(behavior)
        return lambda bits, rng: respond(state, bits, rng)
    return _FastResponder(behavior)


# the single-part protocol as a one-input game: input 1 with certainty, won
# on output 0 (sign +1)
_SINGLE_PART_TABLE = (((1,), Fraction(1), 1),)


def _play_rounds(N: int, q, table, responder, seed_stream: BitStream,
                 device_rng: np.random.Generator,
                 record_rounds: bool = True) -> Transcript:
    """Play N rounds of the round protocol and return their transcript.

    table holds (input bits, probability, sign) triples in XorGame.entries
    form; a game round is won when the output parity is (1 - sign) / 2.
    responder(input_bits, device_rng) returns the device's output bits.
    record_rounds=False keeps only g and the symbol of each round.
    """
    q = _as_fraction(q)
    g_sampler = CategoricalSampler([1 - q, q], seed_stream)
    input_sampler = CategoricalSampler([p for _, p, _ in table], seed_stream)
    inputs = [bits for bits, _, _ in table]
    win_parity = {bits: (1 - sign) // 2 for bits, _, sign in table}
    zero_input = tuple([0] * len(inputs[0]))
    tr = Transcript()
    for _ in range(N):
        before = seed_stream.consumed
        g = g_sampler.sample()
        tr.g_bits_used += seed_stream.consumed - before
        if g == 1:
            before = seed_stream.consumed
            inp = inputs[input_sampler.sample()]
            tr.input_bits_used += seed_stream.consumed - before
            outs = responder(inp, device_rng)
            parity = 0
            for b in outs:
                parity ^= b
            symbol = "P" if parity == win_parity[inp] else "F"
            if symbol == "F":
                tr.failures += 1
        else:
            inp = zero_input
            outs = responder(inp, device_rng)
            symbol = "H" if outs[0] == 0 else "T"
        if record_rounds:
            tr.rounds.append((g, inp, outs, symbol))
        else:
            tr.rounds.append((g, None, None, symbol))
    return tr


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
    state = DeviceState(behavior)
    tr = _play_rounds(config.N, config.q, _SINGLE_PART_TABLE,
                      lambda bits, rng: respond(state, bits, rng),
                      seed_stream, device_rng)
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
    exceeded = False
    if completeness_bound is not None:
        p_smooth = (aborts + 0.5) / (trials + 1)
        sigma = np.sqrt(p_smooth * (1 - p_smooth) / trials)
        exceeded = rate > completeness_bound + 3 * sigma
    return MonteCarloStats(
        trials=trials, aborts=aborts, abort_rate=rate,
        wilson_low=lo, wilson_high=hi, failure_histogram=hist,
        completeness_bound=completeness_bound, bound_exceeded=bool(exceeded),
        records=tuple(records),
    )


def _run_trial(args) -> TrialSummary:
    config, behavior, master, trial = args
    stream = substream(master, "protocol-seed", trial)
    rng = numpy_rng(master, "device", trial)
    out = run_protocol(config, behavior, stream, rng, record_rounds=False)
    tr = out.transcript
    games = sum(1 for r in tr.rounds if r[0] == 1)
    return TrialSummary(trial=trial, success=out.success, failures=tr.failures,
                        games=games, seed_bits=tr.seed_bits_used)


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
