"""Simulated untrusted devices.

Four behavior variants: honest quantum strategies (shared state plus one
binary observable per component and input), noisy honest wrappers, a
partially trusted single-part device whose input-1 measurement is a mixture
of a trusted anticommuting measurement, an arbitrary one, and a fair coin,
and scripted adversaries with classical transcript memory.

Honest and noisy devices re-prepare their shared state every round and
answer from their per-input output distributions; adversaries carry
classical memory, which protocols.make_responder keeps per run.  The
partially trusted device is executed exactly, as density operators, by
protocols.exact_small_run.  Behaviors are immutable and shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import check_domain
from .matrixcore import pseudo_power, schatten_norm

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
INVOLUTION_TOL = 1e-9


def _check_involution(m, name):
    m = np.asarray(m, dtype=np.complex128)
    if abs(m - m.conj().T).max() > INVOLUTION_TOL:
        raise ValueError(f"{name} must be Hermitian")
    # m @ m - I, with 1 taken off the diagonal in place of building I
    square = m @ m
    square.reshape(-1)[::len(square) + 1] -= 1.0
    if abs(square).max() > INVOLUTION_TOL:
        raise ValueError(f"{name} must square to the identity")
    return m


class _Memoised:
    """Base of the behaviors whose distributions _memoised keeps on the
    instance.  The memo stays out of pickles, which is how
    protocols.monte_carlo hands a behavior to its workers: an unpickled
    behavior computes its own read-only entries rather than holding
    writable copies."""

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_dist_cache", None)
        return state


@dataclass(frozen=True)
class HonestBehavior(_Memoised):
    """Shared pure state plus one +-1 observable per component and input."""

    n: int
    state: np.ndarray = field(repr=False)  # 2**n vector
    observables: tuple = field(repr=False)  # per component: (M_input0, M_input1)

    def __post_init__(self):
        psi = np.asarray(self.state, dtype=np.complex128).ravel()
        if psi.shape != (2**self.n,):
            raise ValueError(f"state must live on {self.n} qubits")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            raise ValueError("state must be normalized")
        if len(self.observables) != self.n:
            raise ValueError("need one observable pair per component")
        obs = []
        for j, pair in enumerate(self.observables):
            obs.append(tuple(
                _check_involution(m, f"component {j} observable") for m in pair))
        object.__setattr__(self, "state", psi)
        object.__setattr__(self, "observables", tuple(obs))

    def output_distribution(self, input_bits) -> np.ndarray:
        """Joint Born-rule distribution over the 2**n output strings."""
        return _memoised(self, tuple(input_bits), _honest_distribution)


def _memoised(behavior, input_bits, compute) -> np.ndarray:
    """compute(behavior, input_bits), once per behavior instance and input:
    the cache lives on the instance, so its lifetime matches the behavior,
    and every entry is read-only, since every caller shares it."""
    cache = getattr(behavior, "_dist_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(behavior, "_dist_cache", cache)
    probs = cache.get(input_bits)
    if probs is None:
        probs = compute(behavior, input_bits)
        probs.flags.writeable = False
        cache[input_bits] = probs
    return probs


def _honest_distribution(behavior: HonestBehavior, input_bits) -> np.ndarray:
    n = behavior.n
    psi = behavior.state
    probs = np.empty(2**n)
    for out in range(2**n):
        proj = np.array([[1.0]], dtype=np.complex128)
        for j in range(n):
            m = behavior.observables[j][input_bits[j]]
            sign = 1.0 if (out >> (n - 1 - j)) & 1 == 0 else -1.0
            proj = np.kron(proj, 0.5 * (np.eye(2) + sign * m))
        probs[out] = max((psi.conj() @ proj @ psi).real, 0.0)
    return probs / probs.sum()


@dataclass(frozen=True)
class NoisyHonestBehavior(_Memoised):
    """Honest play corrupted per round with probability p.

    mode "uniform" replaces the output string by fresh uniform bits; mode
    "fixed" plays a fixed deterministic response table instead (a suboptimal
    strategy mixed in with constant probability).
    """

    base: HonestBehavior
    p: float
    mode: str = "uniform"
    fixed_outputs: tuple = ()

    def __post_init__(self):
        check_domain("p", self.p, "probability")
        if self.mode not in ("uniform", "fixed"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        d = 2**self.base.n
        if self.mode == "fixed" and len(self.fixed_outputs) != d:
            raise ValueError("fixed mode needs one output string per input string")
        for out in self.fixed_outputs:
            if not (isinstance(out, Integral) and not isinstance(out, bool)
                    and 0 <= out < d):
                raise ValueError(f"fixed_outputs entries must be integers in "
                                 f"[0, {d}), not {out!r}")

    @property
    def n(self) -> int:
        return self.base.n

    def output_distribution(self, input_bits) -> np.ndarray:
        """The honest distribution mixed with the noise's, memoised like
        the honest one."""
        return _memoised(self, tuple(input_bits), _noisy_distribution)


def _noisy_distribution(behavior: NoisyHonestBehavior, input_bits) -> np.ndarray:
    honest = behavior.base.output_distribution(input_bits)
    if behavior.mode == "uniform":
        noise = np.full_like(honest, 1.0 / len(honest))
    else:
        idx = int("".join(map(str, input_bits)), 2)
        noise = np.zeros_like(honest)
        noise[behavior.fixed_outputs[idx]] = 1.0
    return (1.0 - behavior.p) * honest + behavior.p * noise


@dataclass(frozen=True)
class PartiallyTrustedBehavior:
    """Single-part device: trusted measurement on input 0; on input 1 a
    (v, 1-v-h, h) mixture of the anticommuting partner, an arbitrary
    bounded observable, and a fair coin.

    The quantum state lives on (device x environment); measurements act on
    the device factor only, so the environment purifies the device for the
    exact executor.
    """

    v: float
    h: float
    trusted_pair: tuple = field(repr=False)  # (T0, T1) on the device factor
    dishonest: np.ndarray = field(repr=False)
    state: np.ndarray = field(repr=False)  # vector on device x environment
    env_dim: int = 1

    def __post_init__(self):
        if not (0 <= self.v <= 1 and 0 <= self.h <= 1 and self.v + self.h <= 1 + 1e-12):
            raise ValueError("mixture weights must satisfy v, h >= 0 and v + h <= 1")
        t0 = _check_involution(self.trusted_pair[0], "trusted input-0 measurement")
        t1 = _check_involution(self.trusted_pair[1], "trusted input-1 measurement")
        if abs(t0 @ t1 + t1 @ t0).max() > 1e-9:
            raise ValueError("trusted pair must anticommute")
        nop = np.asarray(self.dishonest, dtype=np.complex128)
        if abs(nop - nop.conj().T).max() > 1e-9:
            raise ValueError("dishonest observable must be Hermitian")
        if schatten_norm(nop, np.inf) > 1.0 + 1e-9:
            raise ValueError("dishonest observable must have norm at most 1")
        psi = np.asarray(self.state, dtype=np.complex128).ravel()
        if psi.shape != (t0.shape[0] * self.env_dim,):
            raise ValueError("state dimension must equal device dim x env dim")
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            raise ValueError("state must be normalized")
        object.__setattr__(self, "trusted_pair", (t0, t1))
        object.__setattr__(self, "dishonest", nop)
        object.__setattr__(self, "state", psi)

    @property
    def n(self) -> int:
        return 1

    @property
    def device_dim(self) -> int:
        return self.trusted_pair[0].shape[0]

    def kraus_for(self, input_bit: int):
        """(weight, K_out0, K_out1, kind) branches on the device factor.

        The coin branch carries identity-proportional Kraus operators
        (each outcome keeps the state and takes half the weight).  The
        dishonest branch's two square roots come from one stacked
        ``pseudo_power`` call, each with the bits of a lone call.
        """
        eye = np.eye(self.device_dim)
        t0, t1 = self.trusted_pair
        if input_bit == 0:
            return [(1.0, 0.5 * (eye + t0), 0.5 * (eye - t0), "trusted")]
        branches = []
        if self.v > 0:
            branches.append((self.v, 0.5 * (eye + t1), 0.5 * (eye - t1), "trusted"))
        w = 1.0 - self.v - self.h
        if w > 1e-15:
            sp, sm = pseudo_power(np.array((0.5 * (eye + self.dishonest),
                                            0.5 * (eye - self.dishonest))),
                                  0.5, cutoff=0.0)
            branches.append((w, sp, sm, "dishonest"))
        if self.h > 0:
            s = np.sqrt(0.5) * eye
            branches.append((self.h, s, s, "coin"))
        return branches


@dataclass(frozen=True)
class ResponseTable:
    """Adversarial response program given as a lookup table.

    entries maps (round, input bits) to output bits, with round None for
    keys that hold in every round.  A per-round key takes precedence over
    an any-round key; inputs with neither get all-zero outputs.  Unlike a
    closure, a table can be sent to worker processes.
    """

    n: int
    entries: dict

    def __call__(self, transcript, input_bits):
        hit = self.entries.get((len(transcript), input_bits))
        if hit is None:
            hit = self.entries.get((None, input_bits), tuple([0] * self.n))
        return hit


@dataclass(frozen=True)
class AdversarialBehavior:
    """Deterministic response program over classical transcripts.

    program(transcript, input_bits) -> output bits, where transcript is a
    sequence of (input_bits, output_bits) pairs from earlier rounds.
    """

    n: int
    program: object


def ghz_honest_device() -> HonestBehavior:
    """Three components sharing (|000> + |111>)/sqrt(2), measuring the x
    observable on input 0 and the y observable on input 1; wins the GHZ
    game with certainty."""
    psi = np.zeros(8, dtype=np.complex128)
    psi[0] = psi[7] = 1.0 / np.sqrt(2.0)
    return HonestBehavior(n=3, state=psi,
                          observables=((PAULI_X, PAULI_Y),) * 3)


def chsh_honest_device() -> HonestBehavior:
    """Two components sharing a Bell pair at the optimal CHSH angles."""
    psi = np.zeros(4, dtype=np.complex128)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    bob0 = (PAULI_Z + PAULI_X) / np.sqrt(2.0)
    bob1 = (PAULI_Z - PAULI_X) / np.sqrt(2.0)
    return HonestBehavior(n=2, state=psi,
                          observables=((PAULI_Z, PAULI_X), (bob0, bob1)))


# honest devices by the name of the game they play optimally
HONEST_DEVICES = {"ghz": ghz_honest_device, "chsh": chsh_honest_device}


def random_partially_trusted(rng: np.random.Generator, v: float, h: float,
                             device_half_dim: int = 1,
                             env_dim: int = 2) -> PartiallyTrustedBehavior:
    """A random partially trusted device with a purifying environment.

    The trusted pair is a random unitary conjugation of (x, cos a * y +
    sin a * z) tensored with a random reflection, so the pair perfectly
    anticommutes by construction.
    """
    d = 2 * device_half_dim
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    u, _ = np.linalg.qr(a)
    angle = rng.uniform(0, 2 * np.pi)
    if device_half_dim == 1:
        base0, base1 = PAULI_X, np.cos(angle) * PAULI_Y + np.sin(angle) * PAULI_Z
    else:
        refl_basis = rng.normal(size=(device_half_dim, device_half_dim)) \
            + 1j * rng.normal(size=(device_half_dim, device_half_dim))
        q, _ = np.linalg.qr(refl_basis)
        refl = (q * np.where(rng.random(device_half_dim) < 0.5, 1.0, -1.0)) @ q.conj().T
        base0 = np.kron(PAULI_X, np.eye(device_half_dim))
        base1 = np.kron(np.cos(angle) * PAULI_Y + np.sin(angle) * PAULI_Z, refl)
    t0 = u @ base0 @ u.conj().T
    t1 = u @ base1 @ u.conj().T
    nop = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    nop = 0.5 * (nop + nop.conj().T)
    nop = nop / (schatten_norm(nop, np.inf) * rng.uniform(1.0, 2.0))
    psi = rng.normal(size=d * env_dim) + 1j * rng.normal(size=d * env_dim)
    psi = psi / np.linalg.norm(psi)
    return PartiallyTrustedBehavior(v=v, h=h, trusted_pair=(t0, t1),
                                    dishonest=nop, state=psi, env_dim=env_dim)


# ---------------------------------------------------------------------------
# Behavior specs (config-file loading)


def behavior_from_record(rec: dict):
    """Instantiate a behavior from a config record ({"variant": ..., ...}).

    A malformed record raises ValueError naming the variant or the field.
    """
    if not isinstance(rec, dict):
        raise ValueError("a device record must be a JSON object")
    variant = rec.get("variant")

    def need(name):
        if name not in rec:
            raise ValueError(
                f"device variant {variant!r} needs the field {name!r}")
        return rec[name]

    def typed(kind, name):
        value = need(name)
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"device variant {variant!r}: the field {name!r} must be "
                f"{'an integer' if kind is int else 'a number'}, "
                f"not {value!r}") from None

    if variant == "honest":
        name = rec.get("device", "ghz")
        if not isinstance(name, str) or name not in HONEST_DEVICES:
            raise ValueError(f"unknown honest device {name!r}")
        return HONEST_DEVICES[name]()
    if variant == "noisy_honest":
        base = behavior_from_record({"variant": "honest",
                                     "device": rec.get("device", "ghz")})
        fixed = rec.get("fixed_outputs", [])
        if not isinstance(fixed, list):
            raise ValueError(f"device variant {variant!r}: the field "
                             "'fixed_outputs' must be a list")
        return NoisyHonestBehavior(base=base, p=typed(float, "p"),
                                   mode=rec.get("mode", "uniform"),
                                   fixed_outputs=tuple(fixed))
    if variant == "adversarial":
        # keys are "i1,i2,..." (any round) or "round@i1,i2,..." (that round
        # of the transcript only); per-round entries take precedence
        n = typed(int, "n")
        entries = need("table")
        if not isinstance(entries, dict):
            raise ValueError("the adversarial table must map inputs to outputs")
        table = {}
        for k, v in entries.items():
            rnd, bits = k.split("@", 1) if "@" in k else (None, k)
            try:
                key = (rnd if rnd is None else int(rnd),
                       tuple(int(b) for b in bits.split(",")))
            except ValueError:
                key = None
            if (key is None or (rnd is not None and key[0] < 0)
                    or len(key[1]) != n or not set(key[1]) <= {0, 1}):
                raise ValueError(
                    f"adversarial table key {k!r} must read 'i1,i2,...' or "
                    f"'round@i1,i2,...' with {n} bits in {{0, 1}} and a round "
                    ">= 0")
            if not (isinstance(v, list) and len(v) == n and all(
                    type(b) is int and b in (0, 1) for b in v)):
                raise ValueError(
                    f"adversarial table entry {k!r} is {v!r}, not {n} bits "
                    "listed as integers 0 or 1")
            table[key] = tuple(v)
        return AdversarialBehavior(n=n, program=ResponseTable(n, table))
    raise ValueError(f"unknown behavior variant {variant!r}")
