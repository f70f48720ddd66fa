"""Key distribution on top of the round protocol.

One party drives the first device component, the other drives the rest; on
generation rounds the second party records the unique bit that would make
the round a win, so the two bit strings agree exactly on every won round.
After the usual abort test, a one-way reconciliation pass corrects the
second party's string, and the certified key length is the expansion bound
minus the reconciliation leakage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import check_domain
from .protocols import Transcript, _play_rounds, _symbol_string, make_responder
from .rates import RateReport, certified_bound
from .recon import EirResult, LinearCode, eir_run
from .recon import syndrome as code_syndrome
from .seeding import BitStream
from .xorgames import GameConstants, XorGame


@dataclass(frozen=True)
class KdConfig:
    """Arguments of the key distribution protocol.

    lam is the disagreement parameter promised to reconciliation (key error
    fraction 1/2 - lam).  lam_prime must lie strictly between lam and
    w - 1/2, and nothing else reads it: it is kept only because perfbench's
    keydist workload passes it.  The reconciliation failure budget is
    exp(-qN) by convention.
    """

    game: XorGame
    constants: GameConstants
    N: int
    q: float
    eta: float
    lam: float
    lam_prime: float
    code: LinearCode
    kappa: float = 1.0
    epsilon_exp: float = 20.0

    def __post_init__(self):
        check_domain("q", self.q, "q")
        check_domain("eta", self.eta, "eta")
        check_domain("kappa", self.kappa, "kappa")
        check_domain("epsilon_exp", self.epsilon_exp, "epsilon_exp")
        w = self.constants.wG
        if not 0 < self.lam < w - 0.5:
            raise ValueError(f"key parameter must lie in (0, {w - 0.5})")
        if not self.lam < self.lam_prime < w - 0.5:
            raise ValueError("secondary parameter must lie in (lam, w - 1/2)")
        if self.code.length != self.N:
            raise ValueError("reconciliation code length must equal the round count")

    @property
    def eir_epsilon(self) -> float:
        return float(np.exp(-self.q * self.N))

    @property
    def abort_threshold(self) -> float:
        return (1.0 - self.constants.wG + self.eta) * self.q * self.N

    @cached_property
    def rate_report(self) -> RateReport:
        """The expansion bound of a successful run.  It depends on the
        config alone, so every run under one config shares one report,
        computed on first use."""
        return certified_bound(self.constants, self.N, self.q, self.eta,
                               self.kappa, 2.0 ** (-self.epsilon_exp))


@dataclass(frozen=True)
class KdOutcome:
    success: bool
    abort_reason: str
    alice_key: str
    bob_key: str
    leaked_bits: int
    certified_bits: float
    disagreements: int
    wins: int
    seed_bits_used: int
    eir: EirResult | None
    report: RateReport | None
    transcript: Transcript
    public_transcript: dict

    @property
    def keys_match(self) -> bool:
        return self.alice_key == self.bob_key


def run_rkd(config: KdConfig, behavior, seed_stream: BitStream,
            device_rng: np.random.Generator,
            shared_randomness: BitStream | None = None) -> KdOutcome:
    """Execute the key distribution protocol against an n-component device.

    The round engine of protocols plays the game protocol's rounds; both
    parties' bits are then read off the recorded rounds.  The first
    component's outputs belong to the first party; the win-completing bit
    derived from the remaining components' outputs belongs to the second.
    Game rounds are scored publicly and give both parties the same bit (0
    on a pass).  After the abort test, the second party's generation bits
    are corrected through the one-way reconciliation protocol with failure
    budget exp(-qN).
    """
    game = config.game
    if behavior.n != game.n:
        raise ValueError(f"device has {behavior.n} components, game needs {game.n}")
    tr = _play_rounds(config.N, config.q, game.entries, make_responder(behavior),
                      seed_stream, device_rng)
    zero = tuple([0] * game.n)
    zero_parity = game.win_parity(zero) if zero in game.inputs else 0
    # a game round's bit is its public score (1 on a loss) for both parties;
    # on a generation round the first party takes the first output and the
    # second the bit that completes a win with the other outputs
    alice_bits = tr.codes & 1
    rest = np.bitwise_count(tr.outputs & ((1 << (game.n - 1)) - 1)) & 1
    bob_bits = np.where(tr.g == 1, alice_bits, zero_parity ^ rest).astype(np.uint8)
    # game rounds never disagree, so every disagreement is a generation round
    disagreements = int(np.count_nonzero(alice_bits != bob_bits))
    # everything the eavesdropper saw on the public channel, verbatim
    games = np.flatnonzero(tr.g)
    public = {"game_round_outputs": [
        (i, format(o, f"0{game.n}b"))
        for i, o in zip(games.tolist(), tr.outputs[games].tolist())]}
    outcome = partial(KdOutcome, disagreements=disagreements,
                      wins=config.N - tr.failures - disagreements,
                      seed_bits_used=tr.seed_bits_used, transcript=tr,
                      public_transcript=public)
    aborted = partial(outcome, success=False, alice_key="", bob_key="",
                      certified_bits=0.0, report=None)
    if tr.failures > config.abort_threshold:
        return aborted(abort_reason="failure threshold", leaked_bits=0, eir=None)
    code = config.code
    if code.regime == "unique" and code.promise_radius(config.lam) > code.unique_radius:
        # a code that cannot correct the promised (1/2 - lam) N disagreements
        # is never run, so the protocol aborts before anything leaks
        return aborted(abort_reason="reconciliation", leaked_bits=0, eir=None)
    eir = eir_run(alice_bits, bob_bits, code, config.lam,
                  config.eir_epsilon, shared=shared_randomness)
    public["syndrome"] = "".join(map(str, code_syndrome(code, alice_bits)))
    if eir.hash_value >= 0:
        public["hash_value"] = eir.hash_value
    if eir.aborted:
        return aborted(abort_reason="reconciliation",
                       leaked_bits=eir.leaked_bits, eir=eir)
    # the expansion bound needs the tolerance inside the certification
    # domain; the protocol itself runs for any eta in (0, 1/2)
    report, certified = None, 0.0
    if 0 < config.eta < config.constants.vG_lower / 2:
        report = config.rate_report
        certified = max(report.bound - eir.leaked_bits, 0.0)

    def key(bits):  # game rounds keep their public symbol
        return _symbol_string(np.where(tr.g == 1, tr.codes, bits))
    return outcome(success=True, abort_reason="", alice_key=key(alice_bits),
                   bob_key=key(eir.estimate), leaked_bits=eir.leaked_bits,
                   certified_bits=float(certified), eir=eir, report=report)


def key_rate_report(outcome: KdOutcome) -> dict:
    """Certified extractable bits after subtracting reconciliation leakage,
    with the seed/randomness accounting alongside."""
    if not outcome.success:
        raise ValueError("key rate is only defined for successful runs")
    report = outcome.report
    if report is None:
        raise ValueError("key rate needs a rate report, and a run whose "
                         "tolerance lies outside (0, v_G/2) has none")
    certified = max(report.bound - outcome.leaked_bits, 0.0)
    return {
        "expansion_bound": report.bound,
        "leaked_bits": outcome.leaked_bits,
        "certified_bits": float(certified),
        "leakage_exceeds_bound": bool(report.bound <= outcome.leaked_bits),
        "seed_bits_used": outcome.seed_bits_used,
        "eir_randomness": outcome.eir.randomness_used if outcome.eir else 0,
        "measured_code_rate": outcome.eir.measured_rate if outcome.eir else None,
    }

