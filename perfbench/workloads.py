"""The four benchmark workloads, built from a workload seed.

Each workload has a set-up step (inputs built, lazy tables filled) and a
fixed unit of work made of segments.  The meter runs a calibration slice
between segments, times each segment, and times the sessions inside it.
Every operation is checked by ``checks``; a failed check is collected, not
raised, so one bad output still leaves a complete report.

Workload inputs depend only on the workload name and seed.  Every child
process of one run repeats the same unit, so counts and digests must agree
between children.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from fractions import Fraction

import numpy as np

import checks

NAMES = ("montecarlo", "expand", "keydist", "certify")

# montecarlo: the criterion-8 configuration, in batches of monte_carlo calls
MC_ROUNDS, MC_Q, MC_ETA, MC_NOISE = 2000, Fraction(1, 4), 0.05, 0.03
MC_BATCHES, MC_TRIALS = 4, 25

# expand: the criterion-11 three-stage composition
XF_STAGES = ((10_000, 64), (11_000, 256), (25_000, 4096))
XF_Q, XF_ETA, XF_KAPPA, XF_EPS_EXP = 0.5, 0.002, 2.6, 20

# keydist: the criterion-12 configuration, one seed index per session
KD_ROUNDS, KD_Q, KD_ETA, KD_KAPPA, KD_EPS_EXP = 10_000, 0.05, 0.001, 2.64, 2.0
KD_SESSIONS, KD_GROUP = 50, 5

# certify: cold analysis of a game given as a record
CF_FLIPS = (1, 1, 0)
CF_N, CF_ETA, CF_EPS = 10**6, 0.01, 2.0**-20
CF_INSTANCES, CF_CYCLE = 201, 3
CF_ACCEPT_ROUNDS, CF_ACCEPT_Q, CF_ACCEPT_ETA = 10_000, Fraction(1, 2), 0.05


def master_seed(workload: str, seed: int, *parts) -> bytes:
    """32-byte direx master seed derived from the workload seed."""
    label = "/".join(["perfbench", workload, str(seed), *map(str, parts)])
    return hashlib.sha256(label.encode()).digest()


def digest(obj) -> str:
    if isinstance(obj, np.ndarray):
        data = np.packbits(obj.astype(np.uint8)).tobytes()
    else:
        data = json.dumps(obj, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


class Result:
    """What one unit did: operations, failures, exact counts, digests."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.seed_bits = 0
        self.rounds = 0
        self.counts: dict = {}
        self.digests: dict = {}

    def op(self, check, *args, **kwargs):
        """Count one operation; a raise or a failed check is a failure."""
        self.attempted += 1
        try:
            bad = check(*args, **kwargs)
        except Exception:  # noqa: BLE001 - reported, not propagated
            bad = [traceback.format_exc(limit=3)]
        if bad:
            self.failures.append(bad)


def _after_calls(owner, attr, after):
    """Call after(start, end) once each call of owner.attr returns, outside
    its timing; returns an undo."""
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            after(t0, time.perf_counter())
    setattr(owner, attr, timed)
    return lambda: setattr(owner, attr, original)


def _fill_distributions(behavior, inputs):
    for bits in inputs:
        behavior.output_distribution(bits)


class MonteCarlo:
    """Noisy-GHZ completeness runs: the round engine's hot path."""

    ACCOUNTED = ("protocols.decoder", "seeding.", "devices.", "protocols.loop")

    def __init__(self, seed: int):
        from direx import devices, protocols, xorgames

        game = xorgames.ghz_game()
        self.config = protocols.ProtocolConfig(
            mode="R", N=MC_ROUNDS, q=MC_Q, eta=MC_ETA, game=game, w_G=1.0)
        self.behavior = devices.NoisyHonestBehavior(
            base=devices.ghz_honest_device(), p=MC_NOISE)
        self.bound = protocols.completeness_error_bound(
            MC_ETA, MC_NOISE / 2, float(MC_Q), MC_ROUNDS)
        self.masters = [master_seed("montecarlo", seed, b)
                        for b in range(MC_BATCHES)]
        _fill_distributions(self.behavior, game.inputs)

    def run(self, meter, tracer=None) -> Result:
        from direx import protocols

        res = Result()
        hist: dict = {}
        aborts = 0
        # calibrate between trials, inside each monte_carlo call
        undo = _after_calls(protocols, "run_protocol",
                            lambda *_: meter.checkpoint())
        try:
            for b, master in enumerate(self.masters):
                if tracer:
                    tracer.begin_op(b)
                stats = meter.segment(
                    protocols.monte_carlo, self.config, self.behavior,
                    MC_TRIALS, master, completeness_bound=self.bound)
                meter.session(*meter.segments[-1])
                res.op(checks.check_monte_carlo, stats, trials=MC_TRIALS,
                       rounds=MC_ROUNDS, threshold=self.config.abort_threshold,
                       bound=self.bound)
                res.seed_bits += sum(r.seed_bits for r in stats.records)
                res.rounds += MC_ROUNDS * len(stats.records)
                aborts += stats.aborts
                for k, v in stats.failure_histogram.items():
                    hist[k] = hist.get(k, 0) + v
        finally:
            undo()
        res.counts["protocols.monte_carlo.aborts"] = aborts
        res.digests["failure_histogram"] = digest(sorted(hist.items()))
        return res


class Expand:
    """Three-stage two-device composition with Toeplitz extraction."""

    ACCOUNTED = ("protocols.decoder", "seeding.", "devices.", "protocols.loop",
                 "protocols.symbols_to_bits", "postprocess.", "rates.")

    def __init__(self, seed: int):
        from direx import devices, postprocess, xorgames

        self.game = xorgames.ghz_game()
        self.constants = xorgames.ghz_constants()
        self.devices = (devices.ghz_honest_device(),
                        devices.ghz_honest_device())
        self.stages = [postprocess.CrossFeedStage(
            N=n, q=XF_Q, eta=XF_ETA, kappa=XF_KAPPA, epsilon_exp=XF_EPS_EXP,
            m_out=m) for n, m in XF_STAGES]
        self.master = master_seed("expand", seed)
        for dev in self.devices:
            _fill_distributions(dev, self.game.inputs)

    def run(self, meter, tracer=None) -> Result:
        from direx import postprocess

        res = Result()
        # calibrate between stages, inside the cross_feed call
        undo = _after_calls(postprocess, "run_protocol_r",
                            lambda *_: meter.checkpoint())
        try:
            if tracer:
                tracer.begin_op(0)
            out = meter.segment(postprocess.cross_feed, self.game,
                                self.constants, *self.devices, self.stages,
                                self.master)
            meter.session(*meter.segments[-1])
        finally:
            undo()
        res.op(checks.check_cross_feed, out, self.stages)
        res.seed_bits = sum(s.seed_bits_used for s in out.stages)
        res.rounds = sum(st.N for st in self.stages)
        res.counts["postprocess.seed_topped_up_bits"] = sum(
            s.seed_topped_up for s in out.stages)
        res.counts["postprocess.seed_from_previous_bits"] = sum(
            s.seed_from_previous for s in out.stages)
        res.digests["final_bits"] = digest(out.final_bits)
        res.digests["rate_bounds"] = digest(
            [repr(s.report.bound) for s in out.stages])
        return res


class KeyDist:
    """RKD sessions with one-way reconciliation over a Hamming code."""

    ACCOUNTED = ("protocols.decoder", "seeding.", "devices.", "qkd.", "recon.",
                 "rates.")

    def __init__(self, seed: int):
        from direx import devices, qkd, recon, xorgames

        self.code = recon.hamming_code(KD_ROUNDS)
        t0 = time.perf_counter()
        recon.unique_decode(self.code, np.zeros(self.code.n_checks, np.uint8))
        self.table_fill_s = time.perf_counter() - t0
        lam = self.code.supported_lambda() - 1e-9
        self.config = qkd.KdConfig(
            game=xorgames.ghz_game(), constants=xorgames.ghz_constants(),
            N=KD_ROUNDS, q=KD_Q, eta=KD_ETA, lam=lam, lam_prime=0.49999,
            code=self.code, kappa=KD_KAPPA, epsilon_exp=KD_EPS_EXP)
        self.behavior = devices.ghz_honest_device()
        self.master = master_seed("keydist", seed)
        _fill_distributions(self.behavior, self.config.game.inputs)

    def session(self, i: int):
        from direx import qkd, seeding

        m = self.master
        out = qkd.run_rkd(self.config, self.behavior,
                          seeding.substream(m, "kd-seed", i),
                          seeding.numpy_rng(m, "kd-device", i),
                          shared_randomness=seeding.substream(m, "kd-shared", i))
        rate = qkd.key_rate_report(out) if out.success else None
        return out, rate

    def run(self, meter, tracer=None) -> Result:
        res = Result()
        keys, bounds = [], []

        # sessions run in timed groups and are checked between groups, so
        # the checks stay out of the timed work and few outcomes are held
        def group(first):
            outs = []
            for i in range(first, min(first + KD_GROUP, KD_SESSIONS)):
                if tracer:
                    tracer.begin_op(i)
                t0 = time.perf_counter()
                outs.append(self.session(i))
                meter.session(t0, time.perf_counter())
            return outs

        for first in range(0, KD_SESSIONS, KD_GROUP):
            for out, rate in meter.segment(group, first):
                res.op(checks.check_kd_session, out, rate,
                       n_rounds=KD_ROUNDS, n_checks=self.code.n_checks)
                res.seed_bits += out.seed_bits_used
                res.rounds += len(out.transcript.rounds)
                keys.append(out.alice_key)
                if out.report is not None:
                    bounds.append(repr(out.report.bound))
        res.digests["keys"] = digest(keys)
        res.digests["rate_bounds"] = digest(bounds)
        return res


class Certify:
    """Cold certification of a game record: analysis, rate search, the
    four-suite inequality sweep, then an honest run of the certified game."""

    ACCOUNTED = ("xorgames.", "rates.", "entropy.", "matrixcore.")

    def __init__(self, seed: int):
        from direx import devices, seeding, xorgames

        self.record = json.dumps(xorgames.game_to_record(
            xorgames.ghz_game().relabel(CF_FLIPS)))
        self.rngs = {suite: seeding.numpy_rng(master_seed("certify", seed),
                                              f"verify-{suite}")
                     for suite in checks.SWEEP_SLACK}
        self.master = master_seed("certify", seed, "acceptance")
        # the honest GHZ device with the observables of flipped players
        # swapped wins the relabeled game with certainty
        x, y = devices.PAULI_X, devices.PAULI_Y
        ghz = devices.ghz_honest_device()
        self.device = devices.HonestBehavior(
            n=3, state=ghz.state,
            observables=tuple((y, x) if f else (x, y) for f in CF_FLIPS))

    def run(self, meter, tracer=None) -> Result:
        from direx import protocols, rates, seeding, xorgames

        res = Result()
        if tracer:
            tracer.begin_op(0)
        # the score grid and the trust search run for seconds each, so
        # calibrate between their inner calls; the grid's chunk function is
        # private and is only hooked while it exists
        undos = [_after_calls(xorgames, name, lambda *_: meter.checkpoint())
                 for name in ("_abs_pg_on_angles", "trust_coefficient_check")
                 if hasattr(xorgames, name)]
        try:
            game, constants = meter.segment(self._analyze)
        finally:
            for undo in undos:
                undo()
        report = meter.segment(rates.maximize_bound, constants, CF_N, CF_ETA,
                               CF_EPS)
        sweep = meter.segment(self._sweep, meter)
        config = protocols.ProtocolConfig(
            mode="R", N=CF_ACCEPT_ROUNDS, q=CF_ACCEPT_Q, eta=CF_ACCEPT_ETA,
            game=game, w_G=constants.wG)
        accept = meter.segment(
            protocols.run_protocol_r, config, self.device,
            seeding.substream(self.master, "protocol-seed"),
            seeding.numpy_rng(self.master, "device"), record_rounds=False)
        res.op(checks.check_certification, game, constants, report, sweep,
               acceptance=accept)
        res.seed_bits = accept.transcript.seed_bits_used
        res.rounds = len(accept.transcript.rounds)
        res.digests["rate_bounds"] = digest([repr(report.bound)])
        res.digests["constants"] = digest(
            [repr(constants.qG), repr(constants.vG_lower),
             constants.classification])
        return res

    def _analyze(self):
        from direx import xorgames

        game = xorgames.game_from_record(json.loads(self.record))
        return game, xorgames.analyze_game(game)

    def _sweep(self, meter) -> list:
        """The four suites of ``direx verify``, judged later from each
        instance's lhs/rhs rather than its own verdict.  Each suite draws
        from its own stream.

        Unlike ``direx verify``, the sizes that set an instance's cost
        (dimensions, round count) cycle with the instance index instead of
        being drawn, so every seed sweeps the same mix of sizes.  One
        session is CF_CYCLE consecutive instances of every suite, which
        covers each multishot round count once."""
        out = []
        for first in range(0, CF_INSTANCES, CF_CYCLE):
            t0 = time.perf_counter()
            for i in range(first, first + CF_CYCLE):
                for suite, rng in self.rngs.items():
                    out += self._instance(suite, rng, i)
            meter.session(t0, time.perf_counter())
        return out

    @staticmethod
    def _instance(suite: str, rng, i: int) -> list:
        from direx import devices, entropy, protocols

        out = []
        if suite == "uncertainty":
            dw, dv = 1 + i % 4, 1 + (i // 4) % 8
            z = rng.normal(size=(2 * dw, dv)) + 1j * rng.normal(size=(2 * dw, dv))
            inst = entropy.measurement_split(z / np.linalg.norm(z))
            for eps in (0.1, 0.5, 1.0):
                r = entropy.uncertainty_check(inst, eps)
                out.append((suite, r.lhs_ratio, r.rhs))
        elif suite == "schatten":
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for p in (2.0, 2.5, 4.0):
                r = entropy.schatten_ineq_check(a, b, p)
                out.append((suite, r.lhs, r.rhs))
        elif suite == "multishot":
            v = float(rng.uniform(0.1, 1.0))
            h = float(rng.uniform(0.0, 1.0 - v))
            beh = devices.random_partially_trusted(rng, v, h, env_dim=2)
            q = float(rng.uniform(0.05, 0.5))
            kappa = float(rng.uniform(0.2, 2.0))
            r_mult = float(rng.uniform(0.05, 1.0)) / (q * kappa)
            n_rounds = 1 + i % CF_CYCLE
            r = protocols.exact_small_run(n_rounds, beh, q, kappa, r_mult)
            out.append((suite, r.lhs, r.rhs))
        else:
            v = float(rng.uniform(0.1, 1.0))
            h = float(rng.uniform(0.0, 1.0 - v))
            beh = devices.random_partially_trusted(rng, v, h, env_dim=1 + i % 4)
            cs = protocols.conditional_environment_states(beh)
            rho = cs["H"] + cs["T"]
            for m in (cs["P"] - (h / 2) * rho - v * cs["0"],
                      (1 - h / 2) * rho - v * cs["1"] - cs["P"],
                      cs["F"] - (h / 2) * rho - v * cs["1"],
                      (1 - h / 2) * rho - v * cs["0"] - cs["F"]):
                lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
                out.append((suite, -lo, 0.0))
        return out


WORKLOADS = {"montecarlo": MonteCarlo, "expand": Expand, "keydist": KeyDist,
             "certify": Certify}
