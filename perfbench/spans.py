"""Spans and counters recorded at direx layer boundaries, from outside.

The benchmark never edits the program: a traced unit replaces public
functions and methods of the ``direx`` modules with timing wrappers for the
life of one child process.  Every wrapped call updates per-boundary
aggregates (calls, busy time, self time).  Calls at coarse boundaries are
also kept as span records (id, parent, name, start, end, operation id).
Hot boundaries (one call per seed bit, symbol or device response) are only
aggregated, because storing a record per call would cost more memory and
time than the work it measures.

A span's self time is its duration minus the time covered by its child
spans, so self times of nested boundaries add up to the traced wall time.
Calibration slices that run while spans are open are excluded from their
durations.
"""

from __future__ import annotations

import math
import time

_clock = time.perf_counter


class Tracer:
    """In-memory span store with a stack of open calls."""

    def __init__(self):
        self.origin = _clock()
        # frame: [child time, span id, excluded time]; the root frame
        # collects top-level time
        self._stack = [[0.0, -1, 0.0]]
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.spans: list = []
        self.op = -1
        self._next_id = 0
        self.laws: dict = {}  # id(sampler) -> [sampler, law entropy, symbols, bits]

    def begin_op(self, op_id: int):
        """Tag the spans that follow with one operation id."""
        self.op = op_id

    def exclude(self, seconds: float):
        """Remove time spent outside the program, such as a calibration
        slice, from every open span."""
        for frame in self._stack:
            frame[2] += seconds

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, fn, name: str, keep: bool = True, after=None):
        """Return fn wrapped so each call becomes a span named ``name``.

        keep=False aggregates the call without storing a span record.
        after(result, args) runs outside the timed interval, for counts.
        """
        stack = self._stack
        st = self.stat(name)
        spans = self.spans

        if not keep:
            def hot(*args, **kwargs):
                frame = [0.0, stack[-1][1], 0.0]
                stack.append(frame)
                t0 = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = _clock() - t0 - frame[2]
                    stack.pop()
                    stack[-1][0] += d
                    st[0] += 1
                    st[1] += d
                    st[2] += d - frame[0]
            return hot

        def kept(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1]
            frame = [0.0, span_id, 0.0]
            stack.append(frame)
            t0 = _clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _clock()
                d = t1 - t0 - frame[2]
                stack.pop()
                stack[-1][0] += d
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                spans.append((span_id, parent, name, t0 - self.origin,
                              t1 - self.origin, self.op))
                if after is not None and result is not None:
                    after(result, args)
        return kept

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def busy(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def span_records(self) -> list:
        keys = ("id", "parent", "name", "start_s", "end_s", "op")
        return [dict(zip(keys, s)) for s in self.spans]


def _law_entropy(weights) -> float:
    total = float(sum(weights))
    h = 0.0
    for w in weights:
        p = float(w) / total
        if p > 0:
            h -= p * math.log2(p)
    return h


def instrument(tracer: Tracer):
    """Install wrappers on every measured boundary; return an undo function.

    Names are patched where the caller looks them up: a module that did
    ``from .rates import certified_bound`` keeps its own reference, so that
    reference is replaced too.
    """
    from direx import (entropy, matrixcore, postprocess, protocols, qkd,
                       rates, recon, seeding, xorgames)

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_fn(modules, attr, name, keep=True, after=None):
        original = getattr(modules[0], attr)
        wrapped = tracer.wrap(original, name, keep=keep, after=after)
        for m in modules:
            if getattr(m, attr) is not original:
                raise RuntimeError(f"{m.__name__}.{attr} is not {name}")
            patch(m, attr, wrapped)

    # seeding: every bit the protocol streams hand out
    bits_drawn = tracer.stat("seeding.bits_drawn")
    orig_take = seeding.BitStream.take

    def take(self, k):
        bits_drawn[0] += k
        return orig_take(self, k)
    patch(seeding.BitStream, "take",
          tracer.wrap(take, "seeding.take", keep=False))

    # protocols: the exact decoder, per sampler law
    sampler_cls = protocols.CategoricalSampler
    orig_init = sampler_cls.__init__
    laws = tracer.laws

    def init(self, weights, *args, **kwargs):
        weights = list(weights)
        orig_init(self, weights, *args, **kwargs)
        laws[id(self)] = [self, _law_entropy(weights), 0, 0]
    patch(sampler_cls, "__init__", init)

    orig_sample = sampler_cls.sample

    def sample(self):
        before = self.consumed
        out = orig_sample(self)
        law = laws[id(self)]
        law[2] += 1
        law[3] += self.consumed - before
        return out
    patch(sampler_cls, "sample",
          tracer.wrap(sample, "protocols.decoder", keep=False))

    # devices: each response of the responder the round loops build
    orig_make = protocols.make_responder

    def make_responder(behavior):
        return tracer.wrap(orig_make(behavior), "devices.respond", keep=False)
    patch(protocols, "make_responder", make_responder)
    patch(qkd, "make_responder", make_responder)

    def rounds_counter(name):
        counter = tracer.stat(name)

        def count(outcome, _args):
            counter[0] += len(outcome.transcript.rounds)
        return count

    patch_fn([protocols, postprocess], "run_protocol_r", "protocols.loop",
             after=rounds_counter("protocols.loop.rounds"))
    patch_fn([protocols], "monte_carlo", "protocols.monte_carlo")
    patch_fn([protocols, postprocess], "symbols_to_bits",
             "protocols.symbols_to_bits")
    patch_fn([protocols], "exact_small_run", "protocols.exact_small_run")
    patch_fn([protocols], "conditional_environment_states",
             "protocols.conditional_environment_states")

    patch_fn([qkd], "run_rkd", "qkd.loop",
             after=rounds_counter("qkd.loop.rounds"))
    patch_fn([qkd], "key_rate_report", "qkd.key_rate_report")

    # postprocess
    bit_ops = tracer.stat("postprocess.toeplitz.bit_ops")

    def count_bit_ops(out, args):
        bit_ops[0] += len(args[0]) * len(out)
    patch_fn([postprocess], "toeplitz_extract", "postprocess.toeplitz",
             after=count_bit_ops)
    patch_fn([postprocess], "cross_feed", "postprocess.cross_feed")

    # recon
    patch_fn([recon, qkd], "eir_run", "recon.eir_run")
    original_syndrome = recon.syndrome
    wrapped_syndrome = tracer.wrap(original_syndrome, "recon.syndrome")
    patch(recon, "syndrome", wrapped_syndrome)
    patch(qkd, "code_syndrome", wrapped_syndrome)

    # rates
    patch_fn([rates, protocols], "worst_case_rate", "rates.worst_case_rate",
             keep=False)
    patch_fn([rates, postprocess, qkd], "certified_bound",
             "rates.certified_bound")
    patch_fn([rates], "maximize_bound", "rates.maximize_bound")
    patch_fn([rates, postprocess], "tune_parameters", "rates.tune_parameters")

    # xorgames
    samples = tracer.stat("xorgames.trust_coefficient_check.samples")

    def count_samples(res, _args):
        samples[0] += res.samples_used
    patch_fn([xorgames], "optimal_score", "xorgames.optimal_score")
    patch_fn([xorgames], "classify_selftest", "xorgames.classify_selftest")
    patch_fn([xorgames], "trust_coefficient_search",
             "xorgames.trust_coefficient_search")
    patch_fn([xorgames], "trust_coefficient_check",
             "xorgames.trust_coefficient_check", after=count_samples)
    patch_fn([xorgames], "analyze_game", "xorgames.analyze_game")

    # entropy, and matrixcore where entropy imports it
    patch_fn([entropy], "uncertainty_check", "entropy.uncertainty_check")
    patch_fn([entropy], "schatten_ineq_check", "entropy.schatten_ineq_check")
    patch_fn([entropy, protocols], "renyi_divergence",
             "entropy.renyi_divergence")
    patch_fn([entropy], "measurement_split", "entropy.measurement_split")
    patch_fn([entropy], "pseudo_power", "matrixcore.pseudo_power", keep=False)
    patch_fn([matrixcore], "schatten_norm", "matrixcore.schatten_norm",
             keep=False)

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
    return undo
