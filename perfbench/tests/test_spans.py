"""Tracer bookkeeping and the exactness of the traced counts."""

from fractions import Fraction

import spans
import workloads
from direx import protocols, seeding, xorgames
from direx.devices import ghz_honest_device


def test_self_times_add_up():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(20_000))

    leaf_w = tracer.wrap(leaf, "leaf", keep=False)

    def outer():
        return leaf_w() + leaf_w()

    outer_w = tracer.wrap(outer, "outer")
    outer_w()
    assert tracer.calls("leaf") == 2 and tracer.calls("outer") == 1
    total = tracer.busy("outer")
    assert abs(tracer.self_time("outer") + tracer.busy("leaf") - total) < 1e-9
    (span,) = tracer.span_records()
    assert span["name"] == "outer" and span["parent"] == -1


def _traced_run(seed: int) -> dict:
    tracer = spans.Tracer()
    undo = spans.instrument(tracer)
    try:
        cfg = protocols.ProtocolConfig(mode="R", N=300, q=Fraction(1, 4),
                                       eta=0.05, game=xorgames.ghz_game(),
                                       w_G=1.0)
        m = workloads.master_seed("t", seed)
        out = protocols.run_protocol_r(cfg, ghz_honest_device(),
                                       seeding.substream(m, "s"),
                                       seeding.numpy_rng(m, "d"))
    finally:
        undo()
    counts = {n: st[0] for n, st in tracer.stats.items()}
    counts["decoder_bits"] = sum(law[3] for law in tracer.laws.values())
    assert counts["decoder_bits"] == out.transcript.seed_bits_used
    assert counts["protocols.loop.rounds"] == 300
    return counts


def test_counts_repeat_exactly():
    assert _traced_run(5) == _traced_run(5)


def test_instrument_undo_restores_originals():
    before = (protocols.run_protocol_r, seeding.BitStream.take,
              protocols.CategoricalSampler.sample)
    spans.instrument(spans.Tracer())()
    after = (protocols.run_protocol_r, seeding.BitStream.take,
             protocols.CategoricalSampler.sample)
    assert before == after
