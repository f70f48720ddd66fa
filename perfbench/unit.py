"""One unit of one workload, in a fresh interpreter.

``run.py`` starts this script once per measured unit, so the process-wide
caches of direx (score memo, decode tables, GF(2^m) fields) start cold in
every unit.  It prints one JSON line: set-up and unit times, session
latencies, peak memory, operation counts, check failures, exact counts,
digests and, when traced, the per-layer figures.

Host speed on a shared machine drifts by tens of percent within a minute,
and process CPU time drifts with it.  Times are therefore reported in
reference seconds, with the raw wall time alongside: a fixed calibration
slice runs between stretches of work, and each stretch is scaled by the
ratio of the slice's reference duration to its measured duration nearby
(see ``Meter``).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

# duration of one calibration slice on the host the benchmark was defined on
CAL_REF_S = 0.009
# calibration slices right after set-up, to convert set-up time
SETUP_TICKS = 5
# calibration slices after every segment
SEGMENT_TICKS = 3
# a checkpoint calibrates when this much time has passed since the last slice
TICK_GAP_S = 0.05
# slices on each side of a stretch of work that set its conversion
NEAREST_TICKS = 3
_MASK = (1 << 64) - 1


def calibration_slice():
    """A fixed mix of the work direx does: Python integer and dict
    operations, big-integer arithmetic, numpy vector kernels and small
    Hermitian eigendecompositions."""
    acc, table = 0, {}
    for i in range(6000):
        acc = (acc * 6364136223846793005 + i) & _MASK
        table[acc & 511] = i
    big = (1 << 4096) - 12345
    for _ in range(80):
        big = (big * big) >> 4096
    v = np.arange(20_000, dtype=float)
    for _ in range(16):
        v = np.cos(v) + 1.0
    m = np.arange(64, dtype=float).reshape(8, 8) % 5
    m = m + m.T + 1j * (m - m.T)
    for _ in range(80):
        np.linalg.eigh(m)
    return acc, big & 1, float(v[0])


class Meter:
    """Times segments of work and the sessions inside them.

    Calibration slices run after set-up, after every segment, and at
    checkpoints (after a session, or after a wrapped call inside a long
    segment) once TICK_GAP_S of work has passed since the previous slice.
    A stretch of work between two slices is converted to reference seconds
    with the mean duration of the NEAREST_TICKS slices on each side; slices
    that run inside a segment are not counted as its work.
    """

    def __init__(self):
        self.on_tick = None       # called with each slice's duration
        self.ticks: list = []     # (start, end) of each calibration slice
        self.segments: list = []  # (start, end)
        self.sessions: list = []  # (start, end)

    def tick(self):
        t0 = time.perf_counter()
        calibration_slice()
        t1 = time.perf_counter()
        self.ticks.append((t0, t1))
        if self.on_tick is not None:
            self.on_tick(t1 - t0)

    def checkpoint(self):
        if time.perf_counter() - self.ticks[-1][1] >= TICK_GAP_S:
            self.tick()

    def segment(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.segments.append((t0, time.perf_counter()))
        for _ in range(SEGMENT_TICKS):
            self.tick()
        return out

    def session(self, start: float, end: float):
        """Record one session; slices that ran inside it are not counted."""
        self.sessions.append((start, end))
        self.checkpoint()

    def _factor(self, before: int) -> float:
        """Reference seconds per raw second between slice ``before`` and the
        slice after it."""
        k = NEAREST_TICKS
        near = self.ticks[max(before - k + 1, 0):before + 1 + k]
        return CAL_REF_S * len(near) / sum(t1 - t0 for t0, t1 in near)

    def _pieces(self, a: float, b: float):
        """(raw seconds, reference seconds) of [a, b] minus its slices."""
        raw = ref = 0.0
        cur, last = a, -1
        for i, (t0, t1) in enumerate(self.ticks):
            if t1 <= a:
                last = i
                continue
            if t0 >= b:
                break
            if t0 > cur:
                raw += t0 - cur
                ref += (t0 - cur) * self._factor(last)
            cur, last = t1, i
        if b > cur:
            raw += b - cur
            ref += (b - cur) * self._factor(last)
        return raw, ref

    def overall_factor(self) -> float:
        return CAL_REF_S * len(self.ticks) / sum(b - a for a, b in self.ticks)

    def raw_s(self) -> float:
        return sum(self._pieces(a, b)[0] for a, b in self.segments)

    def run_s(self) -> float:
        return sum(self._pieces(a, b)[1] for a, b in self.segments)

    def session_s(self) -> list:
        return [self._pieces(a, b)[1] for a, b in self.sessions]


def layer_metrics(tracer, result, work, meter) -> dict:
    """Per-layer figures of one traced unit, times in reference seconds.

    ``work.ACCOUNTED`` names the boundaries whose self times should cover
    the unit; their share of the traced unit time is reported.
    """
    f = meter.overall_factor()
    calls = tracer.calls

    def busy(name):
        return tracer.busy(name) * f

    def per(a, b, scale=1.0):
        return a * scale / b if b else 0.0

    laws = tracer.laws.values()
    dec_bits = sum(law[3] for law in laws)
    dec_entropy = sum(law[1] * law[2] for law in laws)
    loop_rounds = calls("protocols.loop.rounds")
    kd_rounds = calls("qkd.loop.rounds")
    bit_ops = calls("postprocess.toeplitz.bit_ops")
    out = {
        "seeding.take_calls": calls("seeding.take"),
        "seeding.bits_drawn": calls("seeding.bits_drawn"),
        "seeding.busy_s": busy("seeding.take"),
        "protocols.decoder.symbols": calls("protocols.decoder"),
        "protocols.decoder.bits": dec_bits,
        "protocols.decoder.busy_s": busy("protocols.decoder"),
        "protocols.decoder.us_per_symbol":
            per(busy("protocols.decoder"), calls("protocols.decoder"), 1e6),
        "protocols.decoder.entropy_efficiency": per(dec_entropy, dec_bits),
        "protocols.rounds": loop_rounds + kd_rounds,
        "protocols.loop.self_us_per_round":
            per(tracer.self_time("protocols.loop") * f, loop_rounds, 1e6),
        "protocols.monte_carlo.aborts":
            result.counts.get("protocols.monte_carlo.aborts", 0),
        "qkd.loop.self_us_per_round":
            per(tracer.self_time("qkd.loop") * f, kd_rounds, 1e6),
        "devices.responses": calls("devices.respond"),
        "devices.busy_s": busy("devices.respond"),
        "devices.us_per_response":
            per(busy("devices.respond"), calls("devices.respond"), 1e6),
        "postprocess.toeplitz.busy_s": busy("postprocess.toeplitz"),
        "postprocess.toeplitz.bit_ops": bit_ops,
        "postprocess.toeplitz.gbitops_per_s":
            per(bit_ops, busy("postprocess.toeplitz"), 1e-9),
        "postprocess.cross_feed.self_s":
            tracer.self_time("postprocess.cross_feed") * f,
        "postprocess.seed_topped_up_bits":
            result.counts.get("postprocess.seed_topped_up_bits", 0),
        "postprocess.seed_from_previous_bits":
            result.counts.get("postprocess.seed_from_previous_bits", 0),
        "recon.table_fill_s": getattr(work, "table_fill_s", 0.0) * f,
    }
    for name in ("recon.syndrome", "rates.worst_case_rate",
                 "rates.certified_bound", "xorgames.trust_coefficient_check",
                 "entropy.uncertainty_check", "entropy.schatten_ineq_check",
                 "entropy.renyi_divergence", "protocols.exact_small_run",
                 "matrixcore.pseudo_power"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    for name in ("recon.eir_run", "rates.maximize_bound",
                 "rates.tune_parameters", "xorgames.optimal_score",
                 "xorgames.classify_selftest",
                 "xorgames.trust_coefficient_search"):
        out[f"{name}.busy_s"] = busy(name)
    out["xorgames.trust_coefficient_check.samples"] = calls(
        "xorgames.trust_coefficient_check.samples")
    covered = sum(st[2] for name, st in tracer.stats.items()
                  if name.startswith(work.ACCOUNTED))
    out["trace.accounted_share"] = per(covered, meter.raw_s())
    out["trace.spans"] = len(tracer.spans)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before spawning")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="where to write span records")
    args = p.parse_args(argv)

    import direx

    where = Path(direx.__file__).resolve()
    if SRC not in where.parents:
        print(f"direx imported from {where}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = workloads.WORKLOADS[args.workload](args.seed)
    setup_raw = time.monotonic() - args.spawned_at
    meter = Meter()
    for _ in range(SETUP_TICKS):
        meter.tick()
    setup_factor = meter.overall_factor()
    report = {
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * setup_factor,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "direx": str(where.parent.relative_to(ROOT)),
    }
    if args.setup_only:
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
        meter.on_tick = tracer.exclude
    try:
        res = work.run(meter, tracer)
    except Exception:  # noqa: BLE001 - reported to the parent as a failure
        import traceback

        report.update(attempted=1, failures=[[traceback.format_exc(limit=4)]])
        print(json.dumps(report))
        return 0
    report.update({
        "run_raw_s": meter.raw_s(),
        "run_s": meter.run_s(),
        "cal_factor": meter.overall_factor(),
        "session_s": meter.session_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": res.attempted,
        "failures": res.failures,
        "seed_bits": res.seed_bits,
        "rounds": res.rounds,
        "counts": res.counts,
        "digests": res.digests,
    })
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, res, work, meter)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.span_records(), fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
