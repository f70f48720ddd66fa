"""Output checks, one function per workload operation.

Each check recomputes what it can from the returned objects instead of
trusting a flag the program computed about itself, and returns a list of
failure messages (empty when the output is correct).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

SWEEP_SLACK = {"uncertainty": 1e-9, "schatten": 1e-9, "multishot": 1e-8,
               "partial-trust": 1e-9}


def check_monte_carlo(stats, *, trials: int, rounds: int, threshold: float,
                      bound: float, max_abort_rate: float = 0.05) -> list:
    """One monte_carlo call: per-trial abort decisions, aggregates, and the
    completeness-bound flag, all recomputed from the trial records."""
    bad = []
    recs = stats.records
    if len(recs) != trials or stats.trials != trials:
        bad.append(f"expected {trials} trial records, got {len(recs)}")
    if sorted(r.trial for r in recs) != list(range(len(recs))):
        bad.append("trial indices are not 0..trials-1")
    for r in recs:
        if r.success != (r.failures <= threshold):
            bad.append(f"trial {r.trial}: abort decision disagrees with "
                       f"{r.failures} failures against {threshold}")
        if not 0 <= r.failures <= r.games <= rounds:
            bad.append(f"trial {r.trial}: failures/games out of range")
        if r.seed_bits <= 0:
            bad.append(f"trial {r.trial}: drew no seed bits")
    aborts = sum(1 for r in recs if not r.success)
    if stats.aborts != aborts:
        bad.append(f"reported {stats.aborts} aborts, records show {aborts}")
    if dict(Counter(r.failures for r in recs)) != dict(stats.failure_histogram):
        bad.append("failure histogram disagrees with the trial records")
    n = max(len(recs), 1)
    rate = aborts / n
    p = (aborts + 0.5) / (n + 1)
    exceeded = rate > bound + 3 * math.sqrt(p * (1 - p) / n)
    if exceeded or stats.bound_exceeded:
        bad.append(f"abort rate {rate:.4f} exceeds the completeness bound "
                   f"{bound:.4f}")
    if rate >= max_abort_rate:
        bad.append(f"abort rate {rate:.4f} is not below {max_abort_rate}")
    return bad


def check_cross_feed(res, stages, *, sizes=(64, 256, 4096)) -> list:
    """One three-stage composition: output sizes, wiring, the ledger record
    summed from its strings, and per-stage seed accounting."""
    bad = []
    got = [len(s.output_bits) for s in res.stages]
    if got != list(sizes):
        bad.append(f"output sizes {got}, expected {list(sizes)}")
    if not np.array_equal(res.final_bits, res.stages[-1].output_bits):
        bad.append("final bits are not the last stage's output")
    if not set(np.unique(res.final_bits).tolist()) <= {0, 1}:
        bad.append("final bits are not bits")
    if not res.ledger.check_wiring():
        bad.append("check_wiring() failed")
    bad += check_ledger_record(res.ledger.to_record(), stages)
    prev = 0
    for s in res.stages:
        if s.seed_from_previous + s.seed_topped_up != s.seed_bits_used:
            bad.append(f"stage {s.stage}: seed bits from the previous stage "
                       "and the top-up do not add up to the bits used")
        if s.seed_from_previous > prev:
            bad.append(f"stage {s.stage}: took more queued bits than the "
                       "previous stage produced")
        prev = len(s.output_bits)
    return bad


def check_ledger_record(record: dict, stages) -> list:
    """Totals and entries of ErrorLedger.to_record(), recomputed from the
    decimal strings; completeness entries recomputed from the stage sizes."""
    bad = []
    entries = record["entries"]
    if [e["stage"] for e in entries] != list(range(len(stages))):
        bad.append(f"ledger stages {[e['stage'] for e in entries]}, expected "
                   f"0..{len(stages) - 1}")
    for e in entries:
        if e["device"] != e["stage"] % 2 or e["seed_from_stage"] != e["stage"] - 1:
            bad.append(f"ledger entry {e['stage']}: wiring fields wrong")
    for key in ("soundness", "completeness"):
        total = sum((Fraction(e[key]) for e in entries), Fraction(0))
        if total != Fraction(record[f"total_{key}"]):
            bad.append(f"total {key} {record[f'total_{key}']} is not the sum "
                       f"{total} of its entries")
    for e, st in zip(entries, stages):
        expo = math.ceil(-st.eta ** 2 * st.q * st.N / (3.0 * math.log(2.0)))
        want = min(Fraction(2) ** expo, Fraction(1))
        if Fraction(e["completeness"]) != want:
            bad.append(f"ledger entry {e['stage']}: completeness "
                       f"{e['completeness']}, expected {want}")
        if not 0 < Fraction(e["soundness"]) <= 1:
            bad.append(f"ledger entry {e['stage']}: soundness out of (0, 1]")
    return bad


def check_kd_session(outcome, rate: dict, *, n_rounds: int,
                     n_checks: int) -> list:
    """One key-distribution session: agreement, leakage and the key rate."""
    if not outcome.success:
        return [f"session aborted: {outcome.abort_reason}"]
    bad = []
    a, b = outcome.alice_key, outcome.bob_key
    if len(a) != n_rounds or len(b) != n_rounds:
        bad.append(f"key lengths {len(a)}/{len(b)}, expected {n_rounds}")
    diff = sum(1 for x, y in zip(a, b) if x != y)
    if diff or len(a) != len(b):
        bad.append(f"keys differ in {diff} positions")
    if not (outcome.leaked_bits == outcome.eir.leaked_bits == n_checks):
        bad.append(f"leaked {outcome.leaked_bits} bits, code has {n_checks} "
                   "checks")
    if not outcome.certified_bits > 0:
        bad.append("no certified bits")
    want = max(outcome.report.bound - outcome.leaked_bits, 0.0)
    if rate["certified_bits"] != want or outcome.certified_bits != want:
        bad.append(f"certified bits {rate['certified_bits']}, expected "
                   f"bound - leakage = {want}")
    if outcome.seed_bits_used <= 0:
        bad.append("session drew no seed bits")
    return bad


def check_certification(game, constants, report, sweep: list, *,
                        acceptance=None) -> list:
    """One cold certification: the score recomputed at the reported
    maximizer, classification, trust bound, rate bound recomputed from its
    parameters, and the inequality sweep judged from its lhs/rhs pairs."""
    bad = []
    if abs(constants.qG - 1.0) > 1e-9:
        bad.append(f"q_G = {constants.qG!r}, expected 1 within 1e-9")
    th = np.asarray(constants.maximizer, dtype=float)
    angles = th[0] + game.input_matrix @ th[1:]
    recomputed = float(np.cos(angles) @ (game.probs * game.signs))
    if abs(recomputed - constants.qG) > 1e-9:
        bad.append(f"score at the maximizer is {recomputed!r}, reported "
                   f"{constants.qG!r}")
    if constants.classification != "strong-self-test":
        bad.append(f"classification {constants.classification!r}")
    if not constants.vG_lower > 0:
        bad.append(f"trust bound {constants.vG_lower} is not positive")
    p = report.params
    bound = p.N * report.T_value - (math.log2(math.sqrt(2) / p.epsilon)
                                    / (p.q * p.kappa)) * report.E_value
    if not report.bound > 0:
        bad.append(f"certified bound {report.bound} is not positive")
    if not math.isclose(bound, report.bound, rel_tol=1e-9, abs_tol=1e-6):
        bad.append(f"bound {report.bound} disagrees with N*T - penalty "
                   f"= {bound}")
    violations = [(suite, lhs, rhs) for suite, lhs, rhs in sweep
                  if not lhs <= rhs + SWEEP_SLACK[suite]]
    if violations:
        bad.append(f"{len(violations)} sweep violations, first {violations[0]}")
    if acceptance is not None and acceptance.transcript.failures:
        bad.append(f"honest acceptance run lost "
                   f"{acceptance.transcript.failures} game rounds")
    return bad
