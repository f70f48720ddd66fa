"""Every output check passes on a real output and fails on a tampered one."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import checks
import workloads
from direx import postprocess, protocols, rates, xorgames
from direx.devices import NoisyHonestBehavior, ghz_honest_device


@pytest.fixture(scope="module")
def mc_stats():
    cfg = protocols.ProtocolConfig(mode="R", N=500, q=Fraction(1, 4),
                                   eta=0.05, game=xorgames.ghz_game(), w_G=1.0)
    noisy = NoisyHonestBehavior(base=ghz_honest_device(), p=0.03)
    bound = protocols.completeness_error_bound(0.05, 0.015, 0.25, 500)
    stats = protocols.monte_carlo(cfg, noisy, 6, workloads.master_seed("t", 1),
                                  completeness_bound=bound)
    return stats, dict(trials=6, rounds=500, threshold=cfg.abort_threshold,
                       bound=bound)


def test_monte_carlo_check(mc_stats):
    stats, kw = mc_stats
    assert checks.check_monte_carlo(stats, **kw) == []
    r0 = stats.records[0]
    flipped = dataclasses.replace(r0, success=not r0.success)
    tampered = dataclasses.replace(stats, records=(flipped,) + stats.records[1:])
    assert checks.check_monte_carlo(tampered, **kw)
    hist = dict(stats.failure_histogram)
    hist[999] = 1
    assert checks.check_monte_carlo(
        dataclasses.replace(stats, failure_histogram=hist), **kw)
    assert checks.check_monte_carlo(stats, **dict(kw, trials=7))


@pytest.fixture(scope="module")
def cross_feed_result():
    xf = workloads.Expand(1)
    res = postprocess.cross_feed(xf.game, xf.constants, *xf.devices, xf.stages,
                                 xf.master)
    return res, xf.stages


def test_cross_feed_check(cross_feed_result):
    res, stages = cross_feed_result
    assert checks.check_cross_feed(res, stages) == []
    short = dataclasses.replace(res, stages=res.stages[:2])
    assert checks.check_cross_feed(short, stages)


def test_ledger_record_dropped_entry(cross_feed_result):
    res, stages = cross_feed_result
    record = res.ledger.to_record()
    assert checks.check_ledger_record(record, stages) == []
    dropped = dict(record, entries=record["entries"][1:])
    assert checks.check_ledger_record(dropped, stages)
    # dropping the last entry keeps the stage numbering contiguous: only the
    # totals recomputed from the strings can notice
    last = dict(record, entries=record["entries"][:-1])
    bad = checks.check_ledger_record(last, stages[:-1])
    assert any("is not the sum" in b for b in bad)


@pytest.fixture(scope="module")
def kd_session():
    kd = workloads.KeyDist(3)
    out, rate = kd.session(0)
    return out, rate, kd.code.n_checks


def test_kd_check_flipped_key_bit(kd_session):
    out, rate, n_checks = kd_session
    kw = dict(n_rounds=workloads.KD_ROUNDS, n_checks=n_checks)
    assert checks.check_kd_session(out, rate, **kw) == []
    key = out.bob_key
    i = len(key) // 2
    flipped = key[:i] + ("H" if key[i] != "H" else "T") + key[i + 1:]
    assert checks.check_kd_session(
        dataclasses.replace(out, bob_key=flipped), rate, **kw)
    assert checks.check_kd_session(
        dataclasses.replace(out, leaked_bits=out.leaked_bits - 1), rate, **kw)
    assert checks.check_kd_session(
        out, dict(rate, certified_bits=rate["certified_bits"] + 1), **kw)


@pytest.fixture(scope="module")
def certification():
    game = xorgames.ghz_game()
    constants = xorgames.ghz_constants()
    report = rates.certified_bound(constants, 10**6, 0.05, 0.01, 1.0, 2.0**-20)
    sweep = [("uncertainty", 0.5, 0.9), ("schatten", 1.0, 1.0),
             ("multishot", -3.0, -2.0), ("partial-trust", -1e-3, 0.0)]
    return game, constants, report, sweep


def test_certification_check(certification):
    game, constants, report, sweep = certification
    assert checks.check_certification(game, constants, report, sweep) == []
    q = constants.qG - 1e-6
    perturbed = dataclasses.replace(constants, qG=q, wG=(1 + q) / 2,
                                    fG=(1 - q) / 2)
    assert checks.check_certification(game, perturbed, report, sweep)
    weak = dataclasses.replace(constants, classification="self-test")
    assert checks.check_certification(game, weak, report, sweep)
    forced = sweep + [("schatten", 1.0 + 1e-6, 1.0)]
    assert checks.check_certification(game, constants, report, forced)
    moved = dataclasses.replace(
        constants, maximizer=tuple(np.asarray(constants.maximizer) + 0.01))
    assert checks.check_certification(game, moved, report, sweep)
