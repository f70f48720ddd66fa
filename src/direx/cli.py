"""Command-line surface: configuration, deterministic seeding, run records.

Every command snapshots its configuration and master seed into one
machine-readable record per trial (line-delimited JSON) plus an optional
CSV summary; two invocations with identical configurations produce
byte-identical records apart from the timestamp field.

Exit codes: 0 success, 1 usage error, 2 verification violation, 3 protocol
abort under --strict.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import __version__
from .devices import (
    HONEST_DEVICES,
    behavior_from_record,
    random_partially_trusted,
)
from .entropy import measurement_split, schatten_ineq_check, uncertainty_check
from .errors import DirexError, InfeasibleError
from .postprocess import CrossFeedAbort, CrossFeedStage, cross_feed
from .protocols import (
    ProtocolConfig,
    completeness_error_bound,
    conditional_environment_states,
    exact_small_run,
    monte_carlo,
)
from .qkd import KdConfig, key_rate_report, run_rkd
from .rates import certified_bound, limit_exponent, maximize_bound
from .recon import (
    EXHAUSTIVE_LENGTH_CAP,
    bch_15_5,
    eir_run,
    hamming_code,
    interleaved,
    random_linear_code,
)
from .seeding import numpy_rng, parse_master_seed, substream
from .xorgames import (
    SamplingSpec,
    ghz_anticommuter,
    ghz_game,
    load_game,
    named_constants,
    trust_anticommuters,
    trust_coefficient_check,
)

DEFAULT_SEED = "d1" * 32
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_ABORT = 3
TRUST_ENTRY_CAP = 1 << 24  # scoring entries direx trust may hold at once


class RecordWriter:
    """Serialized appender for run records: one JSON line per record, or
    CSV rows under a header."""

    def __init__(self, path: str | None, fmt: str = "json"):
        self.path = path
        self.fmt = fmt
        self.records: list = []

    def append(self, record: dict):
        self.records.append(record)

    def _columns(self) -> list:
        return sorted({k for rec in self.records for k in rec})

    def _write(self, f, header: bool):
        if self.fmt == "json":
            for rec in self.records:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
        else:
            keys = self._columns()
            w = csv.DictWriter(f, fieldnames=keys)
            if header:
                w.writeheader()
            for rec in self.records:
                w.writerow({k: _csv_cell(rec.get(k)) for k in keys})

    def flush(self):
        """Append the records to the file; CSV rows are appended only under
        a header equal to their own columns, and otherwise nothing is
        written."""
        if not self.path:
            return
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        new = not os.path.exists(self.path) or os.path.getsize(self.path) == 0
        if self.fmt == "csv" and not new:
            with open(self.path, newline="") as f:
                header = next(csv.reader(f), [])
            keys = self._columns()
            if header != keys:
                raise DirexError(
                    f"--output {self.path}: the file's CSV columns differ from "
                    f"this command's (only in the file: "
                    f"{sorted(set(header) - set(keys))}; only in the new "
                    f"records: {sorted(set(keys) - set(header))})")
        with open(self.path, "a", newline=None if self.fmt == "json" else "") as f:
            self._write(f, new)

    def render(self) -> str:
        """The records in the writer's format, CSV with its header."""
        buf = io.StringIO()
        self._write(buf, True)
        return buf.getvalue()


def _csv_cell(v):
    if isinstance(v, (dict, list, tuple)):
        return json.dumps(v, sort_keys=True)
    return v


def base_record(args, command: str) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "seed": args.seed,
        "timestamp": time.time(),
    }


def _out_path(args, name: str):
    if args.output:
        return args.output
    outdir = os.environ.get("DIREX_OUTPUT_DIR")
    if outdir:
        ext = "jsonl" if args.format == "json" else "csv"
        return os.path.join(outdir, f"{name}.{ext}")
    return None


def _resolve_constants(name_or_path: str):
    try:
        return named_constants(name_or_path)
    except KeyError:
        from .xorgames import analyze_game

        return analyze_game(load_game(name_or_path))


def _check_protocol_flags(args):
    """Name the flag for protocol parameters no game can accept, before any
    game analysis starts.  rate, simulate, qkd and expand share these flags
    with one meaning each; a flag a subcommand lacks or leaves unset is
    skipped.  The trust bound v is at most 1, so the tolerance must lie
    below 1/2."""
    eta = getattr(args, "eta", None)
    if eta is not None and not 0 < eta < 0.5:
        raise ValueError(f"--eta must lie in (0, 1/2), got {eta}")
    q = getattr(args, "q", None)
    if q is not None and not 0 < q < 1:
        raise ValueError(f"--q must lie in (0, 1), got {q}")
    kappa = getattr(args, "kappa", None)
    if kappa is not None and not 0 < kappa < np.inf:
        raise ValueError(f"--kappa must be positive and finite, got {kappa}")
    noise = getattr(args, "noise", None)
    if noise is not None and not 0 <= noise <= 1:
        raise ValueError(f"--noise must lie in [0, 1], got {noise}")
    x = getattr(args, "epsilon_exp", None)
    if x is not None and not (x >= -0.5 and 2.0**-x > 0):
        raise ValueError(
            f"--epsilon-exp must be at least -0.5 (epsilon at most sqrt 2) "
            f"and leave epsilon = 2**-value above zero, got {x}")


def cmd_rate(args) -> int:
    if args.N < 0:
        raise ValueError(f"--N must be nonnegative, got {args.N}")
    consts = _resolve_constants(args.game)
    epsilon = 2.0**-args.epsilon_exp
    cutoff = 0.11 * consts.vG_lower
    y = args.eta / consts.vG_lower
    if y > 0.5 or limit_exponent(y) <= 0:
        print(f"infeasible: error tolerance {args.eta} at or above the "
              f"positive-rate cutoff 0.11 * v = {cutoff:.4f} "
              f"(limit rate is nonpositive)", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.q is not None and args.kappa is not None:
            report = certified_bound(consts, args.N, args.q, args.eta,
                                     args.kappa, epsilon)
        else:
            # a flag given alone pins its axis; the search runs over the other
            report = maximize_bound(
                consts, args.N, args.eta, epsilon,
                q_grid=None if args.q is None else [args.q],
                kappa_grid=None if args.kappa is None else [args.kappa])
    except (ValueError, InfeasibleError) as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_USAGE
    v = consts.vG_lower
    rows = [
        ("game", args.game),
        ("trust coefficient lower bound", v),
        ("limit rate pi(eta/v)", limit_exponent(args.eta / v)),
        ("positive-rate cutoff 0.11*v", 0.11 * v),
        ("T (per-round rate)", report.T_value),
        ("E (penalty coefficient)", report.E_value),
        ("q", report.params.q),
        ("kappa", report.params.kappa),
        ("epsilon", report.params.epsilon),
        ("N", report.params.N),
        ("certified min-entropy bound", report.bound),
    ]
    provenance = {}
    if consts.certified_gap is not None:
        provenance = {"game_vG_provenance": consts.provenance,
                      "game_qG_certified_gap": consts.certified_gap}
        rows[2:2] = [("trust bound provenance", consts.provenance),
                     ("optimal score certified gap", consts.certified_gap)]
    width = max(len(r[0]) for r in rows)
    for k, val in rows:
        print(f"{k:<{width}}  {val}")
    writer = RecordWriter(_out_path(args, "rate"), args.format)
    rec = base_record(args, "rate")
    rec.update(report.to_record())
    rec.update(provenance)
    writer.append(rec)
    writer.flush()
    if not args.output and not os.environ.get("DIREX_OUTPUT_DIR"):
        print(writer.render(), end="")
    return EXIT_OK


def _behavior_from_args(args):
    """The device a command plays against.  Built-in devices exist only for
    the named games; call this before the game analysis so a missing
    device is reported before that work is done."""
    if args.device_config:
        with open(args.device_config) as f:
            return behavior_from_record(json.load(f))
    if args.game not in HONEST_DEVICES:
        raise ValueError(
            f"no built-in {args.device} device plays game {args.game!r}; "
            f"describe one with --device-config")
    variant = "honest" if args.device == "honest" else "noisy_honest"
    return behavior_from_record({"variant": variant, "device": args.game,
                                 "p": args.noise})


def cmd_simulate(args) -> int:
    if args.N < 0:
        raise ValueError(f"--N must be nonnegative, got {args.N}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    master = parse_master_seed(args.seed)
    game = load_game(args.game)
    behavior = _behavior_from_args(args)
    consts = _resolve_constants(args.game)
    config = ProtocolConfig(mode="R", N=args.N, q=args.q, eta=args.eta,
                            game=game, w_G=consts.wG)
    bound = None
    if args.device == "noisy":
        # uniform noise moves the win probability from w_G to
        # (1 - p) w_G + p / 2, a deviation of p (w_G - 1/2)
        eta_prime = args.noise * (consts.wG - 0.5)
        if eta_prime < args.eta:
            bound = completeness_error_bound(args.eta, eta_prime, args.q,
                                             args.N)
    try:
        stats = monte_carlo(config, behavior, args.trials, master,
                            completeness_bound=bound, workers=args.workers)
    except BrokenProcessPool as e:
        raise DirexError(
            f"a worker process of --workers {args.workers} ended abruptly "
            f"({e}); rerun with fewer --workers") from e
    print(f"trials {stats.trials}  aborts {stats.aborts}  "
          f"abort rate {stats.abort_rate:.4f}  "
          f"wilson [{stats.wilson_low:.4f}, {stats.wilson_high:.4f}]")
    if bound is not None:
        print(f"completeness bound {bound:.4f}  exceeded: {stats.bound_exceeded}")
    writer = RecordWriter(_out_path(args, "simulate"), args.format)
    for r in stats.records:
        rec = base_record(args, "simulate")
        rec.update({"trial": r.trial, "success": r.success,
                    "failures": r.failures, "games": r.games,
                    "seed_bits": r.seed_bits, "N": args.N, "q": args.q,
                    "eta": args.eta, "device": args.device})
        writer.append(rec)
    summary = base_record(args, "simulate-summary")
    summary.update(stats.to_record())
    writer.append(summary)
    writer.flush()
    if stats.bound_exceeded:
        return EXIT_VIOLATION
    if args.strict and stats.aborts > 0:
        return EXIT_ABORT
    return EXIT_OK


def cmd_trust(args) -> int:
    if not (np.isfinite(args.c) and args.c >= 0):
        raise ValueError(f"--c must be finite and nonnegative, got {args.c}")
    for flag, value in (("--grid", args.grid), ("--samples", args.samples),
                        ("--multistarts", args.multistarts),
                        ("--check-seed", args.check_seed)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    if args.grid == 0 and args.samples == 0:
        raise ValueError("--grid 0 with --samples 0 leaves no sample points")
    game = load_game(args.game)
    # every sampled angle tuple holds 2**n complex scoring entries
    entries = (args.grid**game.n + args.samples) * 2**game.n
    if entries > TRUST_ENTRY_CAP:
        flag = "--samples" if args.samples >= args.grid**game.n else "--grid"
        raise ValueError(
            f"{flag} too large: --grid {args.grid} and --samples {args.samples} "
            f"need {entries} scoring entries for a {game.n}-player game, "
            f"more than {TRUST_ENTRY_CAP}")
    consts = _resolve_constants(args.game)
    # the GHZ game keeps its sign pattern, on which the closed-form entry
    # checks run; other games try the members trust_coefficient_search
    # tries, until one passes
    is_ghz = game.entries == ghz_game().entries
    members = [ghz_anticommuter()] if is_ghz else trust_anticommuters(game)
    if not members:
        raise DirexError(f"no valid anticommuter for a {game.n}-player game")
    spec = SamplingSpec(grid_points=args.grid, random_samples=args.samples,
                        multistarts=args.multistarts, seed=args.check_seed)
    results = []
    for anti in members:
        results.append(trust_coefficient_check(game, args.c, anti, spec,
                                               qG=consts.qG))
        if results[-1].passed:
            break
    member = min(range(len(results)),
                 key=lambda i: (not results[i].passed,
                                results[i].max_violation))
    res = results[member]
    print(f"coefficient {args.c}: {'pass' if res.passed else 'FAIL'}  "
          f"max violation {res.max_violation:.3e}  samples {res.samples_used}")
    if res.analytic_failures >= 0:
        print(f"analytic entry checks: {res.analytic_failures} failures")
    writer = RecordWriter(_out_path(args, "trust"), args.format)
    rec = base_record(args, "trust")
    rec.update({"game": args.game, "c": args.c, "passed": res.passed,
                "max_violation": res.max_violation,
                "samples": res.samples_used,
                "witness": [[z.real, z.imag] for z in res.witness],
                "analytic_failures": (res.analytic_failures
                                      if res.analytic_failures >= 0 else None),
                "sampling": {"grid": args.grid, "samples": args.samples,
                             "multistarts": args.multistarts,
                             "check_seed": args.check_seed}})
    if not is_ghz:
        anti = members[member]
        print(f"anticommuter: member {member} of {len(members)}")
        rec["anticommuter"] = {
            "member": member, "members": len(members),
            "top_row_phases": [[z.real, z.imag]
                               for z in anti[:len(anti) // 2].tolist()]}
    writer.append(rec)
    writer.flush()
    return EXIT_OK if res.passed else EXIT_VIOLATION


def cmd_qkd(args) -> int:
    if args.N < 3:
        raise ValueError(
            f"--N must be at least 3 (the shortest Hamming code), got {args.N}")
    master = parse_master_seed(args.seed)
    game = load_game(args.game)
    behavior = _behavior_from_args(args)
    consts = _resolve_constants(args.game)
    code = hamming_code(args.N)
    # lam is the code's own parameter, kept below w_G - 1/2 (a code that
    # cannot back the lower lam makes the run abort at reconciliation);
    # lam' lies strictly between lam and w_G - 1/2
    cap = consts.wG - 0.5
    lam = min(code.supported_lambda(), cap) - 1e-9
    cfg = KdConfig(game=game, constants=consts, N=args.N, q=args.q,
                   eta=args.eta, lam=lam,
                   lam_prime=min(lam + 1e-5, (lam + cap) / 2), code=code,
                   kappa=args.kappa, epsilon_exp=args.epsilon_exp)
    outcome = run_rkd(cfg, behavior, substream(master, "kd-seed", 0),
                      numpy_rng(master, "kd-device", 0),
                      shared_randomness=substream(master, "kd-shared", 0))
    if outcome.success:
        if outcome.report is None:
            certified = "no certified bound (eta outside (0, v_G/2))"
        else:
            bits = key_rate_report(outcome)["certified_bits"]
            certified = f"certified {bits:.0f} bits"
        print(f"success; keys match: {outcome.keys_match}  "
              f"leaked {outcome.leaked_bits} bits  {certified}")
    else:
        print(f"aborted at: {outcome.abort_reason}")
    writer = RecordWriter(_out_path(args, "qkd"), args.format)
    rec = base_record(args, "qkd")
    rec.update({"game": args.game, "N": args.N, "q": args.q, "eta": args.eta,
                "success": outcome.success, "keys_match": outcome.keys_match,
                "leaked_bits": outcome.leaked_bits,
                "certified_bits": outcome.certified_bits,
                "disagreements": outcome.disagreements,
                "seed_bits": outcome.seed_bits_used})
    writer.append(rec)
    writer.flush()
    if not outcome.success and args.strict:
        return EXIT_ABORT
    return EXIT_OK


def cmd_expand(args) -> int:
    if len(args.stage_rounds) != len(args.stage_bits):
        raise ValueError(
            f"--stage-rounds and --stage-bits must give one value per stage "
            f"(got {len(args.stage_rounds)} and {len(args.stage_bits)})")
    for flag, values in (("--stage-rounds", args.stage_rounds),
                         ("--stage-bits", args.stage_bits)):
        if min(values) < 1:
            raise ValueError(
                f"{flag} values must be at least 1, got {min(values)}")
    master = parse_master_seed(args.seed)
    game = load_game(args.game)
    behavior = _behavior_from_args(args)
    consts = _resolve_constants(args.game)
    stages = [CrossFeedStage(N=n, q=args.q, eta=args.eta, kappa=args.kappa,
                             epsilon_exp=args.epsilon_exp, m_out=m)
              for n, m in zip(args.stage_rounds, args.stage_bits)]
    try:
        res = cross_feed(game, consts, behavior, behavior, stages, master)
    except CrossFeedAbort as e:
        print(f"aborted at stage {e.stage}: {e.failures} failures")
        return EXIT_ABORT if args.strict else EXIT_OK
    led = res.ledger.to_record()
    print(f"final output: {len(res.final_bits)} bits; "
          f"ledger soundness {led['total_soundness']}")
    if args.emit == "hex":
        packed = np.packbits(res.final_bits)
        print(packed.tobytes().hex())
    writer = RecordWriter(_out_path(args, "expand"), args.format)
    rec = base_record(args, "expand")
    rec.update({"stages": len(res.stages), "final_bits": len(res.final_bits),
                "ledger": led,
                "stage_summaries": [
                    {"stage": s.stage, "device": s.device_id,
                     "out_bits": len(s.output_bits), "bound": s.report.bound,
                     "seed_from_previous": s.seed_from_previous,
                     "seed_topped_up": s.seed_topped_up}
                    for s in res.stages]})
    writer.append(rec)
    writer.flush()
    return EXIT_OK


def _check_recon_args(args):
    """Reject the inputs the reconciliation codes cannot take, naming the
    flag."""
    if args.regime == "unique":
        if args.N < 15 or args.N % 15:
            raise ValueError(
                f"--N must be a positive multiple of 15 in the unique regime "
                f"(the BCH block length), got {args.N}")
        if args.lam is not None:
            raise ValueError(
                "--lam applies to the list regime only: the unique regime "
                "uses its code's own parameter")
    else:
        if not 1 <= args.N <= EXHAUSTIVE_LENGTH_CAP:
            raise ValueError(
                f"--N must lie in [1, {EXHAUSTIVE_LENGTH_CAP}] in the list "
                f"regime (exhaustive list decoding), got {args.N}")
        if args.lam is not None and not 0 < args.lam < 0.5:
            raise ValueError(f"--lam must lie in (0, 1/2), got {args.lam}")
    if not 0 <= args.error_fraction <= 1:
        raise ValueError(
            f"--error-fraction must lie in [0, 1], got {args.error_fraction}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    # the hash length ceil(log2(2L/eps)) overflows a float above ~1017
    if not 0 <= args.eps_exp <= 1000:
        raise ValueError(
            f"--eps-exp must lie in [0, 1000] (failure budget 2**-value), "
            f"got {args.eps_exp}")


def cmd_recon(args) -> int:
    _check_recon_args(args)
    master = parse_master_seed(args.seed)
    rng = numpy_rng(master, "recon-instance")
    if args.regime == "unique":
        base = bch_15_5()
        code = base if args.N == 15 else interleaved(base, args.N // 15)
        lam = code.supported_lambda()
    else:
        code = random_linear_code(args.N, max(args.N - 6, 1), rng, list_cap=64)
        lam = 0.1 if args.lam is None else args.lam
    errors = int(args.error_fraction * args.N)
    shared = substream(master, "recon-hash")
    successes = 0
    for t in range(args.trials):
        x = rng.integers(0, 2, args.N).astype(np.uint8)
        e = np.zeros(args.N, dtype=np.uint8)
        pos = rng.choice(args.N, errors, replace=False)
        e[pos] = 1
        res = eir_run(x, x ^ e, code, lam, 2.0**-args.eps_exp, shared=shared)
        if not res.aborted and np.array_equal(res.estimate, x):
            successes += 1
    print(f"{successes}/{args.trials} recovered "
          f"(code {code.name}, leak {code.n_checks} bits/run)")
    writer = RecordWriter(_out_path(args, "recon"), args.format)
    rec = base_record(args, "recon")
    rec.update({"regime": args.regime, "N": args.N, "trials": args.trials,
                "errors": errors, "successes": successes,
                "code": code.name, "leak_bits": int(code.n_checks)})
    writer.append(rec)
    writer.flush()
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.instances < 1:
        raise ValueError(f"--instances must be at least 1, got {args.instances}")
    master = parse_master_seed(args.seed)
    rng = numpy_rng(master, f"verify-{args.suite}")
    violations = 0
    checked = 0
    if args.suite in ("uncertainty", "all"):
        for _ in range(args.instances):
            dw = int(rng.integers(1, 5))
            dv = int(rng.integers(1, 9))
            z = rng.normal(size=(2 * dw, dv)) + 1j * rng.normal(size=(2 * dw, dv))
            z /= np.linalg.norm(z)
            inst = measurement_split(z)
            for eps in (0.1, 0.5, 1.0):
                checked += 1
                if not uncertainty_check(inst, eps).holds:
                    violations += 1
    if args.suite in ("schatten", "all"):
        for _ in range(args.instances):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for p in (2.0, 2.5, 4.0):
                checked += 1
                if not schatten_ineq_check(a, b, p).holds:
                    violations += 1
    if args.suite in ("multishot", "all"):
        for _ in range(args.instances):
            v = float(rng.uniform(0.1, 1.0))
            h = float(rng.uniform(0.0, 1.0 - v))
            beh = random_partially_trusted(rng, v, h, env_dim=2)
            q = float(rng.uniform(0.05, 0.5))
            kappa = float(rng.uniform(0.2, 2.0))
            r = float(rng.uniform(0.05, 1.0)) / (q * kappa)
            n_rounds = int(rng.integers(1, 4))
            checked += 1
            if not exact_small_run(n_rounds, beh, q, kappa, r).holds:
                violations += 1
    if args.suite in ("partial-trust", "all"):
        for _ in range(args.instances):
            v = float(rng.uniform(0.1, 1.0))
            h = float(rng.uniform(0.0, 1.0 - v))
            beh = random_partially_trusted(rng, v, h,
                                           env_dim=int(rng.integers(1, 5)))
            cs = conditional_environment_states(beh)
            rho = cs["H"] + cs["T"]
            diffs = (
                cs["P"] - (h / 2) * rho - v * cs["0"],
                (1 - h / 2) * rho - v * cs["1"] - cs["P"],
                cs["F"] - (h / 2) * rho - v * cs["1"],
                (1 - h / 2) * rho - v * cs["0"] - cs["F"],
            )
            for m in diffs:
                checked += 1
                lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
                if lo < -1e-9:
                    violations += 1
    print(f"suite {args.suite}: {checked} checks, {violations} violations")
    writer = RecordWriter(_out_path(args, "verify"), args.format)
    rec = base_record(args, "verify")
    rec.update({"suite": args.suite, "instances": args.instances,
                "checked": checked, "violations": violations})
    writer.append(rec)
    writer.flush()
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def _add_epsilon_exp(parser, default: float):
    """The one --epsilon-exp option: smoothing parameter epsilon = 2**-x."""
    parser.add_argument("--epsilon-exp", type=float, default=default,
                        help="smoothing parameter epsilon = 2**-value")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="direx",
        description="untrusted-device randomness expansion toolkit")
    p.add_argument("--seed", default=DEFAULT_SEED,
                   help="256-bit hex master seed")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None, help="record output path")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--strict", action="store_true",
                   help="exit 3 on protocol abort")
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("rate", help="certified rate report")
    r.add_argument("--game", default="ghz")
    r.add_argument("--eta", type=float, required=True)
    r.add_argument("--N", type=int, default=10**6)
    r.add_argument("--q", type=float, default=None)
    r.add_argument("--kappa", type=float, default=None)
    _add_epsilon_exp(r, 20.0)
    r.set_defaults(func=cmd_rate)

    s = sub.add_parser("simulate", help="Monte Carlo protocol runs")
    s.add_argument("--game", default="ghz")
    s.add_argument("--device", default="honest", choices=("honest", "noisy"))
    s.add_argument("--device-config", default=None)
    s.add_argument("--noise", type=float, default=0.0)
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--eta", type=float, required=True)
    s.add_argument("--trials", type=int, default=10)
    s.set_defaults(func=cmd_simulate)

    t = sub.add_parser("trust", help="trust-coefficient certification")
    t.add_argument("--game", default="ghz")
    t.add_argument("--c", type=float, required=True)
    t.add_argument("--grid", type=int, default=64)
    t.add_argument("--samples", type=int, default=10_000)
    t.add_argument("--multistarts", type=int, default=20)
    t.add_argument("--check-seed", type=int, default=0)
    t.set_defaults(func=cmd_trust)

    k = sub.add_parser("qkd", help="key distribution run")
    k.add_argument("--game", default="ghz")
    k.add_argument("--device", default="honest", choices=("honest", "noisy"))
    k.add_argument("--device-config", default=None)
    k.add_argument("--noise", type=float, default=0.0)
    k.add_argument("--N", type=int, required=True)
    k.add_argument("--q", type=float, required=True)
    k.add_argument("--eta", type=float, default=0.001)
    k.add_argument("--kappa", type=float, default=2.64)
    _add_epsilon_exp(k, 2.0)
    k.set_defaults(func=cmd_qkd)

    e = sub.add_parser("expand", help="cross-feeding composition")
    e.add_argument("--game", default="ghz")
    e.add_argument("--device", default="honest", choices=("honest", "noisy"))
    e.add_argument("--device-config", default=None)
    e.add_argument("--noise", type=float, default=0.0)
    e.add_argument("--stage-rounds", type=int, nargs="+",
                   default=[10000, 11000, 25000])
    e.add_argument("--stage-bits", type=int, nargs="+",
                   default=[64, 256, 4096])
    e.add_argument("--q", type=float, default=0.5)
    e.add_argument("--eta", type=float, default=0.002)
    e.add_argument("--kappa", type=float, default=2.6)
    _add_epsilon_exp(e, 20.0)
    e.add_argument("--emit", choices=("none", "hex"), default="none")
    e.set_defaults(func=cmd_expand)

    c = sub.add_parser("recon", help="information reconciliation trials")
    c.add_argument("--regime", choices=("unique", "list"), default="unique")
    c.add_argument("--N", type=int, default=15)
    c.add_argument("--lam", type=float, default=None)
    c.add_argument("--error-fraction", type=float, default=0.15)
    c.add_argument("--eps-exp", type=float, default=10.0)
    c.add_argument("--trials", type=int, default=1000)
    c.set_defaults(func=cmd_recon)

    v = sub.add_parser("verify", help="inequality verification sweeps")
    v.add_argument("--suite",
                   choices=("uncertainty", "schatten", "multishot",
                            "partial-trust", "all"),
                   default="all")
    v.add_argument("--instances", type=int, default=200)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        if args.workers < 1:
            raise ValueError(f"--workers must be at least 1, got {args.workers}")
        _check_protocol_flags(args)
        return args.func(args)
    except (DirexError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
