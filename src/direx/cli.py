"""Command-line surface: configuration, deterministic seeding, run records.

Every command hands its records to one writer, ``_write_records``, which
stamps each with the tool version, command, master seed and timestamp and
appends it as one line of JSON (or one CSV row) to the command's output;
two invocations with identical configurations produce byte-identical
records apart from the timestamp field.

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
from .devices import HONEST_DEVICES, behavior_from_record
from .errors import DirexError, InfeasibleError, check_domain
from .postprocess import CrossFeedAbort, CrossFeedStage, cross_feed
from .protocols import (
    VERIFY_SUITES,
    ProtocolConfig,
    completeness_error_bound,
    monte_carlo,
    verify_suite,
)
from .qkd import KdConfig, run_rkd
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
    optimal_score,
    trust_anticommuters,
    trust_coefficient_check,
)

DEFAULT_SEED = "d1" * 32
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_ABORT = 3
TRUST_ENTRY_CAP = 1 << 24  # scoring entries direx trust may hold at once
# the errors.DOMAINS quantity of every numeric flag: one domain per flag,
# shared by every command that takes it
FLAG_DOMAINS = {
    "workers": "count", "eta": "eta", "q": "q", "kappa": "kappa",
    "noise": "probability", "epsilon_exp": "epsilon_exp", "N": "nonnegative",
    "trials": "count", "instances": "count", "c": "nonnegative",
    "grid": "nonnegative", "samples": "nonnegative",
    "multistarts": "nonnegative", "check_seed": "nonnegative",
    "stage_rounds": "count", "stage_bits": "count", "lam": "eta",
    "error_fraction": "probability", "eps_exp": "eps_exp",
}


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
    # the master seed as parsed, in its 64-digit hex form, so every
    # spelling of one seed (1, 01, 0x01) gives one record
    return {
        "tool_version": __version__,
        "command": command,
        "seed": args.master.hex(),
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


def _write_records(args, command: str, *records: dict) -> RecordWriter:
    """The one record path: stamp base_record(args, command) on each record
    (a record's own "command" field wins), append it and flush."""
    writer = RecordWriter(_out_path(args, command), args.format)
    for fields in records:
        writer.append({**base_record(args, command), **fields})
    writer.flush()
    return writer


def _resolve_constants(name_or_path: str):
    try:
        return named_constants(name_or_path)
    except KeyError:
        from .xorgames import analyze_game

        return analyze_game(load_game(name_or_path))


def cmd_rate(args) -> int:
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
    writer = _write_records(args, "rate", {**report.to_record(), **provenance})
    if not writer.path:
        print(writer.render(), end="")
    return EXIT_OK


def _score(name_or_path: str, game) -> float:
    """q_G: the stored constant of a named game, else optimal_score's
    value, which is the q_G that analyze_game reports."""
    try:
        return named_constants(name_or_path).qG
    except KeyError:
        return optimal_score(game)[0]


def _device_run(args):
    """The game and device of simulate, qkd and expand, and the name of the
    device that plays: --device for a built-in device, the variant of a
    --device-config record.  Built-in devices exist only for the named
    games, so a missing device is reported before any game analysis."""
    game = load_game(args.game)
    if args.device_config:
        with open(args.device_config) as f:
            record = json.load(f)
        return game, behavior_from_record(record), record["variant"]
    if args.game not in HONEST_DEVICES:
        raise ValueError(
            f"no built-in {args.device} device plays game {args.game!r}; "
            f"describe one with --device-config")
    variant = "honest" if args.device == "honest" else "noisy_honest"
    behavior = behavior_from_record({"variant": variant, "device": args.game,
                                     "p": args.noise})
    return game, behavior, args.device


def cmd_simulate(args) -> int:
    game, behavior, device = _device_run(args)
    w_G = (1 + _score(args.game, game)) / 2
    config = ProtocolConfig(mode="R", N=args.N, q=args.q, eta=args.eta,
                            game=game, w_G=w_G)
    bound = None
    if not args.device_config and args.device == "noisy":
        # uniform noise moves the win probability from w_G to
        # (1 - p) w_G + p / 2, a deviation of p (w_G - 1/2)
        eta_prime = args.noise * (w_G - 0.5)
        if eta_prime < args.eta:
            bound = completeness_error_bound(args.eta, eta_prime, args.q,
                                             args.N)
    try:
        stats = monte_carlo(config, behavior, args.trials, args.master,
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
    _write_records(args, "simulate", *(
        {"trial": r.trial, "success": r.success, "failures": r.failures,
         "games": r.games, "seed_bits": r.seed_bits, "N": args.N, "q": args.q,
         "eta": args.eta, "device": device} for r in stats.records),
        {"command": "simulate-summary", **stats.to_record()})
    if stats.bound_exceeded:
        return EXIT_VIOLATION
    if args.strict and stats.aborts > 0:
        return EXIT_ABORT
    return EXIT_OK


def cmd_trust(args) -> int:
    check_domain("no sample points: --grid + --samples",
                 args.grid + args.samples, "count")
    game = load_game(args.game)
    # every sampled angle tuple holds 2**n complex scoring entries
    entries = (args.grid**game.n + args.samples) * 2**game.n
    if entries > TRUST_ENTRY_CAP:
        flag = "--samples" if args.samples >= args.grid**game.n else "--grid"
        raise ValueError(
            f"{flag} too large: --grid {args.grid} and --samples {args.samples} "
            f"need {entries} scoring entries for a {game.n}-player game, "
            f"more than {TRUST_ENTRY_CAP}")
    qG = _score(args.game, game)
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
                                               qG=qG))
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
    rec = {"game": args.game, "c": args.c, "passed": res.passed,
           "max_violation": res.max_violation, "samples": res.samples_used,
           "witness": [[z.real, z.imag] for z in res.witness],
           "analytic_failures": (res.analytic_failures
                                 if res.analytic_failures >= 0 else None),
           "sampling": {"grid": args.grid, "samples": args.samples,
                        "multistarts": args.multistarts,
                        "check_seed": args.check_seed}}
    if not is_ghz:
        anti = members[member]
        print(f"anticommuter: member {member} of {len(members)}")
        rec["anticommuter"] = {
            "member": member, "members": len(members),
            "top_row_phases": [[z.real, z.imag]
                               for z in anti[:len(anti) // 2].tolist()]}
    _write_records(args, "trust", rec)
    return EXIT_OK if res.passed else EXIT_VIOLATION


def cmd_qkd(args) -> int:
    if args.N < 3:
        raise ValueError(
            f"--N must be at least 3 (the shortest Hamming code), got {args.N}")
    game, behavior, _ = _device_run(args)
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
    outcome = run_rkd(cfg, behavior, substream(args.master, "kd-seed", 0),
                      numpy_rng(args.master, "kd-device", 0),
                      shared_randomness=substream(args.master, "kd-shared", 0))
    if outcome.success:
        if outcome.report is None:
            certified = "no certified bound (eta outside (0, v_G/2))"
        else:
            certified = f"certified {outcome.certified_bits:.0f} bits"
        print(f"success; keys match: {outcome.keys_match}  "
              f"leaked {outcome.leaked_bits} bits  {certified}")
    else:
        print(f"aborted at: {outcome.abort_reason}")
    _write_records(args, "qkd", {
        "game": args.game, "N": args.N, "q": args.q, "eta": args.eta,
        "success": outcome.success, "keys_match": outcome.keys_match,
        "leaked_bits": outcome.leaked_bits,
        "certified_bits": outcome.certified_bits,
        "disagreements": outcome.disagreements,
        "seed_bits": outcome.seed_bits_used})
    if not outcome.success and args.strict:
        return EXIT_ABORT
    return EXIT_OK


def cmd_expand(args) -> int:
    if len(args.stage_rounds) != len(args.stage_bits):
        raise ValueError(
            f"--stage-rounds and --stage-bits must give one value per stage "
            f"(got {len(args.stage_rounds)} and {len(args.stage_bits)})")
    game, behavior, _ = _device_run(args)
    consts = _resolve_constants(args.game)
    stages = [CrossFeedStage(N=n, q=args.q, eta=args.eta, kappa=args.kappa,
                             epsilon_exp=args.epsilon_exp, m_out=m)
              for n, m in zip(args.stage_rounds, args.stage_bits)]
    try:
        res = cross_feed(game, consts, behavior, behavior, stages, args.master)
    except CrossFeedAbort as e:
        print(f"aborted at stage {e.stage}: {e.failures} failures")
        return EXIT_ABORT if args.strict else EXIT_OK
    led = res.ledger.to_record()
    print(f"final output: {len(res.final_bits)} bits; "
          f"ledger soundness {led['total_soundness']}")
    if args.emit == "hex":
        packed = np.packbits(res.final_bits)
        print(packed.tobytes().hex())
    _write_records(args, "expand", {
        "stages": len(res.stages), "final_bits": len(res.final_bits),
        "ledger": led,
        "stage_summaries": [
            {"stage": s.stage, "device": s.device_id,
             "out_bits": len(s.output_bits), "bound": s.report.bound,
             "seed_from_previous": s.seed_from_previous,
             "seed_topped_up": s.seed_topped_up}
            for s in res.stages]})
    return EXIT_OK


def _check_recon_args(args):
    """Reject the --N and --lam that the regime's code cannot take, naming
    the flag."""
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


def cmd_recon(args) -> int:
    _check_recon_args(args)
    rng = numpy_rng(args.master, "recon-instance")
    if args.regime == "unique":
        base = bch_15_5()
        code = base if args.N == 15 else interleaved(base, args.N // 15)
        lam = code.supported_lambda()
    else:
        code = random_linear_code(args.N, max(args.N - 6, 1), rng, list_cap=64)
        lam = 0.1 if args.lam is None else args.lam
    errors = int(args.error_fraction * args.N)
    shared = substream(args.master, "recon-hash")
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
    _write_records(args, "recon", {
        "regime": args.regime, "N": args.N, "trials": args.trials,
        "errors": errors, "successes": successes, "code": code.name,
        "leak_bits": int(code.n_checks)})
    return EXIT_OK


def cmd_verify(args) -> int:
    rng = numpy_rng(args.master, f"verify-{args.suite}")
    suites = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    verdicts = [c.holds for suite in suites
                for c in verify_suite(suite, rng, args.instances)]
    checked, violations = len(verdicts), verdicts.count(False)
    print(f"suite {args.suite}: {checked} checks, {violations} violations")
    _write_records(args, "verify", {
        "suite": args.suite, "instances": args.instances, "checked": checked,
        "violations": violations})
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def _add_epsilon_exp(parser, default: float):
    """The one --epsilon-exp option: smoothing parameter epsilon = 2**-x."""
    parser.add_argument("--epsilon-exp", type=float, default=default,
                        help="smoothing parameter epsilon = 2**-value")


def _add_device_flags(parser):
    """The one --game/--device/--device-config/--noise group, for the
    commands that play a device (simulate, qkd, expand)."""
    parser.add_argument("--game", default="ghz")
    parser.add_argument("--device", default="honest",
                        choices=("honest", "noisy"))
    parser.add_argument("--device-config", default=None)
    parser.add_argument("--noise", type=float, default=0.0)


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
    _add_device_flags(s)
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
    _add_device_flags(k)
    k.add_argument("--N", type=int, required=True)
    k.add_argument("--q", type=float, required=True)
    k.add_argument("--eta", type=float, default=0.001)
    k.add_argument("--kappa", type=float, default=2.64)
    _add_epsilon_exp(k, 2.0)
    k.set_defaults(func=cmd_qkd)

    e = sub.add_parser("expand", help="cross-feeding composition")
    _add_device_flags(e)
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
                   choices=(*VERIFY_SUITES, "all"),
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
        # --seed and every numeric flag the command sets are checked here,
        # naming the flag, before any command starts its game analysis
        try:
            args.master = parse_master_seed(args.seed)
        except ValueError:
            raise ValueError(f"--seed must be a hex number of at most 64 "
                             f"digits, got {args.seed!r}") from None
        for dest, quantity in FLAG_DOMAINS.items():
            value = getattr(args, dest, None)
            if value is not None:
                check_domain("--" + dest.replace("_", "-"), np.asarray(value)
                             if isinstance(value, list) else value, quantity)
        return args.func(args)
    except (DirexError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
