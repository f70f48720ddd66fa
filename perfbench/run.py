"""direx benchmark: one run of one workload.

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 20 --trace 0

Starts ``unit.py`` in a fresh interpreter once per measured unit, one at a
time, until ``--seconds`` have passed (at least two units), then adds
set-up-only interpreters until set-up has been measured five times.  With
``--trace 1`` the units alternate untraced and traced, and per-layer figures
come from the traced ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The end-to-end metrics (trace 0)
and per-layer metrics (trace 1) are listed in ``BENCHMARK.json``.  A
summary of every unit, with raw wall times, digests and the environment, is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

MIN_UNITS = 2
MAX_UNITS = 40
SETUP_SAMPLES = 5
UNIT_TIMEOUT_S = 150
# a unit may start while at least half of a typical unit still fits
START_SHARE = 0.5

# one thread for BLAS and OpenMP: the benchmark runs one worker, and the
# host's second core is left to everything else
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = {
    "setup_s": "s", "run_s": "s", "seed_bits_per_round": "bits",
    "session_ms_p50": "ms", "session_ms_p90": "ms", "peak_rss_mb": "MB",
}


def layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    sha = "not a git checkout"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else ref
        sha = ref
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "blas_threads": "1",
            "git_sha": sha, "child_env": CHILD_ENV}


def spawn(args, index: int, trace: int, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "unit.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}"
                                     f"-unit{index}.json")]
    env = dict(os.environ, **CHILD_ENV)
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=UNIT_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"unit {index} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    unit = json.loads(lines[-1])
    unit.update(index=index, traced=trace, wall_s=time.monotonic() - t0)
    return unit


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of the samples, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def agreement(units) -> list:
    """Exact counts and digests must be identical in every unit of a run."""
    bad = []
    first = units[0]
    for u in units[1:]:
        for key in ("seed_bits", "rounds", "attempted", "digests", "counts"):
            if first.get(key) != u.get(key):
                bad.append(f"unit {u['index']} {key} differs from unit 0")
    traced = [u["layers"] for u in units if "layers" in u]
    for layers in traced[1:]:
        for name, unit in layer_units().items():
            if unit in ("count", "bits") and layers[name] != traced[0][name]:
                bad.append(f"{name} differs between traced units")
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; have {workloads.NAMES}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "direx" / "__init__.py").exists():
        print(f"no direx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    start = time.monotonic()
    units = []
    try:
        while len(units) < MAX_UNITS:
            trace = args.trace and len(units) % 2
            units.append(spawn(args, len(units), trace))
            elapsed = time.monotonic() - start
            typical = statistics.median(u["wall_s"] for u in units)
            if (len(units) >= MIN_UNITS
                    and elapsed + START_SHARE * typical >= args.seconds):
                break
        setups = [u["setup_s"] for u in units]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args, len(setups), 0, setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark unit failed: {e}", file=sys.stderr)
        return 1

    measured = [u for u in units if not u["traced"]]
    traced = [u for u in units if "layers" in u]
    attempted = sum(u.get("attempted", 0) for u in units)
    failures = [f for u in units for f in u.get("failures", [])]
    disagreements = agreement(units)
    for f in failures + [disagreements]:
        if f:
            print("FAILED:", " | ".join(map(str, f))[:2000], file=sys.stderr)
    ok = [u for u in measured if "run_s" in u]
    if not ok or (args.trace and not traced):
        print("no unit completed", file=sys.stderr)
        return 1

    sessions = [s for u in ok for s in u["session_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(u["run_s"] for u in ok),
        "seed_bits_per_round": ok[0]["seed_bits"] / ok[0]["rounds"],
        "session_ms_p50": 1e3 * quantile(sessions, 0.5),
        "session_ms_p90": 1e3 * quantile(sessions, 0.9),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in ok),
    }
    units_of = dict(END_TO_END)
    if args.trace:
        names = layer_units()
        # counts agree between traced units (checked above); times vary
        values = {n: traced[0]["layers"][n] if unit in ("count", "bits")
                  else statistics.median(u["layers"][n] for u in traced)
                  for n, unit in names.items() if n in traced[0]["layers"]}
        untraced_run = statistics.median(u["run_s"] for u in ok)
        values["trace.overhead"] = statistics.median(
            u["run_s"] for u in traced) / untraced_run
        units_of = names

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "elapsed_s": time.monotonic() - start,
        "environment": environment(), "values": values,
        "session_count": len(sessions), "setup_samples": setups,
        "units": units,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {len(units)} units, "
          f"{len(sessions)} sessions, {time.monotonic() - start:.1f} s")
    print(f"environment: {json.dumps(summary['environment'])}, numpy "
          f"{units[0]['numpy']}")
    print("raw wall run_s per unit: " + " ".join(
        f"{u.get('run_raw_s', float('nan')):.3f}" for u in units))
    for name, v in values.items():
        print(f"  {name:48s} {v:14.6g} {units_of.get(name, '')}")
    metrics = {n: {"value": v, "unit": units_of[n]} for n, v in values.items()}
    correct = not failures and not disagreements
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
