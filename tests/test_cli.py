import ast
import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from direx import protocols
from direx.cli import (
    DEFAULT_SEED,
    EXIT_ABORT,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    build_parser,
    main,
)
from direx.entropy import uncertainty_check
from direx.errors import DOMAINS, check_domain


def exit_in_worker(task):
    """Stands in for a trial in a worker process and kills that process."""
    os._exit(1)


def run_cli(*argv):
    return main(list(argv))


def read_records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def strip_volatile(rec):
    return {k: v for k, v in rec.items() if k != "timestamp"}


class TestRate:
    def test_positive_bound_default_tuning(self, capsys):
        assert run_cli("rate", "--game", "ghz", "--eta", "0.01",
                       "--N", "1000000") == EXIT_OK
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "certified min-entropy" in ln][0]
        assert float(line.split()[-1]) > 0

    def test_above_cutoff_infeasible(self, capsys):
        assert run_cli("rate", "--game", "ghz", "--eta", "0.02") == EXIT_USAGE
        assert "0.0154" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--kappa", "1e-320"), ("--q", "1e-200", "--kappa", "1e-200"),
        ("--q", "0.1", "--kappa", "1e-320")])
    @pytest.mark.filterwarnings("error")
    def test_underflowing_gamma_names_r_q_kappa(self, capsys, flags):
        # each flag set puts r q kappa below the least normal float
        assert run_cli("rate", "--eta", "0.01", *flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "r q kappa" in err and "Traceback" not in err

    def test_sqrt2_epsilon_bound_is_linear_term(self, capsys):
        assert run_cli("rate", "--game", "ghz", "--eta", "0.01",
                       "--epsilon-exp", "-0.5", "--q", "0.1", "--kappa", "1.0",
                       "--N", "1000") == EXIT_OK
        out = capsys.readouterr().out
        t_line = [ln for ln in out.splitlines() if ln.startswith("T ")][0]
        b_line = [ln for ln in out.splitlines() if "certified min-entropy" in ln][0]
        assert float(b_line.split()[-1]) == pytest.approx(
            1000 * float(t_line.split()[-1]))


    def test_epsilon_exp_default_is_two_to_minus_twenty(self, tmp_path):
        # --epsilon-exp x means epsilon = 2**-x in every subcommand
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p, extra in zip(paths, ((), ("--epsilon-exp", "20"))):
            assert run_cli("--output", str(p), "rate", "--game", "ghz",
                           "--eta", "0.01", "--q", "0.1", "--kappa", "1.0",
                           "--N", "1000000", *extra) == EXIT_OK
        recs = [strip_volatile(read_records(p)[0]) for p in paths]
        assert recs[0] == recs[1]
        assert recs[0]["epsilon"] == 2.0**-20

    def test_game_file_reports_score_certificate(self, tmp_path, capsys):
        from direx.xorgames import game_to_record, ghz_game

        game = tmp_path / "game.json"
        game.write_text(json.dumps(game_to_record(ghz_game().relabel((1, 1, 0)))))
        out = tmp_path / "rate.jsonl"
        assert run_cli("--output", str(out), "rate", "--game", str(game),
                       "--eta", "0.01", "--N", "1000000") == EXIT_OK
        text = capsys.readouterr().out
        assert "trust bound provenance" in text
        assert "optimal score certified gap" in text
        rec = read_records(out)[0]
        assert rec["game_vG_provenance"] == "sampled closed form"
        assert 0 < rec["game_qG_certified_gap"] <= 1e-9

    @pytest.mark.parametrize("flag, value, searched", [
        ("--q", 0.1, "kappa"), ("--kappa", 2.0, "q")])
    def test_one_flag_pins_its_axis(self, tmp_path, flag, value, searched):
        from direx.rates import certified_bound
        from direx.xorgames import ghz_constants

        out = tmp_path / "rate.jsonl"
        assert run_cli("--output", str(out), "rate", "--game", "ghz",
                       "--eta", "0.01", "--N", "1000000", flag, str(value)) == EXIT_OK
        rec = read_records(out)[0]
        assert rec[flag[2:]] == value
        # the other axis is searched over its default grid
        grid = (np.geomspace(1e-3, 30.0, 18) if searched == "kappa"
                else np.geomspace(1e-4, 0.5, 18))
        assert rec[searched] in grid.tolist()
        pair = {flag[2:]: value}
        best = max(certified_bound(
            ghz_constants(), 10**6, eta=0.01, epsilon=2.0**-20,
            **{**pair, searched: float(x)}).bound for x in grid)
        assert rec["bound"] == best

    def test_named_game_record_has_no_certificate(self, tmp_path):
        out = tmp_path / "rate.jsonl"
        assert run_cli("--output", str(out), "rate", "--game", "chsh",
                       "--eta", "0.005", "--N", "1000000") == EXIT_OK
        rec = read_records(out)[0]
        assert "game_qG_certified_gap" not in rec
        assert "game_vG_provenance" not in rec

    @pytest.mark.parametrize("record, field", [
        ({}, "'n'"),
        ([1, 2], "a game record must be a JSON object"),
        ({"n": 3, "support": [{"input": "000", "p": "1"}]}, "'eta'"),
        ({"n": "3", "support": [{"input": "000", "p": "1", "eta": 1}]}, "'n'"),
        # a probability past float range once overflowed the sum check
        ({"n": 3, "support": [{"input": "000", "p": "1e400", "eta": 1}]},
         "probabilities must lie in [0, 1]"),
    ])
    def test_malformed_game_file_names_the_field(self, tmp_path, capsys,
                                                 record, field):
        game = tmp_path / "game.json"
        game.write_text(json.dumps(record))
        assert run_cli("rate", "--game", str(game), "--eta", "0.01") == EXIT_USAGE
        assert field in capsys.readouterr().err

    def test_csv_echo_without_output_path(self, capsys, monkeypatch):
        monkeypatch.delenv("DIREX_OUTPUT_DIR", raising=False)
        assert run_cli("--format", "csv", "rate", "--eta", "0.01") == EXIT_OK
        header, row = csv.reader(capsys.readouterr().out.splitlines()[-2:])
        rec = dict(zip(header, row))
        assert rec["command"] == "rate" and float(rec["eta"]) == 0.01


class TestRecordsAndDeterminism:
    def test_records_identical_modulo_timestamp(self, tmp_path):
        for argv in (
                ("simulate", "--game", "ghz", "--N", "300", "--q", "0.1",
                 "--eta", "0.05", "--trials", "3"),
                ("rate", "--eta", "0.01", "--N", "10000"),
                ("trust", "--c", "0.14", "--grid", "6", "--samples", "100",
                 "--multistarts", "1"),
                ("qkd", "--N", "1000", "--q", "0.1"),
                ("expand", "--stage-rounds", "10000", "--stage-bits", "64"),
                ("recon", "--trials", "20"),
                ("verify", "--instances", "3")):
            p1, p2 = (tmp_path / f"{argv[0]}-{i}.jsonl" for i in "ab")
            for p in (p1, p2):
                assert run_cli("--output", str(p), *argv) == EXIT_OK
            a, b = read_records(p1), read_records(p2)
            assert a and [strip_volatile(r) for r in a] == [
                strip_volatile(r) for r in b]
            for rec in a:
                assert {"tool_version", "command", "seed",
                        "timestamp"} <= set(rec)
                assert rec["command"].startswith(argv[0])
                assert rec["seed"] == DEFAULT_SEED

    def test_one_writer_writes_every_record(self):
        # every record goes through _write_records, so the base fields and
        # any block added there reach every command
        from direx import cli

        tree = ast.parse(inspect.getsource(cli))
        writers = {
            fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for call in ast.walk(fn)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in ("RecordWriter", "base_record")}
        assert writers == {"_write_records"}

    def test_seed_changes_records(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("--output", str(p1), "--seed", "aa", "simulate", "--game",
                "ghz", "--device", "noisy", "--noise", "0.5", "--N", "300",
                "--q", "0.3", "--eta", "0.3", "--trials", "3")
        run_cli("--output", str(p2), "--seed", "bb", "simulate", "--game",
                "ghz", "--device", "noisy", "--noise", "0.5", "--N", "300",
                "--q", "0.3", "--eta", "0.3", "--trials", "3")
        a = [strip_volatile(r) for r in read_records(p1)]
        b = [strip_volatile(r) for r in read_records(p2)]
        assert a != b

    def test_one_seed_one_record_whatever_its_spelling(self, tmp_path):
        # records carry the parsed master seed, not the flag as typed
        records = []
        for i, seed in enumerate(("1", "01", "0x01")):
            p = tmp_path / f"s{i}.jsonl"
            assert run_cli("--output", str(p), "--seed", seed, "verify",
                           "--suite", "schatten", "--instances", "3") == EXIT_OK
            records.append([strip_volatile(r) for r in read_records(p)])
        assert records[0] and records[0] == records[1] == records[2]
        assert {r["seed"] for r in records[0]} == {"00" * 31 + "01"}

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIREX_OUTPUT_DIR", str(tmp_path))
        assert run_cli("verify", "--suite", "schatten",
                       "--instances", "5") == EXIT_OK
        assert (tmp_path / "verify.jsonl").exists()

    def test_csv_format(self, tmp_path):
        p = tmp_path / "out.csv"
        assert run_cli("--output", str(p), "--format", "csv", "verify",
                       "--suite", "schatten", "--instances", "5") == EXIT_OK
        text = p.read_text().splitlines()
        assert text[0].startswith("checked") or "checked" in text[0]
        assert len(text) == 2

    def test_csv_append_under_other_columns_refused(self, tmp_path, capsys):
        p = tmp_path / "mix.csv"
        assert run_cli("--format", "csv", "--output", str(p), "verify",
                       "--suite", "schatten", "--instances", "3") == EXIT_OK
        before = p.read_bytes()
        capsys.readouterr()
        assert run_cli("--format", "csv", "--output", str(p), "recon",
                       "--trials", "3") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--output" in err and "'checked'" in err and "'code'" in err
        assert p.read_bytes() == before

    def test_csv_append_same_command(self, tmp_path):
        p = tmp_path / "twice.csv"
        for _ in range(2):
            assert run_cli("--format", "csv", "--output", str(p), "verify",
                           "--suite", "schatten", "--instances", "3") == EXIT_OK
        rows = list(csv.reader(p.read_text().splitlines()))
        assert len(rows) == 3 and {len(r) for r in rows} == {len(rows[0])}

    def test_every_record_carries_config_snapshot(self, tmp_path):
        p = tmp_path / "r.jsonl"
        run_cli("--output", str(p), "simulate", "--game", "ghz", "--N", "200",
                "--q", "0.1", "--eta", "0.05", "--trials", "2")
        for rec in read_records(p):
            if rec["command"] == "simulate":
                assert {"N", "q", "eta", "seed"} <= set(rec)


class TestSimulate:
    def test_honest_zero_abort(self, capsys):
        assert run_cli("simulate", "--game", "ghz", "--device", "honest",
                       "--N", "500", "--q", "0.1", "--eta", "0.01",
                       "--trials", "5") == EXIT_OK
        assert "abort rate 0.0000" in capsys.readouterr().out

    def test_noisy_completeness_bound_uses_win_probability(self, tmp_path):
        # uniform noise p moves the CHSH win probability by p (w_G - 1/2)
        out = tmp_path / "sim.jsonl"
        assert run_cli("--output", str(out), "simulate", "--game", "chsh",
                       "--device", "noisy", "--noise", "0.04", "--N", "2000",
                       "--q", "0.25", "--eta", "0.05", "--trials", "2") == EXIT_OK
        summary = read_records(out)[-1]
        w = (1 + np.sqrt(2) / 2) / 2
        eta_prime = 0.04 * (w - 0.5)
        assert summary["completeness_bound"] == pytest.approx(
            np.exp(-((0.05 - eta_prime) ** 2) * 0.25 * 2000 / 3.0), rel=1e-12)

    def test_strict_abort_exit_code(self, tmp_path):
        # a device that always fails aborts every trial
        cfg = tmp_path / "dev.json"
        cfg.write_text(json.dumps({
            "variant": "adversarial", "n": 3,
            "table": {"0,0,0": [1, 0, 0], "0,1,1": [0, 0, 0],
                      "1,0,1": [0, 0, 0], "1,1,0": [0, 0, 0]}}))
        code = run_cli("--strict", "simulate", "--game", "ghz",
                       "--device-config", str(cfg), "--N", "200", "--q", "0.3",
                       "--eta", "0.01", "--trials", "2")
        assert code == EXIT_ABORT

    def test_game_file_needs_device_config(self, tmp_path, monkeypatch, capsys):
        # no built-in device plays a game given as a file; the command must
        # say so before the cold game analysis starts
        from direx import cli
        from direx.xorgames import game_to_record, ghz_game

        game = tmp_path / "game.json"
        game.write_text(json.dumps(game_to_record(ghz_game().relabel((1, 1, 0)))))

        def no_analysis(*args):
            raise AssertionError("game analysis started")
        monkeypatch.setattr(cli, "_resolve_constants", no_analysis)
        monkeypatch.setattr(cli, "_score", no_analysis)
        for argv in (("simulate", "--N", "100", "--q", "0.1", "--eta", "0.01"),
                     ("qkd", "--N", "100", "--q", "0.1"),
                     ("expand",)):
            assert run_cli(*argv, "--game", str(game),
                           "--device", "honest") == EXIT_USAGE
            assert "--device-config" in capsys.readouterr().err

    def test_adversary_config_with_workers(self, tmp_path):
        # the table adversary must reach worker processes intact
        cfg = tmp_path / "dev.json"
        cfg.write_text(json.dumps({
            "variant": "adversarial", "n": 3,
            "table": {"0,0,0": [1, 1, 0], "0,1,1": [0, 1, 1],
                      "2@1,0,1": [1, 1, 1], "1,1,0": [0, 0, 1]}}))
        records = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.jsonl"
            assert run_cli("--output", str(out), "--workers", workers,
                           "simulate", "--game", "ghz", "--device-config",
                           str(cfg), "--N", "200", "--q", "0.3",
                           "--eta", "0.4", "--trials", "4") == EXIT_OK
            records.append([strip_volatile(r) for r in read_records(out)])
        assert records[0] == records[1]
        assert {r["failures"] for r in records[0][:-1]} != {0}


    @pytest.mark.parametrize("workers, trials, cpus, size", [
        (5000, 2, 64, 2), (5000, 10, 3, 3), (4, 10, None, None)])
    def test_worker_pool_is_capped(self, tmp_path, monkeypatch, workers,
                                   trials, cpus, size):
        import concurrent.futures

        sizes = []

        class RecordingPool:
            """Records its size and runs the trials in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        records = []
        for w in (workers, 1):
            out = tmp_path / f"w{w}.jsonl"
            assert run_cli("--output", str(out), "--workers", str(w),
                           "simulate", "--N", "100", "--q", "0.1", "--eta",
                           "0.05", "--trials", str(trials)) == EXIT_OK
            records.append([strip_volatile(r) for r in read_records(out)])
        assert sizes == ([] if size is None else [size])
        assert records[0] == records[1]

    def test_dead_worker_names_the_flag(self, monkeypatch, capsys):
        from direx import protocols

        monkeypatch.setattr(protocols, "_run_trial", exit_in_worker)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert run_cli("--workers", "2", "simulate", "--N", "10", "--q", "0.1",
                       "--eta", "0.05", "--trials", "2") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--workers" in err

    @pytest.mark.parametrize("record, named", [
        ({"variant": "sneaky"}, "sneaky"),
        ({"variant": "adversarial", "n": 3}, "table"),
        ({"variant": "adversarial", "n": 3, "table": {"0,0,0": 1}}, "0,0,0"),
        ({"variant": "adversarial", "n": 3, "table": {"0,0,0": [1, 1]}},
         "not 3 bits"),
        ({"variant": "partially_trusted", "v": 0.6, "h": 0.2},
         "'partially_trusted'"),
        ({"variant": "adversarial", "n": [3], "table": {"0,0,0": [1, 1, 0]}},
         "'n'"),
        ({"variant": "noisy_honest", "p": "x"}, "'p'"),
        ({"variant": "noisy_honest", "p": 0.1, "fixed_outputs": 5},
         "'fixed_outputs'"),
        ({"variant": "honest", "device": [1]}, "[1]"),
        ({"variant": "noisy_honest", "p": 0.1, "mode": "fixed",
          "fixed_outputs": [-1] + [0] * 7}, "fixed_outputs"),
        ({"variant": "noisy_honest", "p": 0.1, "mode": "fixed",
          "fixed_outputs": [8] + [0] * 7}, "fixed_outputs"),
        ({"variant": "noisy_honest", "p": 0.1, "mode": "fixed",
          "fixed_outputs": [0.5] + [0] * 7}, "fixed_outputs"),
        ({"variant": "adversarial", "n": 3, "table": {"x@0,0,0": [1, 1, 0]}},
         "'x@0,0,0'"),
        ({"variant": "adversarial", "n": 3, "table": {"a,b": [1, 1, 0]}},
         "'a,b'"),
        ({"variant": "adversarial", "n": 3, "table": {"0,0,0": [0.5, 1, 0]}},
         "'0,0,0'"),
        ({"variant": "adversarial", "n": 3, "table": {"0,0,0": ["a", 1, 0]}},
         "'0,0,0'"),
        ({"variant": "adversarial", "n": 3, "table": {"0,0,0": [True, 1, 0]}},
         "'0,0,0'"),
        ({"variant": "adversarial", "n": 3, "table": {"0,0,0": [2, 1, 0]}},
         "'0,0,0'"),
        ({"variant": "adversarial", "n": 3, "table": {"0,0": [1, 1, 0]}},
         "'0,0'"),
        ({"variant": "adversarial", "n": 3, "table": {"0,0,2": [1, 1, 0]}},
         "'0,0,2'"),
        ({"variant": "adversarial", "n": 3, "table": {"-1@0,0,0": [1, 1, 0]}},
         "'-1@0,0,0'"),
    ])
    def test_bad_device_config_exits_with_message(self, tmp_path, capsys,
                                                  record, named):
        cfg = tmp_path / "dev.json"
        cfg.write_text(json.dumps(record))
        assert run_cli("simulate", "--device-config", str(cfg), "--N", "10",
                       "--q", "0.1", "--eta", "0.05") == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err


class TestVerify:
    def test_all_suites_clean(self):
        assert run_cli("verify", "--suite", "all", "--instances", "10") == EXIT_OK

    @pytest.mark.parametrize("suite, per_instance", [
        ("uncertainty", 3), ("schatten", 3), ("multishot", 1),
        ("partial-trust", 4), ("all", 11)])
    def test_checked_counts_every_check(self, tmp_path, suite, per_instance):
        out = tmp_path / "v.jsonl"
        assert run_cli("--output", str(out), "verify", "--suite", suite,
                       "--instances", "4") == EXIT_OK
        rec = read_records(out)[0]
        assert rec["checked"] == 4 * per_instance and rec["violations"] == 0

    def test_one_failed_check_is_one_violation(self, tmp_path, monkeypatch):
        calls = []

        def fail_second(inst, eps):
            calls.append(eps)
            res = uncertainty_check(inst, eps)
            return res if len(calls) != 2 else replace(res, holds=False)
        monkeypatch.setattr(protocols, "uncertainty_check", fail_second)
        out = tmp_path / "v.jsonl"
        assert run_cli("--output", str(out), "verify", "--suite", "all",
                       "--instances", "2") == EXIT_VIOLATION
        rec = read_records(out)[0]
        assert (rec["checked"], rec["violations"]) == (22, 1)

    def test_trust_pass(self):
        assert run_cli("trust", "--game", "ghz", "--c", "0.14", "--grid", "12",
                       "--samples", "500", "--multistarts", "2") == EXIT_OK

    def test_trust_record_states_what_it_checked(self, tmp_path):
        for game, flags, analytic in (("ghz", ("--c", "0.14"), 0),
                                      ("chsh", ("--c", "0.0"), None)):
            out = tmp_path / f"{game}.jsonl"
            assert run_cli("--output", str(out), "trust", "--game", game,
                           *flags, "--grid", "12", "--samples", "500",
                           "--multistarts", "2", "--check-seed", "5") == EXIT_OK
            rec = read_records(out)[0]
            assert rec["analytic_failures"] == analytic
            assert rec["sampling"] == {"grid": 12, "samples": 500,
                                       "multistarts": 2, "check_seed": 5}
            assert rec["samples"] == 12 ** (3 if game == "ghz" else 2) + 500

    def test_trust_tries_every_anticommuter(self, tmp_path):
        # the first sign pattern fails CHSH at c = 0.1; the corner-phase
        # member that trust_coefficient_search also tries passes
        out = tmp_path / "chsh.jsonl"
        assert run_cli("--output", str(out), "trust", "--game", "chsh",
                       "--c", "0.1", "--grid", "12", "--samples", "500",
                       "--multistarts", "2") == EXIT_OK
        rec = read_records(out)[0]
        assert rec["passed"] and rec["max_violation"] <= 0
        assert rec["anticommuter"]["member"] == 2
        assert rec["anticommuter"]["members"] == 4
        phases = np.array(rec["anticommuter"]["top_row_phases"])
        assert np.allclose(np.hypot(phases[:, 0], phases[:, 1]), 1.0)
        ghz = tmp_path / "ghz.jsonl"
        assert run_cli("--output", str(ghz), "trust", "--game", "ghz",
                       "--c", "0.14", "--grid", "12", "--samples", "500",
                       "--multistarts", "2") == EXIT_OK
        assert "anticommuter" not in read_records(ghz)[0]

    def test_trust_relabeled_three_player_game(self, tmp_path):
        # GHZ's own sign pattern fails GHZ relabeled by (1, 1, 0) at
        # c = 0.14 (violation 0.28); a later family member passes
        from direx.xorgames import game_to_record, ghz_game

        game = tmp_path / "game.json"
        game.write_text(json.dumps(game_to_record(ghz_game().relabel((1, 1, 0)))))
        out = tmp_path / "trust.jsonl"
        assert run_cli("--output", str(out), "trust", "--game", str(game),
                       "--c", "0.14", "--grid", "12", "--samples", "500",
                       "--multistarts", "2") == EXIT_OK
        rec = read_records(out)[0]
        assert rec["passed"] and rec["anticommuter"]["member"] == 1

    def test_trust_fail_exit_code(self):
        assert run_cli("trust", "--game", "ghz", "--c", "0.5", "--grid", "8",
                       "--samples", "200", "--multistarts", "1") == EXIT_VIOLATION


class TestUsage:
    @pytest.mark.parametrize("argv, named", [
        (("simulate", "--N", "100", "--q", "0.1", "--eta", "0.05",
          "--trials", "0"), "--trials"),
        (("simulate", "--N", "-5", "--q", "0.1", "--eta", "0.05"), "--N"),
        (("qkd", "--N", "0", "--q", "0.1"), "--N"),
        (("qkd", "--N", "2", "--q", "0.1"), "--N"),
        (("trust", "--c", "nan"), "--c"),
        (("trust", "--c", "inf"), "--c"),
        (("trust", "--c", "0.1", "--grid", "0", "--samples", "0"), "--grid"),
        (("trust", "--c", "0.1", "--grid", "-3"), "--grid"),
        (("trust", "--c", "0.1", "--samples", "-5"), "--samples"),
        (("trust", "--c", "0.1", "--multistarts", "-1"), "--multistarts"),
        (("--workers", "0", "simulate", "--N", "100", "--q", "0.1",
          "--eta", "0.05"), "--workers"),
        (("rate", "--eta", "-0.01"), "--eta"),
        (("rate", "--eta", "0.01", "--N", "-5"), "--N"),
        (("rate", "--eta", "0.01", "--q", "1.5"), "--q"),
        (("rate", "--eta", "0.01", "--kappa", "0"), "--kappa"),
        (("rate", "--eta", "0.01", "--epsilon-exp", "-1"), "--epsilon-exp"),
        (("verify", "--instances", "0"), "--instances"),
        (("verify", "--suite", "multishot", "--instances", "-3"), "--instances"),
        # more scoring entries than direx trust may hold
        (("trust", "--c", "0.1", "--samples", "1000000000"), "--samples"),
        (("trust", "--c", "0.1", "--grid", "5000"), "--grid"),
        (("trust", "--c", "0.1", "--check-seed", "-1"), "--check-seed"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_bad_input_names_the_flag(self, monkeypatch, capsys, argv, named):
        from direx import cli

        def no_analysis(name):
            raise AssertionError("game analysis started")
        monkeypatch.setattr(cli, "_resolve_constants", no_analysis)
        assert run_cli(*argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("command, flag, value", [
        (command, flag, value)
        for command, flags in (
            ("rate", ("--q", "--eta", "--kappa", "--epsilon-exp")),
            ("simulate", ("--q", "--eta", "--noise")),
            ("qkd", ("--q", "--eta", "--kappa", "--noise", "--epsilon-exp")),
            ("expand", ("--q", "--eta", "--kappa", "--noise", "--epsilon-exp")))
        for flag in flags
        for value in {"--q": ("1.5", "nan"), "--eta": ("0.9", "nan"),
                      "--kappa": ("-1", "inf"), "--noise": ("2", "nan"),
                      "--epsilon-exp": ("-3", "inf")}[flag]
    ])
    def test_protocol_flag_is_named(self, monkeypatch, capsys, command, flag,
                                    value):
        # rate, simulate, qkd and expand share one check of these flags
        from direx import cli

        def no_analysis(name):
            raise AssertionError("game analysis started")
        monkeypatch.setattr(cli, "_resolve_constants", no_analysis)
        required = {"rate": ("--eta", "0.01"),
                    "simulate": ("--N", "100", "--q", "0.1", "--eta", "0.05"),
                    "qkd": ("--N", "15", "--q", "0.1"),
                    "expand": ()}[command]
        assert run_cli(command, *required, flag, value) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ")

    @pytest.mark.parametrize("seed", ["zz", "1" * 65])
    @pytest.mark.parametrize("argv", [
        ("rate", "--eta", "0.01"),
        ("simulate", "--N", "100", "--q", "0.1", "--eta", "0.05"),
        ("trust", "--c", "0.14"),
        ("qkd", "--N", "15", "--q", "0.1"),
        ("expand",), ("recon",), ("verify",)])
    def test_bad_seed_names_the_flag(self, monkeypatch, capsys, seed, argv):
        # not hex, and one digit past 256 bits
        from direx import cli

        def no_analysis(name):
            raise AssertionError("game analysis started")
        monkeypatch.setattr(cli, "_resolve_constants", no_analysis)
        assert run_cli("--seed", seed, *argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --seed ") and repr(seed) in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--N", "100", "--q", "1e-320", "--eta", "0.01"),
        ("simulate", "--N", "100", "--q", "2.2e-308", "--eta", "0.01"),
        ("qkd", "--N", "1000", "--q", "1e-320")])
    def test_test_probability_past_the_decoder(self, capsys, argv):
        # the g-bit table's denominator must fit a float
        assert run_cli(*argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: weights") and "Traceback" not in err

    def test_tiny_test_probability_runs(self):
        assert run_cli("simulate", "--N", "100", "--q", "1e-300",
                       "--eta", "0.01") == EXIT_OK

    def test_unknown_command(self):
        assert run_cli("frobnicate") == EXIT_USAGE

    def test_missing_required(self):
        assert run_cli("rate") == EXIT_USAGE

    def test_parser_builds(self):
        assert build_parser() is not None


def _stated_interval(text):
    """(low, low closed, high, high closed) as a DOMAINS text states it."""
    m = re.match(r"must lie in ([\[(])([^,]+), ([^)\]]+)([)\]])", text)
    if m:
        return (float(Fraction(m[2])), m[1] == "[", float(Fraction(m[3])),
                m[4] == "]")
    return {"must be positive and finite": (0.0, False, np.inf, False),
            "must be finite and nonnegative": (0.0, True, np.inf, False),
            "must be finite and at least 1": (1.0, True, np.inf, False),
            "must be finite and at least 2": (2.0, True, np.inf, False)}[text]


class TestDomainTable:
    @pytest.mark.parametrize("quantity", sorted(DOMAINS))
    def test_entry_matches_its_text(self, quantity):
        inside, text = DOMAINS[quantity]
        lo, lo_closed, hi, hi_closed = _stated_interval(text)
        for x in (np.nan, np.inf, -np.inf, 10**400, -10**400):
            assert not inside(x)
        for end, closed, into in ((lo, lo_closed, np.inf),
                                  (hi, hi_closed, -np.inf)):
            if np.isfinite(end):
                assert inside(end) == closed
                assert inside(np.nextafter(end, into))
                assert not inside(np.nextafter(end, -into))
        assert inside(1e308) == (hi == np.inf)
        # elementwise on arrays
        mid = lo + 1 if hi == np.inf else (lo + hi) / 2
        assert inside(np.array([mid, np.nan, mid])).tolist() == [True, False,
                                                                 True]

    def test_message_names_the_caller_and_the_first_value_outside(self):
        with pytest.raises(ValueError,
                           match=r"^--q must lie in \(0, 1\), got 1\.5$"):
            check_domain("--q", np.array([0.5, 1.5, 2.0]), "q")
        with pytest.raises(ValueError, match=r"^trials must be finite and at "
                                             r"least 1, got 0$"):
            check_domain("trials", 0, "count")
        check_domain("q", Fraction(1, 3), "q")


# command -> fixed flags, and every numeric flag's valid value (its type is
# the flag's type) and its DOMAINS quantity; --workers is global
CONTRACT = {
    "rate": ((), {"--eta": (0.01, "eta"), "--N": (1000, "nonnegative"),
                  "--q": (0.1, "q"), "--kappa": (1.0, "kappa"),
                  "--epsilon-exp": (20.0, "epsilon_exp")}),
    "simulate": (("--device", "noisy"), {
        "--N": (200, "nonnegative"), "--q": (0.25, "q"), "--eta": (0.05, "eta"),
        "--trials": (2, "count"), "--noise": (0.01, "probability")}),
    "trust": ((), {"--c": (0.14, "nonnegative"), "--grid": (4, "nonnegative"),
                   "--samples": (50, "nonnegative"),
                   "--multistarts": (1, "nonnegative"),
                   "--check-seed": (0, "nonnegative")}),
    "qkd": ((), {"--N": (15, "nonnegative"), "--q": (0.2, "q"),
                 "--eta": (0.001, "eta"), "--kappa": (2.64, "kappa"),
                 "--epsilon-exp": (2.0, "epsilon_exp"),
                 "--noise": (0.0, "probability")}),
    "expand": ((), {"--stage-rounds": (10000, "count"),
                    "--stage-bits": (64, "count"), "--q": (0.5, "q"),
                    "--eta": (0.002, "eta"), "--kappa": (2.6, "kappa"),
                    "--epsilon-exp": (20.0, "epsilon_exp"),
                    "--noise": (0.0, "probability")}),
    "recon": (("--regime", "list"), {
        "--N": (12, "nonnegative"), "--lam": (0.1, "eta"),
        "--error-fraction": (0.1, "probability"),
        "--eps-exp": (10.0, "eps_exp"), "--trials": (2, "count")}),
    "verify": ((), {"--instances": (1, "count")}),
}
# 10**400 is an integer past the largest float
EDGE_VALUES = ["nan", "inf", "-inf", "0", "-1", "-0.5", "-1e308", "5e-324",
               "1e308", "1" + "0" * 400]


class TestExitContract:
    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from([(command, flag)
                                 for command, (_, flags) in CONTRACT.items()
                                 for flag in ("--workers", *flags)]),
           value=st.sampled_from(EDGE_VALUES))
    def test_edge_value_keeps_the_exit_contract(self, case, value):
        command, flag = case
        fixed, flags = CONTRACT[command]
        given_values = {"--workers": (1, "count"), **flags}
        argv = [part for f, (x, _) in given_values.items()
                for part in (f, value if f == flag else str(x))]
        argv[2:2] = [command, *fixed]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, EXIT_ABORT)
        valid, quantity = given_values[flag]
        parses = not isinstance(valid, int) or re.fullmatch(r"-?\d+", value)
        if not (parses and DOMAINS[quantity][0](float(value))):
            assert code == EXIT_USAGE
            assert re.search(re.escape(flag) + r"(?![\w-])", err.getvalue())


class TestQkdCommand:
    def test_small_run(self, capsys):
        assert run_cli("qkd", "--game", "ghz", "--N", "1000",
                       "--q", "0.05") == EXIT_OK
        assert "keys match: True" in capsys.readouterr().out

    def test_chsh_runs_to_an_outcome(self, tmp_path, capsys):
        # lam must sit below w_G - 1/2 ~ 0.354; the Hamming code backs only
        # one error, so the honest CHSH run aborts at reconciliation
        out = tmp_path / "qkd.jsonl"
        assert run_cli("--output", str(out), "qkd", "--game", "chsh",
                       "--N", "500", "--q", "0.1", "--eta", "0.05") == EXIT_OK
        assert "aborted at: reconciliation" in capsys.readouterr().out
        rec = read_records(out)[0]
        assert rec["success"] is False and rec["leaked_bits"] == 0

    def test_eta_outside_certification_domain(self, tmp_path, capsys):
        # eta >= v_G/2: the keys still agree, but there is no bound to report
        out = tmp_path / "qkd.jsonl"
        assert run_cli("--output", str(out), "qkd", "--game", "ghz",
                       "--N", "2000", "--q", "0.1", "--eta", "0.1") == EXIT_OK
        printed = capsys.readouterr().out
        assert "success; keys match: True" in printed
        assert "leaked 11 bits" in printed
        assert "no certified bound (eta outside (0, v_G/2))" in printed
        rec = read_records(out)[0]
        assert rec["success"] is True and rec["certified_bits"] == 0.0


class TestReconCommand:
    def test_unique_trials(self, capsys):
        assert run_cli("recon", "--regime", "unique", "--N", "15",
                       "--error-fraction", "0.15", "--trials", "50") == EXIT_OK
        assert "50/50 recovered" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, named", [
        (("--regime", "unique", "--N", "20"), "--N"),
        (("--N", "0"), "--N"),
        (("--regime", "list", "--N", "30"), "--N"),
        (("--regime", "list", "--N", "0"), "--N"),
        (("--regime", "list", "--N", "12", "--lam", "0.5"), "--lam"),
        (("--error-fraction", "2"), "--error-fraction"),
        (("--error-fraction", "-0.5"), "--error-fraction"),
        (("--trials", "0"), "--trials"),
        (("--regime", "list", "--N", "20", "--eps-exp", "nan"), "--eps-exp"),
        (("--regime", "list", "--N", "20", "--eps-exp", "-2000"), "--eps-exp"),
        (("--regime", "list", "--N", "20", "--eps-exp", "-0.5"), "--eps-exp"),
        (("--regime", "list", "--N", "20", "--eps-exp", "2000"), "--eps-exp"),
        (("--regime", "list", "--N", "20", "--eps-exp", "1050"), "--eps-exp"),
        (("--regime", "unique", "--lam", "0.1"), "--lam"),
    ])
    def test_bad_input_names_the_flag(self, capsys, argv, named):
        assert run_cli("recon", "--trials", "3", *argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_interleaved_length_runs(self, capsys):
        # the promise must fit the interleaved code's own radius
        assert run_cli("recon", "--regime", "unique", "--N", "45",
                       "--error-fraction", "0.05", "--trials", "20") == EXIT_OK
        assert "20/20 recovered (code bch-15-5-x3" in capsys.readouterr().out


class TestExpandCommand:
    def test_stage_abort_is_reported(self, tmp_path, capsys):
        argv = ("expand", "--device", "noisy", "--noise", "0.5",
                "--stage-rounds", "10000", "11000", "--stage-bits", "64", "256")
        assert run_cli(*argv) == EXIT_OK
        assert "aborted at stage 0: 1237 failures" in capsys.readouterr().out
        assert run_cli("--strict", *argv) == EXIT_ABORT

    @pytest.mark.parametrize("flag", ["--q", "--kappa"])
    def test_zero_rate_parameter_is_a_usage_error(self, capsys, flag):
        assert run_cli("expand", flag, "0", "--stage-rounds", "1000",
                       "--stage-bits", "1") == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_infeasible_plan_is_a_usage_error(self, capsys):
        assert run_cli("expand", "--stage-rounds", "100",
                       "--stage-bits", "64") == EXIT_USAGE
        assert "exceeds the hashing budget" in capsys.readouterr().err

    def test_huge_negative_budget_prints_in_exponent_form(self, capsys):
        assert run_cli("expand", "--q", "1e-300") == EXIT_USAGE
        err = capsys.readouterr().err
        assert re.search(r"exceeds the hashing budget -\d\.\d+e\+\d+$",
                         err.strip())
        assert len(err) < 200

    def test_stage_lists_must_align(self, monkeypatch, capsys):
        from direx import cli

        def no_analysis(name):
            raise AssertionError("game analysis started")
        monkeypatch.setattr(cli, "_resolve_constants", no_analysis)
        assert run_cli("expand", "--stage-rounds", "10000", "11000",
                       "--stage-bits", "64") == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--stage-rounds" in err and "--stage-bits" in err

    @pytest.mark.parametrize("flag, rounds, bits", [
        ("--stage-bits", ["10000"], ["-3"]),
        ("--stage-bits", ["10000", "11000"], ["64", "0"]),
        ("--stage-rounds", ["0"], ["64"]),
        ("--stage-rounds", ["10000", "-1"], ["64", "256"]),
    ])
    def test_empty_stage_names_the_flag(self, monkeypatch, capsys, flag,
                                        rounds, bits):
        from direx import cli

        def no_analysis(name):
            raise AssertionError("game analysis started")
        monkeypatch.setattr(cli, "_resolve_constants", no_analysis)
        assert run_cli("expand", "--stage-rounds", *rounds,
                       "--stage-bits", *bits) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err


def _game_file(path, game=None):
    """Write a game record to path (a relabelled GHZ game by default)."""
    from direx.xorgames import game_to_record, ghz_game

    path.write_text(json.dumps(game_to_record(
        ghz_game().relabel((1, 1, 0)) if game is None else game)))
    return path


# a three-component table that answers from every input: it signals
SIGNALLING = {"variant": "adversarial", "n": 3,
              "table": {"0,0,0": [1, 1, 0], "0,1,1": [0, 1, 1],
                        "2@1,0,1": [1, 1, 1], "1,1,0": [0, 0, 1]}}


class TestGameFileAnalysis:
    """simulate reads only w_G = (1 + q_G)/2 and trust only q_G, so a game
    file costs them optimal_score and no trust search or classification."""

    def test_simulate_and_trust_skip_the_trust_search(self, tmp_path,
                                                      monkeypatch):
        from direx import xorgames

        def refuse(*args, **kwargs):
            raise AssertionError("trust analysis started")
        monkeypatch.setattr(xorgames, "trust_coefficient_search", refuse)
        monkeypatch.setattr(xorgames, "classify_selftest", refuse)
        game = _game_file(tmp_path / "game.json")
        cfg = tmp_path / "dev.json"
        cfg.write_text(json.dumps(SIGNALLING))
        assert run_cli("simulate", "--game", str(game), "--device-config",
                       str(cfg), "--N", "200", "--q", "0.3", "--eta", "0.4",
                       "--trials", "2") == EXIT_OK
        assert run_cli("trust", "--game", str(game), "--c", "0.1", "--grid",
                       "6", "--samples", "100", "--multistarts", "1") == EXIT_OK

    def test_simulate_runs_a_game_that_is_no_self_test(self, tmp_path):
        # every input scores +1, so a classical strategy wins: q_G = 1, and
        # the trust search refuses the game
        from direx.xorgames import XorGame, classify_selftest, optimal_score

        flat = XorGame.from_support(2, [(bits, "1/4", 1)
                                        for bits in ("00", "01", "10", "11")])
        assert optimal_score(flat)[0] == pytest.approx(1.0)
        assert classify_selftest(flat) != "strong-self-test"
        game = _game_file(tmp_path / "flat.json", flat)
        cfg = tmp_path / "dev.json"
        cfg.write_text(json.dumps({"variant": "adversarial", "n": 2, "table": {
            f"{a},{b}": [0, 0] for a in (0, 1) for b in (0, 1)}}))
        out = tmp_path / "sim.jsonl"
        assert run_cli("--output", str(out), "simulate", "--game", str(game),
                       "--device-config", str(cfg), "--N", "300", "--q", "0.3",
                       "--eta", "0.05", "--trials", "3") == EXIT_OK
        records = read_records(out)
        assert [r["failures"] for r in records[:-1]] == [0, 0, 0]
        assert records[-1]["aborts"] == 0

    def test_inexact_probabilities_refused_at_load(self, tmp_path, capsys):
        # three decimal thirds sum to 0.9999999999999999, which the input
        # decoder cannot draw from; the game file is refused by name
        game = tmp_path / "thirds.json"
        game.write_text(json.dumps({"n": 2, "support": [
            {"input": bits, "p": "0.3333333333333333", "eta": 1}
            for bits in ("00", "01", "10")]}))
        for argv in (("rate", "--eta", "0.01"),
                     ("trust", "--c", "0.1", "--grid", "4"),
                     ("simulate", "--device-config", "none.json", "--N", "10",
                      "--q", "0.5", "--eta", "0.1")):
            assert run_cli(argv[0], "--game", str(game), *argv[1:]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert str(game) in err
            assert "9999999999999999/10000000000000000" in err
            assert '"1/3"' in err


class TestSimulatedDeviceRecord:
    def test_device_config_record_names_its_variant(self, tmp_path):
        # --device noisy --noise 0 does not describe a --device-config
        # device, so neither the records nor the bound may come from them
        cfg = tmp_path / "dev.json"
        cfg.write_text(json.dumps(SIGNALLING))
        out = tmp_path / "sim.jsonl"
        assert run_cli("--output", str(out), "simulate", "--device", "noisy",
                       "--noise", "0", "--device-config", str(cfg), "--N",
                       "2000", "--q", "0.25", "--eta", "0.05",
                       "--trials", "2") == EXIT_OK
        *trials, summary = read_records(out)
        assert {r["device"] for r in trials} == {"adversarial"}
        assert summary["completeness_bound"] is None
        assert summary["bound_exceeded"] is False


def _records_digest(records) -> str:
    return hashlib.sha256(
        json.dumps(records, sort_keys=True).encode()).hexdigest()


class TestRecordDigests:
    """Each command's records, timestamp removed, pinned as a sha256 digest
    at small sizes on the built-in games and one game file (recorded by its
    file name, since its directory varies).  Same seeds and flags must keep
    giving byte-identical records.

    The digests were taken before simulate learned to record the device
    that played; only the --device-config simulate records ("device"
    "adversarial" where they said "honest") differ from those."""

    CASES = {
        "rate": ("rate --eta 0.01 --N 10000",
                 "5225c3e80ea4cf80b164bf5c4f72f4bb1e3934ba73f9dbc4bb22d6fba33437e8"),
        "rate-chsh": ("rate --game chsh --eta 0.005 --N 100000 --q 0.01 --kappa 1",
                      "5a30b6042a4235d0f86c75d0fe9e66ef21ddf7128a74951c07588af94877a946"),
        "simulate": ("simulate --N 300 --q 0.1 --eta 0.05 --trials 3",
                     "c361e0a4fba6829e018b85987baaa373644b05891b3c386430935c7c69aae89b"),
        "simulate-noisy": ("simulate --game chsh --device noisy --noise 0.04 "
                           "--N 2000 --q 0.25 --eta 0.05 --trials 2",
                           "23c225f62c3576f0a8ee0e874adc6e0ff3f379d2b56a9718fe6d6c408ae62b8b"),
        "simulate-config": ("simulate --device-config {device} --N 200 --q 0.3 "
                            "--eta 0.4 --trials 4",
                            "7e4c802c16339934636db5280e7bd7103005efb1e50a06ee0c2495c0e89f257e"),
        "trust": ("trust --c 0.14 --grid 6 --samples 100 --multistarts 1",
                  "a243a138cc95ffbedec0228a184cbcb02fc00e7abf0e1b674b9cfd2212d24e90"),
        "trust-chsh": ("trust --game chsh --c 0.1 --grid 8 --samples 200 "
                       "--multistarts 2",
                       "3b6eeac072988dbccb03c34c397b1bbb6782c0a61c7d5fd75fe38dad19e4e635"),
        "trust-file": ("trust --game {game} --c 0.1 --grid 6 --samples 100 "
                       "--multistarts 1",
                       "e66dd41d5115be51d8448e16d30ea41daa907ecb72580dcf61baf36b7e5776d3"),
        "qkd": ("qkd --N 1000 --q 0.1",
                "027a56180200b6968b493b387174da5ff321be3263cf50958876138976e6b409"),
        "qkd-certified": ("qkd --N 10000 --q 0.05",
                          "73e971a221e352d83b51f49b93375306679a8ff1a7e400a7fe92777f8b1f9742"),
        "expand": ("expand --stage-rounds 10000 --stage-bits 64",
                   "599ac80858ed43e351373e380338ee034b61296e4c72dcb6f457310820f27873"),
        "recon": ("recon --trials 20",
                  "0536eb5add88e202f085e5a80e8c663cbedeffec219d176a13ff12a1a35abda8"),
        "recon-list": ("recon --regime list --N 12 --trials 5",
                       "48746d1a2e8237ab464742a08eea5aad4b714f99b575b6c26813870c3657f8a5"),
        "verify": ("verify --instances 3",
                   "bfd58441618808d42fbc9b6bbc269ee0418691404cb18a9c6c04daa3b8e2d2ca"),
    }

    @staticmethod
    def records(tmp_path, argv: str) -> list:
        """The records of one run of argv, timestamps removed and the game
        file given by its name."""
        device = tmp_path / "device.json"
        device.write_text(json.dumps(SIGNALLING))
        game = _game_file(tmp_path / "game.json")
        out = tmp_path / "records.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("--output", str(out), *argv.format(
                device=device, game=game).split()) == EXIT_OK
        records = [strip_volatile(r) for r in read_records(out)]
        for rec in records:
            if rec.get("game") == str(game):
                rec["game"] = game.name
        return records

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_records(self, tmp_path, name):
        argv, digest = self.CASES[name]
        assert _records_digest(self.records(tmp_path, argv)) == digest
