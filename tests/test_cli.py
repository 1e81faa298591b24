"""Command line behavior: outputs, exit codes, files, environment cap."""

import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from macq import (
    GameConfig,
    StationSet,
    TREE_SPLIT,
    build_tree,
    export_graph,
    game_result_to_doc,
    generate_report,
    report_to_csv,
    run_fixed,
)
from macq.cli import dispatch

S = StationSet.from_ids
ROOT = Path(__file__).resolve().parents[1]

# Stdout sha256 of fixed commands, recorded by bench/record_digests.py.
DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_fixed_live(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--strategy", "tree", "--n", "4", "--d", "2", "--live", "1,3"
    )
    assert code == 0 and err == ""
    expected = game_result_to_doc(run_fixed(TREE_SPLIT, GameConfig(4, 2), S([1, 3])))
    assert json.loads(out) == expected
    assert out.endswith("\n")


def test_simulate_greedy_adversary(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--strategy", "linear", "--n", "3", "--d", "1",
        "--adversary", "greedy",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds_used"] == 3
    assert doc["witness_live"] == [3]
    assert doc["completed"] is True


def test_simulate_exact_adversary(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--strategy", "tree", "--n", "3", "--d", "2",
        "--adversary", "exact",
    )
    assert code == 0
    assert json.loads(out)["rounds_used"] == 5


def test_simulate_live_and_adversary_conflict(capsys):
    code, _, err = run_cli(
        capsys, "simulate", "--strategy", "tree", "--n", "3", "--d", "1",
        "--live", "1", "--adversary", "greedy",
    )
    assert code == 2
    assert "not allowed" in err


def test_worst_case_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "worst-case", "--strategy", "linear", "--n", "4", "--d", "1")
    assert code == 0
    assert out == "rounds=4 witness={4}\n"
    code, out, _ = run_cli(
        capsys, "worst-case", "--strategy", "linear", "--n", "4", "--d", "1",
        "--format", "json-lines",
    )
    assert code == 0
    assert json.loads(out) == {
        "n": 4, "d": 1, "strategy": "linear", "rounds": 4, "witness": [4],
    }


def test_tree_export_matches_library(capsys):
    code, out, _ = run_cli(capsys, "tree", "--strategy", "tree", "--n", "2", "--d", "1")
    assert code == 0
    assert out == export_graph(build_tree(TREE_SPLIT, GameConfig(2, 1)))


def test_tree_check_reports_normal_form(capsys):
    code, out, _ = run_cli(
        capsys, "tree", "--strategy", "tree", "--n", "3", "--d", "2", "--normalize", "--check"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["property_holds"] is True
    assert doc["leaf_count"] == 3
    assert doc["black_per_path"] == [2, 2, 2]


def test_bounds_csv_and_json(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "8", "--d", "2")
    assert code == 0
    assert out == (
        "n,d,info_lb,claimed_factorial,claimed_power,claimed_analytic\n"
        "8,2,3,4,3,1\n"
    )
    code, out, _ = run_cli(capsys, "bounds", "--n", "8", "--d", "2", "--format", "json-lines")
    assert code == 0
    assert json.loads(out) == {
        "n": 8, "d": 2, "info_lb": 3, "claimed_factorial": 4,
        "claimed_power": 3, "claimed_analytic": 1,
    }


def test_oracle_value_and_witness(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--d", "2")
    assert code == 0
    assert out == "3\n"
    code, out, _ = run_cli(capsys, "oracle", "--n", "3", "--d", "2", "--witness")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3"
    assert lines[1].startswith("node 0 query=")
    assert sum(1 for line in lines if line.startswith("leaf")) == 3


def test_oracle_cap_failure_exit_code(capsys):
    code, out, err = run_cli(capsys, "oracle", "--n", "7", "--d", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: BudgetExceeded:")


def test_oracle_cap_override(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--n", "7", "--d", "1", "--oracle-n-cap", "7")
    assert code == 0
    assert out == "1\n"


def test_report_matches_library(capsys):
    code, out, _ = run_cli(capsys, "report", "--n-max", "4", "--d-max", "2")
    assert code == 0
    assert out == report_to_csv(generate_report(4, 2))


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "bounds.csv"
    code, out, _ = run_cli(
        capsys, "bounds", "--n", "4", "--d", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("n,d,info_lb,")


def test_out_to_missing_directory_is_a_runtime_error(capsys, tmp_path):
    target = tmp_path / "missing" / "bounds.csv"
    code, out, err = run_cli(capsys, "bounds", "--n", "4", "--d", "2", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("error: FileNotFoundError:")
    assert not target.exists()


def test_too_deep_strategy_walk_is_a_runtime_error(capsys, monkeypatch):
    monkeypatch.setenv("MACQ_MAX_N", "2000")
    code, out, err = run_cli(
        capsys, "worst-case", "--strategy", "linear", "--n", "2000", "--d", "1"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: RecursionError:")


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--n", "3", "--d", "1", "--oracle-n-cap", "-1"),
        ("oracle", "--n", "3", "--d", "1", "--oracle-d-cap", "0"),
        ("report", "--n-max", "2", "--oracle-n-cap", "0"),
        ("report", "--n-max", "2", "--oracle-d-cap", "-3"),
        ("oracle", "--n", "3", "--d", "1", "--oracle-n-cap", "0"),
        ("oracle", "--n", "3", "--d", "1", "--oracle-d-cap", "-2"),
        ("report", "--n-max", "2", "--oracle-n-cap", "x"),
    ],
)
def test_non_positive_caps_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "positive integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--strategy", "tree", "--n", "3", "--d", "1", "--live", "1",
         "--round-cap", "3"),
        ("worst-case", "--strategy", "linear", "--n", "3", "--d", "1", "--round-cap", "3"),
        ("worst-case", "--strategy", "linear", "--n", "3", "--d", "1", "--budget", "5"),
    ],
)
def test_round_cap_and_budget_are_not_options(capsys, argv):
    # Both limits are fixed: 4n + 16 rounds and 10**6 candidate live sets.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys)[0] == 2  # missing subcommand
    assert run_cli(capsys, "simulate", "--strategy", "tree", "--n", "2", "--d", "1")[0] == 2
    code, _, err = run_cli(
        capsys, "simulate", "--strategy", "bogus", "--n", "2", "--d", "1", "--live", "1"
    )
    assert code == 2
    assert "linear" in err and "tree" in err


@pytest.mark.parametrize("bad_live", ["2,1", "0", "a,b", "", "1,,1", "1,,3", "1,3,"])
def test_malformed_live_set_exits_2(capsys, bad_live):
    code, _, err = run_cli(
        capsys, "simulate", "--strategy", "tree", "--n", "4", "--d", "2", "--live", bad_live
    )
    assert code == 2
    assert "--live" in err


def test_domain_errors_exit_1(capsys):
    # |live| != d is a runtime error, not a usage error.
    code, _, err = run_cli(
        capsys, "simulate", "--strategy", "tree", "--n", "4", "--d", "2", "--live", "1"
    )
    assert code == 1
    assert err.startswith("error: DomainError:")


def test_station_cap_env_raises_limit(capsys, monkeypatch):
    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    code, _, err = run_cli(
        capsys, "simulate", "--strategy", "linear", "--n", "99", "--d", "1", "--live", "5"
    )
    assert code == 1 and "MACQ_MAX_N" in err
    code, _, err = run_cli(capsys, "bounds", "--n", "99", "--d", "1")
    assert code == 1 and "MACQ_MAX_N" in err
    monkeypatch.setenv("MACQ_MAX_N", "abc")
    code, out, err = run_cli(capsys, "bounds", "--n", "8", "--d", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: DomainError: MACQ_MAX_N must be an integer")
    monkeypatch.setenv("MACQ_MAX_N", "128")
    code, out, _ = run_cli(
        capsys, "simulate", "--strategy", "linear", "--n", "99", "--d", "1", "--live", "5"
    )
    assert code == 0
    assert json.loads(out)["rounds_used"] == 5


@pytest.mark.parametrize(
    # Raised-cap oracle cells are left to the benchmark: they take seconds each.
    "command", [command for command in sorted(DIGESTS) if "--oracle-n-cap" not in command]
)
def test_recorded_command_stdout_is_byte_identical(capsys, monkeypatch, command):
    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[command]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "macq", "oracle", "--n", "3", "--d", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


@pytest.mark.parametrize("code", [
    "import macq.cli",
    "from macq.cli import dispatch; dispatch(['bounds', '--n', '8', '--d', '2'])",
], ids=["import", "bounds"])
def test_commands_do_not_import_mpmath(code):
    # mpmath is only the tests' reference for the analytic threshold;
    # importing it would add tens of milliseconds to every command.
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}; import sys; print('mpmath' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_bench_trace_mode_still_wraps_every_hot_function(tmp_path):
    # The trace mode finds each function it times by module and name, so a
    # function moved or renamed in the package breaks it.
    script = ROOT / "bench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("trace_child_names", script)
    names = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(names)
    out = tmp_path / "trace.json"
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(script), str(out),
         "simulate", "--strategy", "tree", "--n", "6", "--d", "3", "--adversary", "exact"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(json.loads(out.read_text(encoding="utf-8"))["hot"]) == sorted(names.HOT)


def test_ctrl_c_prints_one_error_line_and_exits_130():
    # (12,4) runs for minutes, so the signal lands inside the solve.
    proc = subprocess.Popen(
        [sys.executable, "-m", "macq", "oracle", "--n", "12", "--d", "4",
         "--oracle-n-cap", "12", "--oracle-d-cap", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        time.sleep(2.0)  # past start-up, which takes a small fraction of that
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 130
    assert out == ""
    assert err.startswith("error: Interrupted: ") and err.count("\n") == 1
    assert "Traceback" not in err
