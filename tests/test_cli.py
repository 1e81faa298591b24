"""Command line behavior: outputs, exit codes, files, environment cap."""

import gc
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
from hypothesis import given, settings
from hypothesis import strategies as st

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
from macq import cli
from macq.cli import dispatch

S = StationSet.from_ids
ROOT = Path(__file__).resolve().parents[1]

# Stdout sha256 of fixed commands, recorded by bench/record_digests.py.
DIGESTS = json.loads((ROOT / "bench" / "digests.json").read_text(encoding="utf-8"))


def child_env():
    """The environment with ``src`` first on PYTHONPATH, so that a child
    process imports this checkout's ``macq`` without an install."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


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


def test_out_ending_in_a_separator_is_a_runtime_error(capsys, tmp_path):
    # The path is opened as given: a trailing separator names a directory,
    # not a file to create.
    target = tmp_path / "new"
    code, out, err = run_cli(capsys, "bounds", "--n", "4", "--d", "2", "--out", f"{target}{os.sep}")
    assert code == 1 and out == ""
    assert err.startswith("error: IsADirectoryError:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("bad_live", ["2,1", "0", "a,b", "", "1,,1", "1,,3", "1,3,",
                                      "+1,2", "1_0,2", " 1,2", "\u0661,\u0663", "1,\uff13"])
def test_malformed_live_set_exits_2(capsys, bad_live):
    code, _, err = run_cli(
        capsys, "simulate", "--strategy", "tree", "--n", "4", "--d", "2", "--live", bad_live
    )
    assert code == 2
    assert "--live" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--n", "1_0", "--d", "2"),
    ("bounds", "--n", "10", "--d", " 2"),
    ("report", "--n-max", "+4"),
    ("report", "--n-max", "4", "--d-max", "-"),
    ("bounds", "--n", "8", "--d", "\uff12"),
    ("report", "--n-max", "\u0664", "--d-max", "2"),
    ("oracle", "--n", "3", "--d", "2", "--oracle-n-cap", "\uff13"),
])
def test_integer_options_take_only_decimal_digits(capsys, argv):
    # int() would read the first three as 10, 2 and 4, and the last three,
    # written in other scripts' digits, as 2, 4 and 3.
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    cap_option = any(arg.endswith("-cap") for arg in argv)
    assert ("expected a positive integer" if cap_option else "expected an integer") in err


# int() refuses more digits than sys.get_int_max_str_digits() allows with a
# ValueError, which would be a traceback or argparse's "invalid <function>
# value"; the package's integer syntax refuses them first.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = "9" * (INT_DIGITS + 1)
converts_any_length = pytest.mark.skipif(not INT_DIGITS, reason="int() converts any number of digits")


@converts_any_length
def test_station_cap_env_beyond_int_digits_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setenv("MACQ_MAX_N", TOO_LONG)
    code, out, err = run_cli(capsys, "bounds", "--n", "8", "--d", "2")
    assert code == 1 and out == ""
    # The echoed value is cut short: its first 40 characters and its length.
    assert err == (f"error: DomainError: MACQ_MAX_N must be an integer, "
                   f"got {TOO_LONG[:40]!r}... ({len(TOO_LONG)} characters)\n")


@converts_any_length
@pytest.mark.parametrize("argv, message", [
    (("bounds", "--n", TOO_LONG, "--d", "2"), "argument --n: expected an integer"),
    (("bounds", "--n", "-" + TOO_LONG, "--d", "2"), "argument --n: expected an integer"),
    (("oracle", "--n", "3", "--d", "2", "--oracle-n-cap", TOO_LONG),
     "argument --oracle-n-cap: expected a positive integer"),
    (("simulate", "--strategy", "tree", "--n", "3", "--d", "2", "--live", f"1,{TOO_LONG}"),
     "argument --live: live set must be comma-separated ids"),
], ids=["n", "negative-n", "oracle-n-cap", "live"])
def test_options_beyond_int_digits_get_the_cli_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err and "invalid" not in err
    assert max(map(len, err.splitlines())) < 160  # the value is echoed cut short


LONGEST = "9" * (INT_DIGITS or 4300)  # the most digits int() converts


@pytest.mark.parametrize("argv", [
    ("bounds", "--n", LONGEST, "--d", "2"),
    ("bounds", "--n", "-" + LONGEST, "--d", "2"),
    ("bounds", "--n", "8", "--d", LONGEST),
], ids=["n", "negative-n", "d"])
def test_integers_beyond_40_digits_are_echoed_short(capsys, argv):
    # A value that parses but is out of range is echoed as its first 40
    # digits and its number of digits.
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: DomainError:") and err.count("\n") == 1 and len(err) < 160
    assert f"{LONGEST[:40]}... ({len(LONGEST)} digits)" in err


def test_domain_errors_exit_1(capsys):
    # |live| != d is a runtime error, not a usage error.
    code, _, err = run_cli(
        capsys, "simulate", "--strategy", "tree", "--n", "4", "--d", "2", "--live", "1"
    )
    assert code == 1
    assert err.startswith("error: DomainError:")
    # A leading '-' parses, so a negative n is out of range, not malformed.
    code, _, err = run_cli(capsys, "bounds", "--n", "-3", "--d", "1")
    assert code == 1 and err.startswith("error: DomainError:")


@pytest.mark.parametrize("live", ["1,9", "1,10000000000000000000"])
def test_live_ids_beyond_n_exit_1(capsys, live):
    # The ids are compared with n before any mask is built, so both errors name
    # n=4; StationSet.from_ids alone would refuse 10**19 by the station cap.
    code, out, err = run_cli(
        capsys, "simulate", "--strategy", "tree", "--n", "4", "--d", "2", "--live", live
    )
    assert code == 1 and out == ""
    assert err == f"error: DomainError: live set {{{live}}} exceeds n=4\n"


def test_a_long_live_list_beyond_n_is_echoed_short(capsys):
    # The ids may exceed the station cap, so the list is cut as a refusal
    # cuts a StationSet, without building one.
    argv = ("simulate", "--strategy", "tree", "--n", "4", "--d", "2", "--live")
    code, out, err = run_cli(capsys, *argv, ",".join(map(str, range(1, 20001))))
    assert code == 1 and out == ""
    assert err == ("error: DomainError: live set {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,...} "
                   "(20000 stations) exceeds n=4\n")
    assert len(err) < 160
    # Not even the first id fits in 40 characters.
    code, out, err = run_cli(capsys, *argv, str(10**60))
    assert code == 1 and out == ""
    assert err == "error: DomainError: live set {...} (1 stations) exceeds n=4\n"


def test_station_cap_env_raises_limit(capsys, monkeypatch):
    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    code, _, err = run_cli(
        capsys, "simulate", "--strategy", "linear", "--n", "99", "--d", "1", "--live", "5"
    )
    assert code == 1 and "MACQ_MAX_N" in err
    code, _, err = run_cli(capsys, "bounds", "--n", "99", "--d", "1")
    assert code == 1 and "MACQ_MAX_N" in err
    # A malformed value is refused whether or not n is within the default cap.
    for raw in ("abc", "1_00", " +100", "\uff11\uff12\uff18"):
        monkeypatch.setenv("MACQ_MAX_N", raw)
        for n, d in (("8", "2"), ("99", "1")):
            code, out, err = run_cli(capsys, "bounds", "--n", n, "--d", d)
            assert code == 1 and out == ""
            assert err.startswith("error: DomainError: MACQ_MAX_N must be an integer")
    monkeypatch.setenv("MACQ_MAX_N", "128")
    code, out, _ = run_cli(
        capsys, "simulate", "--strategy", "linear", "--n", "99", "--d", "1", "--live", "5"
    )
    assert code == 0
    assert json.loads(out)["rounds_used"] == 5


def test_n_beyond_the_station_cap_names_the_cap(capsys, monkeypatch):
    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    code, out, err = run_cli(capsys, "worst-case", "--strategy", "tree", "--n", "65", "--d", "1")
    assert code == 1 and out == ""
    assert err == "error: DomainError: n must be at most 64 (raise MACQ_MAX_N for more), got 65\n"


def test_a_count_past_the_int_digit_limit_is_echoed_short(capsys, monkeypatch):
    # C(20000,10000) has 6019 digits, more than str() converts by default;
    # the budget refusal echoes it through channel._shown, one error line.
    monkeypatch.setenv("MACQ_MAX_N", "20000")
    code, out, err = run_cli(capsys, "worst-case", "--strategy", "tree", "--n", "20000", "--d", "10000")
    assert code == 1 and out == ""
    assert err.startswith("error: BudgetExceeded: C(20000,10000) = ")
    assert err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_recorded_command_stdout_is_byte_identical(capsys, monkeypatch, command):
    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[command]


COMMANDS = [name for name, *_ in cli._COMMANDS]


def test_parser_built_for_argv_answers_as_the_full_parser(capsys, monkeypatch):
    # build_parser sets up only the subcommands argv names; argparse parses
    # with the one whose name is an argv token, so setting up all six must
    # print the same bytes and exit alike, for answers, help and usage errors.
    # The reader declines every line, so argparse answers in both runs.
    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    cases = [command.split() for command in sorted(DIGESTS)]
    cases += [[name, "--help"] for name in COMMANDS]
    cases += [
        [], ["--help"], ["bogus", "--n", "3", "--d", "1"], ["bounds", "--n", "8"],
        ["simulate", "--strategy", "bogus", "--n", "2", "--d", "1", "--live", "1"],
        ["simulate", "--strategy", "tree", "--n", "3", "--d", "2", "--adversary", "greedy"],
        ["--out", "bounds.csv", "bounds", "--n", "8", "--d", "2"],
    ]
    built_for_argv = [run_cli(capsys, *argv) for argv in cases]
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: build_parser(COMMANDS))
    for argv, outcome in zip(cases, built_for_argv):
        assert run_cli(capsys, *argv) == outcome, argv
    # The top-level help sets up no subcommand and still lists all six.
    top_help = built_for_argv[cases.index(["--help"])][1]
    assert all(f"\n    {name} " in top_help for name in COMMANDS)


def test_reader_takes_every_recorded_command():
    # The digest commands are what the benchmark runs, so they must all take
    # the fast path that never imports argparse.
    for command in sorted(DIGESTS):
        assert cli._read(command.split()) is not None, command


OPTIONS = {name: listing() for name, _, listing, _ in cli._COMMANDS}
FLAGS = sorted({flag for options, _ in OPTIONS.values() for flag, _ in options})
VALUES = ["3", "-3", "0", "x", "", "tree", "bogus", "1,2", "2,1"]
STRAY = COMMANDS + FLAGS + VALUES + ["-h", "--", "--n=3", "--wit"]


@st.composite
def command_lines(draw):
    """A command with its required options and some others, each with a value
    it takes ("3" or a choice) or one from VALUES, and a few stray tokens."""
    name = draw(st.sampled_from(COMMANDS))
    argv = [name]
    for flag, keywords in draw(st.permutations(OPTIONS[name][0])):
        if keywords.get("required") or draw(st.booleans()):
            takes = st.sampled_from(keywords.get("choices", ["3"]))
            argv += [flag] if "action" in keywords else [flag, draw(takes | st.sampled_from(VALUES))]
    for _ in range(draw(st.integers(0, 3)) // 2):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(STRAY)))
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_reader_parses_as_argparse_or_leaves_the_line_to_it(argv):
    # The reader may decline any line, which argparse then parses; a line it
    # reads must give argparse's namespace exactly.
    args = cli._read(argv)
    if args is not None:
        assert vars(args) == vars(cli.build_parser(COMMANDS).parse_args(argv))


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "macq", "oracle", "--n", "3", "--d", "2"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


@pytest.mark.parametrize("argv, code", [
    (["bounds", "--n", "8", "--d", "2"], 0),
    (["--help"], 0),
    (["bounds", "--n", "8"], 2),
], ids=["bounds", "help", "usage-error"])
def test_main_freezes_the_heap_before_the_process_exits(capsys, monkeypatch, argv, code):
    # A frozen heap is skipped by the interpreter's exit-time collections.  An
    # atexit hook, which runs after main's sys.exit, sees the freeze, and the
    # command's output and exit code are those dispatch gives in-process.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to this width
    in_process, out, err = run_cli(capsys, *argv)
    assert in_process == code
    hook = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
            f"sys.argv = ['macq', *{argv!r}]\n"
            "runpy.run_module('macq', run_name='__main__', alter_sys=True)")
    proc = subprocess.run([sys.executable, "-S", "-c", hook], capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out + "True\n", err)


def test_dispatch_leaves_the_collector_unfrozen(capsys):
    # Only main, after which the process exits, freezes: a library or test
    # caller of dispatch keeps collecting what it frees.
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "bounds", "--n", "8", "--d", "2")[0] == 0
    assert gc.get_freeze_count() == frozen


# mpmath is only the tests' reference for the analytic threshold, and
# dataclasses pulls in inspect, ast and dis; either would add milliseconds
# to every command.  A short command runs none of the solvers either: they
# stay the unrun placeholders `import macq` registers, whose type is not
# the plain module type.
SLOW_IMPORTS = ("mpmath", "dataclasses", "inspect")
SOLVERS = ("macq.oracle", "macq.qtree", "macq.engine", "macq.report")
NO_ANALYSIS = ("macq.oracle", "macq.qtree", "macq.report", "macq.bounds")
# A well-formed command line is read without argparse, and so without the
# gettext and locale modules behind its messages; help and usage errors
# still load all three.
ARGPARSE = ("argparse", "gettext", "locale")
USES_ARGPARSE = f"\nassert set({ARGPARSE!r}) <= set(sys.modules)"
# Annotations need no typing and --out no pathlib; only JSON output loads re.
# The children run with -S, since a site hook (a .pth file) may load these
# modules before macq starts.
NO_TYPING = ("typing", "pathlib")
NO_RE = NO_TYPING + ("re",)


@pytest.mark.parametrize("code, absent", [
    ("import macq.cli", SLOW_IMPORTS + ARGPARSE + NO_RE + ("macq.channel",)),
    # bounds sets up no --strategy, so it needs no strategy.
    ("from macq.cli import dispatch; dispatch(['bounds', '--n', '8', '--d', '2'])",
     SLOW_IMPORTS + ARGPARSE + NO_RE + SOLVERS + ("macq.strategies",)),
    # The top-level help sets up no subcommand's arguments and runs no model code.
    ("import runpy; sys.argv = ['macq', '--help']\n"
     "try: runpy.run_module('macq', run_name='__main__', alter_sys=True)\n"
     "except SystemExit: pass" + USES_ARGPARSE,
     SLOW_IMPORTS + ("macq.channel", "macq.strategies")),
    # A usage error is argparse's to print; the missing --d runs no handler.
    ("from macq.cli import dispatch; dispatch(['bounds', '--n', '8'])" + USES_ARGPARSE,
     SLOW_IMPORTS + ("macq.bounds",)),
    # report defines value types in the modules it loads, and the tree case
    # below loads qtree's, so between them they show that the constructors
    # Frozen generates need neither dataclasses nor inspect.  A value-only
    # report or oracle builds no tree, so neither runs qtree, and report's
    # sweeps play no game, so it runs no adversary.
    ("from macq.cli import dispatch; dispatch(['report', '--n-max', '3'])",
     SLOW_IMPORTS + ARGPARSE + NO_RE + ("macq.qtree", "macq.adversary")),
    # A value-only oracle checks its cap and solves: no strategy code runs.
    ("from macq.cli import dispatch; dispatch(['oracle', '--n', '4', '--d', '2'])",
     SLOW_IMPORTS + ARGPARSE + NO_RE + ("macq.qtree", "macq.strategies", "macq.adversary")),
    # A tree prints no JSON and needs no adversary: its start position is the channel's.
    ("from macq.cli import dispatch; dispatch(['tree', '--strategy', 'tree', '--n', '4', '--d', '2'])",
     SLOW_IMPORTS + ARGPARSE + NO_RE + ("json", "macq.adversary", "macq.engine", "macq.oracle",
                                        "macq.report")),
    # A text worst-case sweeps live sets with the engine alone, plays no
    # game, so runs no adversary, and prints no JSON.
    ("from macq.cli import dispatch; dispatch(['worst-case', '--strategy', 'tree', '--n', '4', '--d', '2'])",
     SLOW_IMPORTS + ARGPARSE + NO_RE + NO_ANALYSIS + ("json", "macq.adversary")),
    # A game, fixed or against an adversary, builds no tree and solves nothing.
    ("from macq.cli import dispatch; dispatch(['simulate', '--strategy', 'tree', '--n', '4', '--d', '2', "
     "'--live', '1,3'])", SLOW_IMPORTS + ARGPARSE + NO_TYPING + NO_ANALYSIS),
    ("from macq.cli import dispatch; dispatch(['simulate', '--strategy', 'tree', '--n', '4', '--d', '2', "
     "'--adversary', 'greedy'])", SLOW_IMPORTS + ARGPARSE + NO_TYPING + NO_ANALYSIS),
    # A live id beyond n is refused before any game is set up.
    ("from macq.cli import dispatch; dispatch(['simulate', '--strategy', 'tree', '--n', '4', '--d', '2', "
     "'--live', '1,9'])", SLOW_IMPORTS + ARGPARSE + ("macq.engine", "macq.adversary")),
], ids=["import", "bounds", "help", "usage-error", "report", "oracle", "tree", "worst-case",
        "simulate-live", "simulate-greedy", "simulate-beyond-n"])
def test_each_command_runs_only_the_modules_it_needs(code, absent):
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; {code}\nprint([m for m in {absent!r} if type(sys.modules.get(m)) is type(sys)])"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_bench_trace_mode_still_wraps_every_hot_function(tmp_path):
    # The trace mode finds each function it times by module and name, so a
    # function moved or renamed in the package breaks it.
    script = ROOT / "bench" / "trace_child.py"
    spec = importlib.util.spec_from_file_location("trace_child_names", script)
    names = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(names)
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(script), str(out),
         "simulate", "--strategy", "tree", "--n", "6", "--d", "3", "--adversary", "exact"],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text(encoding="utf-8"))
    assert sorted(trace["hot"]) == sorted(names.HOT)
    # The commands import their modules on demand; the wrappers must still be
    # the functions that run, so the counts of those modules are not zero.
    assert trace["hot"]["adversary.refine"][0] > 0
    spans = [span[2] for span in trace["spans"]]
    assert {"cli.dispatch", "engine.run_adversarial"} <= set(spans)
    # The exact adversary answers every round through ``exact_answer``.
    assert spans.count("adversary.exact_answer") == json.loads(proc.stdout)["rounds_used"] == 7


def test_ctrl_c_prints_one_error_line_and_exits_130():
    # (12,4) runs for minutes, so the signal lands inside the solve.  A
    # background job inherits SIGINT as ignored, so the child restores the
    # default disposition, under which Python raises KeyboardInterrupt.
    proc = subprocess.Popen(
        [sys.executable, "-m", "macq", "oracle", "--n", "12", "--d", "4",
         "--oracle-n-cap", "12", "--oracle-d-cap", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_full_stdout_prints_one_error_line_and_exits_1(unbuffered):
    # Every write to /dev/full fails with ENOSPC, so stdout cannot be flushed.
    # A buffered stdout keeps the unwritten bytes and flushes them again at
    # exit, which must not print a second error or change the exit code.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "macq", "worst-case", "--strategy", "tree", "--n", "4", "--d", "2"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=dict(child_env(), PYTHONUNBUFFERED=unbuffered),
        )
    assert proc.returncode == 1
    assert proc.stderr == "error: OSError: [Errno 28] No space left on device\n"
