"""The README's library tour and CLI examples run, and print what they say."""

import json
import shlex
from pathlib import Path

from macq import format_station_set, generate_report, report_to_csv
from macq.cli import dispatch

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(fence: str, after: str) -> str:
    """The first ``fence`` code block after the heading ``after``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"```{fence}\n", text.index(after)) + len(fence) + 4
    return text[start:text.index("```", start)]


def _stated(block: str) -> dict[str, str]:
    """Each line of code, mapped to the result its comment states.

    The comment is on the line itself or, for a long line, alone on the next.
    """
    stated, code = {}, ""
    for line in block.splitlines():
        head, _, comment = line.partition("#")
        code = head.strip() or code
        if comment:
            stated[code] = comment.strip()
    return stated


def _played(result) -> str:
    rounds = [f"{format_station_set(query)} collides" if feedback.station is None
              else f"{format_station_set(query)} -> single({feedback.station})"
              for query, feedback in result.transcript.rounds]
    return f"{len(result.transcript.rounds)} rounds: {', '.join(rounds)}"


def test_readme_examples_run_and_state_their_results(capsys, monkeypatch, tmp_path):
    tour = _block("python", "## Library tour")
    names: dict[str, object] = {}
    exec(tour, names)
    stated = _stated(tour)
    assert stated["result = run_fixed(TREE_SPLIT, cfg, StationSet.from_ids([1, 3]))"] == _played(
        names["result"]) == "3 rounds: {1,2,3,4} collides, {1,2} -> single(1), {3,4} -> single(3)"
    call = "worst_case_rounds(TREE_SPLIT, cfg)"
    rounds, witness = eval(call, names)
    assert stated[call] == f"({rounds}, {format_station_set(witness)})" == "(5, {3,4})"
    call = "exact_optimal_rounds(cfg)"
    assert stated[call] == str(eval(call, names)) == "3"
    call = "worst_case_rounds(optimal_strategy(), cfg)"
    rounds, witness = eval(call, names)
    assert stated[call] == f"({rounds}, {format_station_set(witness)})" == "(3, {1,2})"
    assert rounds == eval("exact_optimal_rounds(cfg)", names)
    report = names["report"]
    shown = (f"property_holds={report.property_holds}, leaf_count={report.leaf_count}, "
             f"black_per_path=({','.join(map(str, report.black_per_path))})")
    assert stated["report = check_normal_form(build_tree(TREE_SPLIT, cfg, normal=True))"] == shown
    assert shown == "property_holds=True, leaf_count=6, black_per_path=(2,2,2,2,2,2)"
    call = "normal_form_report(TREE_SPLIT, cfg, normal=True) == report"
    assert eval(call, names) is True and stated[call].startswith("True,")

    # Every CLI example, run where `--out report.csv` writes its file.
    monkeypatch.chdir(tmp_path)
    examples = _block("sh", "## CLI")
    outputs = {}
    for line in examples.splitlines():
        command = line.partition("#")[0].strip()
        argv = shlex.split(command)
        assert argv[0] == "macq"
        assert dispatch(argv[1:]) == 0, command
        captured = capsys.readouterr()
        assert captured.err == "", command
        outputs[command] = captured.out
    worst = "macq worst-case --strategy linear --n 4 --d 1"
    assert outputs[worst] == _stated(examples)[worst] + "\n" == "rounds=4 witness={4}\n"
    assert json.loads(outputs["macq tree --strategy tree --n 3 --d 2 --normalize --check"])[
        "property_holds"]
    assert outputs["macq report --n-max 6 --d-max 3 --out report.csv"] == ""
    written = (tmp_path / "report.csv").read_text(encoding="utf-8")
    assert written == report_to_csv(generate_report(6, 3))
