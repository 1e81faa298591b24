"""Unit tests for the benchmark's own helpers (no macq child is started)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from checks import check_answer, check_output, check_tree_export, digest, feedback_label
from run import PER_LAYER, climb, layer_stats, percentile
from trace_child import Tracer
from workloads import WORKLOADS

# `macq oracle --n 3 --d 2 --witness` at the seed commit.
WITNESS_3_2 = """3
node 0 query={1}
edge 0 1 label=silence color=red
node 1 query={2}
edge 1 2 label=single:2 color=black
node 2 query={3}
edge 2 3 label=single:3 color=black
leaf 3 live={2,3}
edge 0 4 label=single:1 color=black
node 4 query={2,3}
edge 4 5 label=single:2 color=black
leaf 5 live={1,2}
edge 4 6 label=single:3 color=black
leaf 6 live={1,3}
"""
ORACLE_3_2 = ("oracle", "--n", "3", "--d", "2", "--witness")


def test_percentile_weights_the_order_statistics_around_the_rank():
    assert percentile([3.0], 90) == 3.0
    assert percentile([2.0] * 7, 90) == pytest.approx(2.0)
    assert percentile([float(x) for x in range(1, 10)], 50) == pytest.approx(5.0)
    assert percentile([5.0, 1.0, 2.0], 0) == 1.0
    assert percentile([5.0, 1.0, 2.0], 100) == 5.0
    xs = [float(x) for x in range(100)]
    assert percentile(xs, 90) == pytest.approx(89.1, abs=0.5)
    # Two clusters of equal size: the median lies between them and moves
    # little when one sample at the edge of a cluster moves.
    low, high = [1.0] * 9, [3.0] * 9
    assert 1.5 < percentile(low + high, 50) < 2.5
    assert percentile(low[:-1] + [1.5] + high, 50) == pytest.approx(
        percentile(low + high, 50), abs=0.1)


def test_self_time_subtracts_child_spans_and_hot_time():
    # dispatch [0,10] > build [1,7] (2 s in hot calls) > check [2,3]; export [8,9]
    spans = [
        (0, -1, "cli.dispatch", 0.0, 10.0, 0.5),
        (1, 0, "qtree.build_tree", 1.0, 7.0, 2.0),
        (2, 1, "qtree.check_normal_form", 2.0, 3.0, 0.0),
        (3, 0, "qtree.export_graph", 8.0, 9.0, 0.0),
    ]
    stats = layer_stats(spans, {"channel.evaluate_query": [7, 1.5, 2.0]})
    assert stats["cli.dispatch"]["self_s"] == pytest.approx(10 - 6 - 1 - 0.5)
    assert stats["qtree.build_tree"]["self_s"] == pytest.approx(6 - 1 - 2)
    assert stats["qtree.check_normal_form"] == {"calls": 1, "self_s": 1.0, "total_s": 1.0}
    assert stats["channel.evaluate_query"] == {"calls": 7, "self_s": 1.5, "total_s": 2.0}


def test_total_time_counts_only_outermost_recursive_calls():
    spans = [
        (0, -1, "f", 0.0, 4.0, 0.0),
        (1, 0, "g", 1.0, 3.0, 0.0),
        (2, 1, "f", 1.5, 2.5, 0.0),
    ]
    stats = layer_stats(spans, {})
    assert stats["f"]["calls"] == 2
    assert stats["f"]["total_s"] == pytest.approx(4.0)
    assert stats["f"]["self_s"] == pytest.approx(2.0 + 1.0)


def test_tracer_spans_and_hot_aggregates_agree(monkeypatch):
    now = [0.0]
    monkeypatch.setattr("time.perf_counter", lambda: now[0])
    tracer = Tracer()

    def work(seconds):
        now[0] += seconds

    def inner():
        work(3)

    def hot():
        work(2)
        h2()

    h2 = tracer.hot_fn("h2", inner)
    h = tracer.hot_fn("h", hot)

    def leaf_span():
        work(4)
        h()

    b = tracer.coarse("b", leaf_span)

    def root():
        work(1)
        h()
        b()

    tracer.coarse("a", root)()
    stats = layer_stats(tracer.spans, tracer.hot)
    assert stats["a"] == {"calls": 1, "self_s": 1.0, "total_s": 15.0}
    assert stats["b"] == {"calls": 1, "self_s": 4.0, "total_s": 9.0}
    assert stats["h"] == {"calls": 2, "self_s": 4.0, "total_s": 10.0}
    assert stats["h2"] == {"calls": 2, "self_s": 6.0, "total_s": 6.0}


def test_frontier_stops_at_first_budget_stop_without_failing():
    results = {1: "ok", 2: "ok", 3: "budget", 4: "ok"}
    tried = []

    def attempt(cell):
        tried.append(cell)
        return results[cell]

    assert climb([1, 2, 3, 4], attempt) == (2, 3, "budget")
    assert tried == [1, 2, 3]
    assert climb([1, 2], attempt) == (2, None, None)
    assert climb([1, 5], {1: "ok", 5: "failed"}.get) == (1, 5, "failed")


def test_witness_check_accepts_the_seed_tree_and_rejects_damage():
    assert check_answer(ORACLE_3_2, WITNESS_3_2) == []
    assert check_answer(ORACLE_3_2, WITNESS_3_2.replace("leaf 6 live={1,3}", "leaf 6 live={1,2}"))
    assert check_answer(ORACLE_3_2, WITNESS_3_2.replace("3\n", "4\n", 1))  # depth 3 != 4
    assert check_answer(ORACLE_3_2, WITNESS_3_2.replace("3\n", "2\n", 1))  # table says 3
    assert check_tree_export(WITNESS_3_2.split("\n", 1)[1].replace("{2,3}\nedge 4 5", "{2}\nedge 4 5"), 3, 2)


def test_oracle_values_are_checked_against_the_table_and_lower_bound():
    assert check_answer(("oracle", "--n", "6", "--d", "4"), "6\n") == []
    assert check_answer(("oracle", "--n", "6", "--d", "4"), "5\n")
    # (9,2) is not in the table but cannot beat (8,2) = 4.
    assert check_answer(("oracle", "--n", "9", "--d", "2"), "3\n")


def _game(live, rounds, completed=True):
    return json.dumps({
        "n": 4, "d": 2, "live": live,
        "rounds": [{"query": q, "feedback": f} for q, f in rounds],
        "rounds_used": len(rounds), "completed": completed, "witness_live": live,
    })


def test_transcript_check_recomputes_every_feedback():
    argv = ("simulate", "--strategy", "tree", "--n", "4", "--d", "2", "--live", "1,3")
    good = [([1, 2, 3, 4], "collision"), ([1, 2], {"single": 1}), ([3, 4], {"single": 3})]
    assert check_answer(argv, _game([1, 3], good)) == []
    wrong = [([1, 2, 3, 4], "collision"), ([1, 2], "silence"), ([3, 4], {"single": 3})]
    assert check_answer(argv, _game([1, 3], wrong))
    assert check_answer(argv, _game([1, 3], good[:2]))             # station 3 never sent
    assert check_answer(argv, _game([1, 3], good, completed=False))
    assert check_answer(argv, _game([1, 4], good))                 # not the requested set


def test_digest_check_requires_identical_recorded_output():
    argv = ("bounds", "--n", "8", "--d", "2")
    key = " ".join(argv)
    out = "n,d\n8,2\n"
    assert check_output(argv, out, {key: digest(out)}) == []
    assert check_output(argv, out + " ", {key: digest(out)})
    assert check_output(argv, out, {})
    assert check_output(argv, out, None) == []  # seeded commands carry no digest


def test_feedback_label_follows_the_channel_rule():
    assert feedback_label(frozenset({1, 2}), frozenset({3})) == "silence"
    assert feedback_label(frozenset({1, 2}), frozenset({2, 3})) == "single:2"
    assert feedback_label(frozenset({1, 2}), frozenset({1, 2})) == "collision"


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "cmd_p50_s", "cmd_p90_s", "peak_rss_mb"}
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
