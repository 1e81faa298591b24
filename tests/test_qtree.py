"""Decision-tree construction, normal form, export, and replay."""

import math
import random
from itertools import combinations

import pytest

from macq import (
    COLLISION,
    SILENCE,
    AmbiguousLeaf,
    DomainError,
    FeedbackTag,
    GameConfig,
    LINEAR_SCAN,
    MacqError,
    QNode,
    QTree,
    TREE_SPLIT,
    StationSet,
    Strategy,
    Transcript,
    build_tree,
    check_normal_form,
    evaluate_query,
    export_graph,
    normal_form_report,
    run_fixed,
    scripted,
    single,
    tree_strategy,
    worst_case_rounds,
)
from reference_strategies import random_adaptive, random_subset

S = StationSet.from_ids

TREE_SPLIT_2_1_GRAPH = """\
node 0 query={1,2}
edge 0 1 label=single:1 color=black
leaf 1 live={1}
edge 0 2 label=single:2 color=black
leaf 2 live={2}
"""

LINEAR_2_1_GRAPH = """\
node 0 query={1}
edge 0 1 label=silence color=red
node 1 query={2}
edge 1 2 label=single:2 color=black
leaf 2 live={2}
edge 0 3 label=single:1 color=black
leaf 3 live={1}
"""


def test_edge_color():
    # Black for a single, red for silence and collision.
    graph = export_graph(build_tree(TREE_SPLIT, GameConfig(3, 2)))
    edges = [line.split() for line in graph.splitlines() if line.startswith("edge ")]
    colors = {(label.startswith("label=single:"), color) for _, _, _, label, color in edges}
    assert colors == {(True, "color=black"), (False, "color=red")}


def test_tree_split_2_1_tree_shape():
    tree = build_tree(TREE_SPLIT, GameConfig(2, 1))
    assert tree.root.query == S([1, 2])
    assert set(tree.root.children) == {single(1), single(2)}
    report = check_normal_form(tree)
    assert (report.max_depth, report.leaf_count) == (1, 2)
    assert export_graph(tree) == TREE_SPLIT_2_1_GRAPH


def test_linear_scan_2_1_tree_shape():
    tree = build_tree(LINEAR_SCAN, GameConfig(2, 1))
    assert tree.root.query == S([1])
    assert tree.root.children[single(1)].resolved_live == S([1])
    deeper = tree.root.children[SILENCE]
    assert deeper.query == S([2])
    assert deeper.children[single(2)].resolved_live == S([2])
    report = check_normal_form(tree)
    assert (report.max_depth, report.leaf_count) == (2, 2)
    assert export_graph(tree) == LINEAR_2_1_GRAPH


def test_leaf_count_is_number_of_live_sets():
    for strategy in (LINEAR_SCAN, TREE_SPLIT):
        for n in range(1, 7):
            for d in range(1, n + 1):
                tree = build_tree(strategy, GameConfig(n, d))
                assert check_normal_form(tree).leaf_count == math.comb(n, d)


def test_max_depth_equals_worst_case_rounds():
    for strategy in (LINEAR_SCAN, TREE_SPLIT):
        for n in range(1, 7):
            for d in range(1, n + 1):
                cfg = GameConfig(n, d)
                worst, _ = worst_case_rounds(strategy, cfg)
                tree = build_tree(strategy, cfg)
                assert check_normal_form(tree).max_depth == worst


def test_every_leaf_resolves_its_own_live_set():
    tree = build_tree(TREE_SPLIT, GameConfig(4, 2))
    seen = set()

    def walk(node):
        if node.is_leaf:
            seen.add(node.resolved_live)
            return
        for child in node.children.values():
            walk(child)

    walk(tree.root)
    assert seen == {S(ids) for ids in combinations(range(1, 5), 2)}


def test_ambiguous_stop_is_an_error():
    mute = scripted("mute", [])
    with pytest.raises(AmbiguousLeaf):
        build_tree(mute, GameConfig(2, 1))


def test_normalize_replaces_overlapping_query():
    naive = scripted("naive-pair", [S([1]), S([1, 2])])
    tree = build_tree(naive, GameConfig(2, 2), normal=True)
    assert tree.root.query == S([1])
    inner = tree.root.children[single(1)]
    assert inner.query == S([2])
    assert inner.children[single(2)].resolved_live == S([1, 2])
    report = check_normal_form(tree)
    assert report.max_depth == 2
    assert report.property_holds
    # The raw tree keeps the collision round and has too few reveals per path.
    raw_report = check_normal_form(build_tree(naive, GameConfig(2, 2)))
    assert not raw_report.property_holds
    assert raw_report.black_per_path == (1,)


def test_repeated_probe_breaks_normal_form_until_normalized():
    repeat = scripted("naive-repeat", [S([1]), S([1]), S([2])])
    raw = check_normal_form(build_tree(repeat, GameConfig(2, 2)))
    assert raw.repeated_transmitter_paths == 1
    assert not raw.property_holds
    normal = build_tree(repeat, GameConfig(2, 2), normal=True)
    report = check_normal_form(normal)
    assert report.property_holds
    assert report.black_per_path == (2,)
    # The emptied second query survives as a forced-silence round.
    graph = export_graph(normal)
    assert "node 1 query={}" in graph
    assert "edge 1 2 label=silence color=red" in graph
    assert report.max_depth == 3


def test_normal_form_needs_one_leaf_per_live_set():
    # (3,2): three leaves, each reached through two distinct black edges,
    # but {1,2} twice and {2,3} nowhere.
    def leaf(*ids):
        return QNode(resolved_live=S(ids))

    def probe(station, child):
        return QNode(query=S([station]), children={single(station): child})

    root = QNode(query=S([1]), children={
        single(1): QNode(query=S([2]), children={
            single(2): leaf(1, 2),
            SILENCE: probe(3, leaf(1, 3)),
        }),
        SILENCE: probe(2, probe(1, leaf(1, 2))),
    })
    report = check_normal_form(QTree(GameConfig(3, 2), root))
    assert (report.leaf_count, report.black_per_path, report.repeated_transmitter_paths) == \
        (3, (2, 2, 2), 0)
    assert not report.property_holds
    # A leaf whose black senders are not its live set breaks the form too.
    wrong = QNode(query=S([1]), children={single(1): leaf(2), SILENCE: probe(2, leaf(1))})
    assert not check_normal_form(QTree(GameConfig(2, 1), wrong)).property_holds


def test_normal_form_refuses_a_sender_beyond_the_station_cap(monkeypatch):
    # A sender's bit is set by StationSet.from_ids, which refuses one beyond the cap.
    monkeypatch.setenv("MACQ_MAX_N", "8")
    root = QNode(query=S([1]), children={single(9): QNode(resolved_live=S([1]))})
    with pytest.raises(DomainError, match="at most 8 .*got 9"):
        check_normal_form(QTree(GameConfig(2, 1), root))


def test_normalizing_a_builtin_strategy_changes_nothing():
    # The built-in strategies never query a revealed station, so their trees
    # are already in normal form and normalization must reproduce them verbatim.
    for strategy in (LINEAR_SCAN, TREE_SPLIT):
        for n in range(1, 8):
            for d in range(1, n + 1):
                cfg = GameConfig(n, d)
                where = (strategy.name, n, d)
                normal = build_tree(strategy, cfg, normal=True)
                assert export_graph(build_tree(strategy, cfg)) == export_graph(normal), where
                report = normal_form_report(strategy, cfg, normal=True)
                assert report == normal_form_report(strategy, cfg), where
                assert report.property_holds and report.leaf_count == math.comb(n, d)


def test_normalized_tree_split_4_2():
    report = check_normal_form(build_tree(TREE_SPLIT, GameConfig(4, 2), normal=True))
    assert report.property_holds
    assert report.leaf_count == 6
    assert report.black_per_path == (2,) * 6
    assert report.repeated_transmitter_paths == 0


def test_normalization_never_deepens_the_tree():
    # Each script queries a station again after a single may have revealed it.
    # With d >= 2 some path reveals one before it is queried again, so the
    # normalized tree differs from the raw one; it must not be deeper.
    for n, queries in ((3, [S([1]), S([1, 2]), S([2]), S([2, 3]), S([3])]),
                       (4, [S([1, 2]), S([1]), S([1, 2, 3]), S([2]), S([3, 4]), S([3]), S([4])])):
        requery = scripted("requery", queries)
        for d in range(2, n + 1):
            cfg = GameConfig(n, d)
            raw, normal = build_tree(requery, cfg), build_tree(requery, cfg, normal=True)
            assert export_graph(normal) != export_graph(raw), (n, d)
            assert check_normal_form(normal).max_depth <= check_normal_form(raw).max_depth, (n, d)


def _lift_feedback(derived, base_query, revealed):
    """Feedback the unreduced query would have produced (reference only)."""
    if derived.tag is FeedbackTag.COLLISION:
        return COLLISION
    sender = StationSet()
    if derived.is_single:
        sender = StationSet.from_ids((derived.station,))
    return evaluate_query(base_query, revealed | sender)


def reference_normalized_strategy(base):
    """Normalization as a derived strategy that replays its whole transcript.

    Each call rebuilds, round by round, the transcript the base strategy
    would have seen, then drops the revealed stations from the base
    strategy's next query.  Independent of the walk's ``normal`` mode, and
    slow: it calls the base strategy once per round on every call.
    """

    def next_action(config, transcript):
        revealed = StationSet()
        base_transcript = Transcript(config)
        for derived_query, derived_feedback in transcript.rounds:
            base_action = base.next_action(config, base_transcript)
            assert base_action is not None and derived_query == base_action - revealed
            base_feedback = _lift_feedback(derived_feedback, base_action, revealed)
            base_transcript = base_transcript.extend(base_action, base_feedback)
            if derived_feedback.is_single:
                revealed = revealed | StationSet.from_ids((derived_feedback.station,))
        if len(revealed) >= config.d:
            return None
        base_action = base.next_action(config, base_transcript)
        if base_action is None:
            return None
        return base_action - revealed

    return Strategy(f"{base.name}-normal", next_action, Transcript, Transcript.extend)


def random_scripted(rng, n):
    return scripted(f"script-{rng.randrange(10**6)}",
                    [random_subset(rng, n) for _ in range(rng.randrange(2 * n + 3))])


# Probes station 1 forever: once it is revealed, or if it is not live, every
# path runs into the round cap.
STALL = Strategy("stall", lambda config, transcript: S([1]), Transcript, Transcript.extend)


def _outcome(build):
    try:
        return export_graph(build())
    except MacqError as exc:
        return f"{type(exc).__name__}: {exc}"


def _normalize_cases():
    rng = random.Random(20131)
    for n in range(1, 7):
        for d in range(1, n + 1):
            cfg = GameConfig(n, d)
            strategies = [LINEAR_SCAN, TREE_SPLIT, STALL]
            strategies += [random_scripted(rng, n) for _ in range(25)]
            strategies += [random_adaptive(rng.randrange(10**6), n) for _ in range(5)]
            for strategy in strategies:
                yield strategy, cfg


def test_normalize_matches_the_replaying_reference():
    seen = {"graph": 0, "AmbiguousLeaf": 0, "CapExceeded": 0, "InvalidQuery": 0}
    for strategy, cfg in _normalize_cases():
        got = _outcome(lambda: build_tree(strategy, cfg, normal=True))
        want = _outcome(lambda: build_tree(reference_normalized_strategy(strategy), cfg))
        assert got == want, (strategy.name, cfg)
        kind = "graph" if got.startswith("node") or got.startswith("leaf") else got.split(":")[0]
        seen[kind] += 1
    # Every outcome occurs, so error messages, which name "<name>-normal", are compared too.
    assert all(seen.values()), seen


def test_normalize_calls_the_strategy_once_per_node():
    for base in (LINEAR_SCAN, TREE_SPLIT):
        for n, d in ((6, 3), (8, 3), (10, 4)):
            calls = 0

            def counted(config, transcript, base=base):
                nonlocal calls
                calls += 1
                return base.next_action(config, transcript)

            strategy = Strategy(base.name, counted, Transcript, Transcript.extend)
            tree = build_tree(strategy, GameConfig(n, d), normal=True)
            nodes = 0
            todo = [tree.root]
            while todo:
                node = todo.pop()
                nodes += 1
                todo.extend(node.children.values())
            assert calls <= nodes, (base.name, n, d, calls, nodes)


def test_export_graph_is_deterministic():
    a = export_graph(build_tree(TREE_SPLIT, GameConfig(5, 2)))
    b = export_graph(build_tree(TREE_SPLIT, GameConfig(5, 2)))
    assert a == b
    assert a.endswith("\n")
    # ids are dense preorder integers
    ids = [int(line.split()[1]) for line in a.splitlines() if not line.startswith("edge")]
    assert ids == sorted(ids)
    # Edges print in the order the node holds them; build_tree holds them in
    # feedback order, and a hand-built node keeps its own.
    root = QNode(S([1]), {single(1): QNode(resolved_live=S([1])), SILENCE: QNode(resolved_live=S([2]))})
    assert export_graph(QTree(GameConfig(2, 1), root)) == (
        "node 0 query={1}\n"
        "edge 0 1 label=single:1 color=black\n"
        "leaf 1 live={1}\n"
        "edge 0 2 label=silence color=red\n"
        "leaf 2 live={2}\n"
    )


def test_tree_strategy_replays_original_games():
    cfg = GameConfig(4, 2)
    replay = tree_strategy(build_tree(TREE_SPLIT, cfg))
    for ids in combinations(range(1, 5), 2):
        live = S(ids)
        assert run_fixed(replay, cfg, live).transcript == run_fixed(TREE_SPLIT, cfg, live).transcript


def test_tree_strategy_rejects_divergent_transcripts():
    cfg = GameConfig(2, 1)
    replay = tree_strategy(build_tree(TREE_SPLIT, cfg))
    bad_query = Transcript(cfg).extend(S([1]), SILENCE)
    with pytest.raises(ValueError) as err:
        replay.next_action(cfg, bad_query)
    assert isinstance(err.value, MacqError)
    bad_edge = Transcript(cfg).extend(S([1, 2]), SILENCE)
    with pytest.raises(ValueError) as err:
        replay.next_action(cfg, bad_edge)
    assert isinstance(err.value, MacqError)
