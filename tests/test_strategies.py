"""Strategy behavior on hand-built transcripts, and the strategies' state machines
against the replaying functions they replaced."""

import random
from itertools import combinations

import pytest

from macq import (
    COLLISION,
    LINEAR_SCAN,
    SILENCE,
    TREE_SPLIT,
    DomainError,
    FeedbackTag,
    MacqError,
    GameConfig,
    StationSet,
    Strategy,
    Transcript,
    build_tree,
    channel,
    check_normal_form,
    evaluate_query,
    linear_scan,
    make_exact_adversary,
    normal_form_report,
    run_adversarial,
    scripted,
    single,
    transmitted_set,
    tree_split,
    tree_strategy,
    worst_case_rounds,
)
from macq.strategies import replay
from reference_strategies import TREE_BOXED_BELOW, reference_scripted, reference_tree_strategy

S = StationSet.from_ids


def test_linear_scan_probes_singletons_in_order():
    cfg = GameConfig(4, 1)
    t = Transcript(cfg)
    assert linear_scan(cfg, t) == S([1])
    t = t.extend(S([1]), SILENCE)
    assert linear_scan(cfg, t) == S([2])
    t = t.extend(S([2]), SILENCE)
    assert linear_scan(cfg, t) == S([3])
    t = t.extend(S([3]), single(3))
    assert linear_scan(cfg, t) is None


def test_linear_scan_stops_after_d_singles():
    cfg = GameConfig(4, 2)
    t = Transcript(cfg)
    t = t.extend(S([1]), single(1))
    assert linear_scan(cfg, t) == S([2])
    t = t.extend(S([2]), single(2))
    assert linear_scan(cfg, t) is None


def test_linear_scan_stops_after_last_singleton():
    cfg = GameConfig(3, 2)
    t = Transcript(cfg)
    for i in (1, 2, 3):
        t = t.extend(S([i]), SILENCE)
    assert linear_scan(cfg, t) is None


def test_tree_split_opens_with_full_probe():
    cfg = GameConfig(4, 2)
    assert tree_split(cfg, Transcript(cfg)) == S([1, 2, 3, 4])


def test_tree_split_splits_collision_left_first():
    cfg = GameConfig(4, 2)
    t = Transcript(cfg).extend(S([1, 2, 3, 4]), COLLISION)
    assert tree_split(cfg, t) == S([1, 2])


def test_tree_split_resolves_pair_in_three_rounds():
    cfg = GameConfig(4, 2)
    t = Transcript(cfg)
    t = t.extend(S([1, 2, 3, 4]), COLLISION)
    t = t.extend(S([1, 2]), single(1))
    assert tree_split(cfg, t) == S([3, 4])
    t = t.extend(S([3, 4]), single(3))
    assert tree_split(cfg, t) is None


def test_tree_split_odd_interval_split():
    # [1..5] splits at mid = 3 into [1..2] and [3..5].
    cfg = GameConfig(5, 2)
    t = Transcript(cfg).extend(S([1, 2, 3, 4, 5]), COLLISION)
    assert tree_split(cfg, t) == S([1, 2])
    t = t.extend(S([1, 2]), SILENCE)
    assert tree_split(cfg, t) == S([3, 4, 5])


def test_tree_split_rejects_foreign_transcript():
    cfg = GameConfig(4, 2)
    t = Transcript(cfg).extend(S([2]), SILENCE)
    with pytest.raises(ValueError) as err:
        tree_split(cfg, t)
    assert isinstance(err.value, MacqError)


def test_tree_split_rejects_rounds_past_exhausted_stack():
    cfg = GameConfig(2, 2)
    t = Transcript(cfg)
    t = t.extend(S([1, 2]), COLLISION)
    t = t.extend(S([1]), single(1))
    t = t.extend(S([2]), SILENCE)  # discharges the last interval
    t = t.extend(S([1]), SILENCE)  # impossible extra round
    with pytest.raises(ValueError) as err:
        tree_split(cfg, t)
    assert isinstance(err.value, MacqError)


def test_scripted_plays_list_then_stops():
    cfg = GameConfig(3, 1)
    strat = scripted("fixed", [S([1, 2]), S([3])])
    t = Transcript(cfg)
    assert strat.next_action(cfg, t) == S([1, 2])
    t = t.extend(S([1, 2]), COLLISION)
    assert strat.next_action(cfg, t) == S([3])
    t = t.extend(S([3]), SILENCE)
    assert strat.next_action(cfg, t) is None
    assert strat.name == "fixed"


def test_transcript_form_counts_distinct_senders_and_refuses_one_beyond_the_cap(monkeypatch):
    # The sets and transcripts are built first, so only the two calls read the cap.
    cfg = GameConfig(4, 2)
    t = Transcript(cfg).extend(S([1]), single(1)).extend(S([1]), single(1))
    done, third = t.extend(S([3]), single(3)), S([3])
    reads = []
    monkeypatch.setattr(channel, "station_cap", lambda: reads.append(None) or 64)
    assert linear_scan(cfg, t) == third  # a repeated sender counts once
    assert linear_scan(cfg, done) is None
    assert len(reads) == 2  # once per call
    with pytest.raises(DomainError, match="station id must be at most 64"):
        linear_scan(cfg, Transcript(cfg).extend(third, single(65)))


# ---------------------------------------------------------------------------
# The state machines against the replaying strategies they replaced
# ---------------------------------------------------------------------------

def _reference_linear_scan(config, transcript):
    """linear_scan as a function of the whole transcript (reference only)."""
    if len(transmitted_set(transcript)) >= config.d:
        return None
    played = len(transcript.rounds)
    if played >= config.n:
        return None
    return StationSet.from_ids((played + 1,))


def _reference_interval_set(lo, hi):
    return StationSet((1 << hi) - (1 << (lo - 1)))


def _reference_interval_stack(config, transcript):
    stack = [(1, config.n)]
    for query, feedback in transcript.rounds:
        if not stack:
            raise DomainError("transcript continues past an empty interval stack")
        lo, hi = stack.pop()
        if query != _reference_interval_set(lo, hi):
            raise DomainError("transcript was not produced by tree_split")
        if feedback.tag is FeedbackTag.COLLISION:
            mid = (lo + hi + 1) // 2
            stack.append((mid, hi))
            stack.append((lo, mid - 1))
    return stack


def _reference_tree_split(config, transcript):
    """tree_split replaying its interval stack on every call (reference only)."""
    if len(transmitted_set(transcript)) >= config.d:
        return None
    stack = _reference_interval_stack(config, transcript)
    if not stack:
        return None
    return _reference_interval_set(*stack[-1])


def _answer(fn, config, transcript):
    try:
        return fn(config, transcript)
    except DomainError as exc:
        return f"DomainError: {exc}"


def _tree_transcripts(reference, config):
    """Every transcript on a path of the strategy's decision tree."""
    seen = set()
    for ids in combinations(range(1, config.n + 1), config.d):
        live = S(ids)
        transcript = Transcript(config)
        seen.add(transcript)
        while len(transmitted_set(transcript)) < config.d:
            query = reference(config, transcript)
            if query is None:
                break
            transcript = transcript.extend(query, evaluate_query(query, live))
            seen.add(transcript)
    return seen


def _foreign_transcripts(config, rng, tree_transcripts):
    """Tree transcripts with one or two extra rounds of any query and feedback,
    consistent or not, so the stack empties early, runs out, or mismatches."""
    n = config.n
    feedbacks = [SILENCE, COLLISION, single(1), single(n)]
    queries = [S([1]), S(range(1, n + 1)), S(range(1, (n + 1) // 2 + 1))]
    for transcript in sorted(tree_transcripts, key=lambda t: len(t.rounds)):
        for query in queries:
            for feedback in feedbacks:
                extended = transcript.extend(query, feedback)
                yield extended
                yield extended.extend(rng.choice(queries), rng.choice(feedbacks))


@pytest.mark.parametrize("strategy, reference", [
    (LINEAR_SCAN, _reference_linear_scan),
    (TREE_SPLIT, _reference_tree_split),
], ids=["linear", "tree"])
def test_state_machines_match_the_replaying_references(strategy, reference):
    rng = random.Random(7)
    errors = 0
    for n in range(1, 8):
        for d in range(1, n + 1):
            cfg = GameConfig(n, d)
            on_tree = _tree_transcripts(reference, cfg)
            for transcript in on_tree:
                want = reference(cfg, transcript)
                # The walk's route: one step per round, then one query.  States
                # do not count reveals, so a finished position is asked only
                # through next_action, which applies the walk's stop rule.
                if len(transmitted_set(transcript)) < d:
                    assert strategy.query(cfg, replay(strategy, cfg, transcript)) == want
                assert strategy.next_action(cfg, transcript) == want
            for transcript in _foreign_transcripts(cfg, rng, on_tree):
                want = _answer(reference, cfg, transcript)
                assert _answer(strategy.next_action, cfg, transcript) == want, (cfg, transcript)
                errors += isinstance(want, str)
    if strategy is TREE_SPLIT:
        assert errors > 1000  # both foreign-transcript errors are compared


def _machine_query(strategy):
    """The walk's route to a query: one step per round, then one query."""
    return lambda config, transcript: strategy.query(config, replay(strategy, config, transcript))


def test_scripted_and_tree_strategy_machines_match_the_replaying_references():
    rng = random.Random(11)
    errors = set()
    for n in range(1, 7):
        for d in range(1, n + 1):
            cfg = GameConfig(n, d)
            script = [S(i for i in range(1, n + 2) if rng.random() < 0.4)
                      for _ in range(rng.randrange(2 * n + 3))]
            pairs = [(scripted("script", script), reference_scripted(script).query)]
            for base in (LINEAR_SCAN, TREE_SPLIT):
                tree = build_tree(base, cfg)
                pairs.append((tree_strategy(tree), reference_tree_strategy(tree).query))
            for strategy, reference in pairs:
                on_tree = _tree_transcripts(reference, cfg)
                for transcript in on_tree:
                    want = reference(cfg, transcript)
                    assert _machine_query(strategy)(cfg, transcript) == want
                    if len(transmitted_set(transcript)) < d:
                        assert strategy.next_action(cfg, transcript) == want
                for transcript in _foreign_transcripts(cfg, rng, on_tree):
                    want = _answer(reference, cfg, transcript)
                    assert _answer(_machine_query(strategy), cfg, transcript) == want, (cfg, transcript)
                    if isinstance(want, str):
                        errors.add(want)
    assert errors == {
        "DomainError: transcript diverges from the tree's queries",
        "DomainError: transcript follows a feedback edge the tree lacks",
    }


def _counted(strategy):
    calls = {"query": 0, "step": 0}

    def query(config, state):
        calls["query"] += 1
        return strategy.query(config, state)

    def step(state, query, feedback):
        calls["step"] += 1
        return strategy.step(state, query, feedback)

    return Strategy(strategy.name, query, strategy.start, step), calls


def test_worst_case_sweep_asks_once_per_internal_node():
    for n, d in ((6, 3), (8, 3), (10, 4)):
        cfg = GameConfig(n, d)
        replays = [tree_strategy(build_tree(base, cfg)) for base in (LINEAR_SCAN, TREE_SPLIT)]
        for strategy in [LINEAR_SCAN, TREE_SPLIT] + replays:
            counted, calls = _counted(strategy)
            assert worst_case_rounds(counted, cfg) == worst_case_rounds(strategy, cfg)
            internal = edges = 0
            todo = [build_tree(strategy, cfg).root]
            while todo:
                node = todo.pop()
                internal += not node.is_leaf
                edges += len(node.children)
                todo.extend(node.children.values())
            assert calls["query"] <= internal, (strategy.name, n, d, calls, internal)
            assert calls["step"] <= edges, (strategy.name, n, d, calls, edges)


def test_worst_case_sweep_shares_transposed_subtrees():
    # The unshared walk asks 8,071 (tree) and 11,627 (linear) queries here;
    # the shared one asks 129 and 70.  Exact counts, so a change to the edge
    # rule or the memo that alters which positions the walk visits shows here.
    cfg = GameConfig(18, 5)
    for strategy, asked in ((LINEAR_SCAN, 70), (TREE_SPLIT, 129)):
        counted, calls = _counted(strategy)
        assert worst_case_rounds(counted, cfg) == worst_case_rounds(strategy, cfg)
        assert calls["query"] == asked, (strategy.name, calls)
    # The normal-form report shares them too: 108 queries at tree (16,5) and
    # 50 at linear (14,5), where building the normal-form tree asks 4,637
    # and 3,002.
    for strategy, cfg, asked in ((TREE_SPLIT, GameConfig(16, 5), 108),
                                 (LINEAR_SCAN, GameConfig(14, 5), 50)):
        counted, calls = _counted(strategy)
        report = normal_form_report(counted, cfg, normal=True)
        assert report == check_normal_form(build_tree(strategy, cfg, normal=True))
        assert report.property_holds
        assert calls["query"] == asked, (strategy.name, calls)
    # Boxed below small collisions, tree still shares the positions above the
    # boxes: 923 queries at (16,5), where storing nothing above them asks 4,017.
    counted, calls = _counted(TREE_BOXED_BELOW)
    cfg = GameConfig(16, 5)
    assert worst_case_rounds(counted, cfg) == worst_case_rounds(TREE_SPLIT, cfg)
    assert calls["query"] == 923, calls
    # The exact adversary's one memo shares subtrees across the rounds of a
    # game: 122 queries (tree) and 75 (linear) in a whole (16,5) game.  It
    # lasts the adversary's life, so a second game asks only the game loop's
    # one query per round (15 and 16) and its folds ask none.
    for strategy, asked, rounds in ((TREE_SPLIT, 122, 15), (LINEAR_SCAN, 75, 16)):
        counted, calls = _counted(strategy)
        adversary = make_exact_adversary(counted)
        game = run_adversarial(counted, adversary, cfg)
        assert game == run_adversarial(strategy, make_exact_adversary(strategy), cfg)
        assert calls["query"] == asked, (strategy.name, calls)
        calls["query"] = 0
        assert run_adversarial(counted, adversary, cfg) == game
        assert calls["query"] == len(game.transcript.rounds) == rounds, (strategy.name, calls)
    # A transcript-form strategy's state is its transcript, which hashes like
    # any other state, so the memo is kept for it too.  Within one game no
    # transcript recurs, but a second game with the same adversary replays the
    # first and asks one query per round: 15 (tree) and 10 (linear) at (10,4).
    # Its ``step`` stays ``Transcript.extend``; ``fn`` counts its own calls.
    cfg = GameConfig(10, 4)
    for fn, asked, rounds in ((tree_split, 309, 15), (linear_scan, 338, 10)):
        calls = {"query": 0}

        def counted_fn(config, transcript, fn=fn):
            calls["query"] += 1
            return fn(config, transcript)

        strategy = Strategy(fn.__name__, counted_fn, Transcript, Transcript.extend)
        assert strategy.step is Transcript.extend
        adversary = make_exact_adversary(strategy)
        game = run_adversarial(strategy, adversary, cfg)
        assert calls["query"] == asked, (fn.__name__, calls)
        calls["query"] = 0
        assert run_adversarial(strategy, adversary, cfg) == game
        assert calls["query"] == len(game.transcript.rounds) == rounds, (fn.__name__, calls)


def test_transcript_strategies_keep_the_transcript_as_state():
    def fn(config, transcript):
        return (S([1, 2]), S([3]))[len(transcript.rounds)]  # IndexError if asked a third time

    strat = Strategy("fixed", fn, Transcript, Transcript.extend)
    cfg = GameConfig(3, 1)
    assert strat.start(cfg) == Transcript(cfg)
    t = strat.step(strat.start(cfg), S([1, 2]), COLLISION)
    assert t == Transcript(cfg).extend(S([1, 2]), COLLISION)
    assert strat.query is fn and strat.next_action(cfg, t) == S([3])
    t = strat.step(t, S([3]), single(3))
    # Once d stations have transmitted alone, next_action stops without asking fn.
    assert strat.next_action(cfg, t) is None
