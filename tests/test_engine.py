"""Engine runs: fixed live sets, worst-case sweeps, adversarial games."""

import collections
import json
import random
from itertools import combinations

import pytest

from macq import (
    COLLISION,
    SILENCE,
    BudgetExceeded,
    CapExceeded,
    DomainError,
    FeedbackTag,
    GameConfig,
    GameResult,
    Inconsistent,
    InvalidQuery,
    LINEAR_SCAN,
    MacqError,
    NormalFormReport,
    TREE_SPLIT,
    StationSet,
    Strategy,
    Transcript,
    build_tree,
    check_normal_form,
    evaluate_query,
    format_station_set,
    game_result_to_doc,
    greedy_adversary,
    make_exact_adversary,
    normal_form_report,
    optimal_strategy,
    run_adversarial,
    run_fixed,
    scripted,
    single,
    transmitted_set,
    tree_strategy,
    worst_case_rounds,
)
from reference_strategies import (
    TREE_BOXED_BELOW,
    random_adaptive,
    random_subset,
    reference_scripted,
    reference_tree_strategy,
)

S = StationSet.from_ids


def test_linear_scan_finds_station_two():
    result = run_fixed(LINEAR_SCAN, GameConfig(2, 1), S([2]))
    assert len(result.transcript.rounds) == 2
    assert result.completed
    assert result.witness_live == S([2])
    assert [fb for _, fb in result.transcript.rounds] == [SILENCE, single(2)]


def test_tree_split_single_live_station_takes_one_round():
    result = run_fixed(TREE_SPLIT, GameConfig(4, 1), S([3]))
    assert len(result.transcript.rounds) == 1
    assert result.completed
    assert result.transcript.rounds == ((S([1, 2, 3, 4]), single(3)),)


def test_tree_split_pair_run_is_three_rounds():
    result = run_fixed(TREE_SPLIT, GameConfig(4, 2), S([1, 3]))
    assert len(result.transcript.rounds) == 3
    assert result.completed
    assert result.transcript.rounds == (
        (S([1, 2, 3, 4]), COLLISION),
        (S([1, 2]), single(1)),
        (S([3, 4]), single(3)),
    )


def test_engine_stops_at_dth_single_even_if_strategy_would_continue():
    strat = scripted("eager", [S([1]), S([2]), S([3])])
    result = run_fixed(strat, GameConfig(3, 1), S([1]))
    assert len(result.transcript.rounds) == 1
    assert result.completed


def test_early_stop_without_witness_is_incomplete():
    strat = scripted("quitter", [S([1])])
    result = run_fixed(strat, GameConfig(3, 1), S([2]))
    assert len(result.transcript.rounds) == 1
    assert not result.completed
    # Stopping with {2} and {3} still undistinguished is a short game, not an error.
    assert worst_case_rounds(strat, GameConfig(3, 1)) == (1, S([1]))
    forced = run_adversarial(strat, make_exact_adversary(strat), GameConfig(3, 1))
    assert len(forced.transcript.rounds) == 1
    assert not forced.completed
    assert forced.witness_live == S([2])


def test_run_fixed_validates_live_set():
    with pytest.raises(DomainError):
        run_fixed(LINEAR_SCAN, GameConfig(3, 1), S([4]))
    with pytest.raises(DomainError):
        run_fixed(LINEAR_SCAN, GameConfig(3, 2), S([1]))
    # A plain set or a list is refused, not left to fail on a missing mask.
    for live in ({1, 2}, [1, 2]):
        with pytest.raises(DomainError, match="live set must be a StationSet"):
            run_fixed(TREE_SPLIT, GameConfig(4, 2), live)
    # A negative mask holds every station past some bit, so it is refused
    # without being listed.
    with pytest.raises(DomainError, match="negative mask -1"):
        run_fixed(TREE_SPLIT, GameConfig(4, 2), StationSet(-1))


def test_run_fixed_rejects_query_beyond_n():
    strat = scripted("overreach", [S([5])])
    with pytest.raises(InvalidQuery):
        run_fixed(strat, GameConfig(3, 1), S([1]))


def test_query_that_is_not_a_station_set_is_refused():
    # A set, an int, a list or a tuple is refused by name, not left to fail
    # on a missing mask, in the game, the sweep and the tree alike.
    cfg = GameConfig(3, 1)
    for value in ({1}, 1, [1], (1,)):
        bad = Strategy("bad", lambda config, transcript, value=value: value,
                       Transcript, Transcript.extend)
        for run in (lambda: run_fixed(bad, cfg, S([1])), lambda: worst_case_rounds(bad, cfg),
                    lambda: build_tree(bad, cfg)):
            with pytest.raises(InvalidQuery) as raised:
                run()
            assert str(raised.value) == f"strategy 'bad' queried {value!r}, not a StationSet"


# Queries the empty set forever: every game hits the round cap.
STALL = Strategy("stall", lambda config, transcript: StationSet(), Transcript, Transcript.extend)


def test_round_cap_turns_livelock_into_error():
    cfg = GameConfig(3, 1)
    # The cap is 4n + 16 = 28 rounds.  The exact adversary's look-ahead and
    # the worst-case fold stop at the same cap.
    games = [
        lambda: run_fixed(STALL, cfg, S([2])),
        lambda: run_adversarial(STALL, greedy_adversary, cfg),
        lambda: run_adversarial(STALL, make_exact_adversary(STALL), cfg),
        lambda: worst_case_rounds(STALL, cfg),
        lambda: build_tree(STALL, cfg),
    ]
    for game in games:
        with pytest.raises(CapExceeded) as raised:
            game()
        assert str(raised.value) == "strategy 'stall' still querying after 28 rounds (n=3, d=1)"


def test_negative_query_mask_is_refused():
    # A negative mask is no set, so a strategy cannot build it as its query:
    # the construction is refused, in the transcript and machine forms.
    cfg = GameConfig(3, 1)
    for neg in (Strategy("neg", lambda config, transcript: StationSet(-1),
                         Transcript, Transcript.extend),
                Strategy("neg", lambda config, state: StationSet(-1), lambda config: 0,
                         lambda state, query, feedback: state)):
        for run in (lambda: run_fixed(neg, cfg, S([1])), lambda: worst_case_rounds(neg, cfg),
                    lambda: build_tree(neg, cfg)):
            with pytest.raises(DomainError) as raised:
                run()
            assert str(raised.value) == "station set has the negative mask -1"


def _recurring(wait, box=tuple):
    """Query {1,2} at (4,2); single(1) and single(2) both leave the residual
    family {3},{4}.  single(1) goes straight to a chain of 20 empty queries,
    single(2) first waits ``wait`` empty rounds, so the chain's state and
    family recur at round 1 and at round 1 + wait.  ``box`` holds each later
    state of the chain; a list has no hash."""

    def query(config, state):
        if state == "root":
            return S([1, 2])
        return StationSet() if state[1] else None

    def step(state, query, feedback):
        if state == "root":
            return {single(1): ("chain", 20), single(2): ("wait", wait)}.get(feedback, ("chain", 0))
        kind, left = state
        if kind == "wait":
            return ("chain", 20) if left == 1 else (kind, left - 1)
        return box((kind, left - 1))

    return Strategy("recur", query, lambda config: "root", step)


def test_shared_fold_reuses_a_subtree_only_below_the_cap():
    cfg = GameConfig(4, 2)  # round cap 32
    for box in (tuple, list):
        # Reached again at round 11, the chain's last query comes at round 30.
        soon = _recurring(10, box)
        assert worst_case_rounds(soon, cfg) == (31, S([2, 3]))
        assert len(run_adversarial(soon, make_exact_adversary(soon), cfg).transcript.rounds) == 31
        # Reached again at round 16, it would query at round 32: the fold it
        # stored at round 1 must not stand in for that.
        late = _recurring(15, box)
        for run in (lambda: worst_case_rounds(late, cfg),
                    lambda: run_adversarial(late, make_exact_adversary(late), cfg)):
            with pytest.raises(CapExceeded) as raised:
                run()
            assert str(raised.value) == "strategy 'recur' still querying after 32 rounds (n=4, d=2)"


def test_exact_adversary_keeps_each_config_apart():
    # First query {2..n}: a single leaves the residual family {1} in every
    # config, in state "loop", which stops for n >= 5 and stalls below.
    def query(config, state):
        if state == "first":
            return StationSet.full(config.n) - S([1])
        if state == "loop":
            return StationSet() if config.n < 5 else None
        return StationSet() if state == "collided" else None

    def step(state, query, feedback):
        if state == "first":
            return "collided" if feedback == COLLISION else "loop"
        return "end" if state == "collided" else state

    strategy = Strategy("by-n", query, lambda config: "first", step)
    adversary = make_exact_adversary(strategy)
    assert len(run_adversarial(strategy, adversary, GameConfig(6, 2)).transcript.rounds) == 2
    with pytest.raises(CapExceeded) as raised:
        run_adversarial(strategy, adversary, GameConfig(3, 2))
    assert str(raised.value) == "strategy 'by-n' still querying after 28 rounds (n=3, d=2)"


def _unshared(strategy):
    """``strategy`` with its state boxed in a list: no state hashes, so its
    folds never share a subtree."""
    return Strategy(strategy.name, lambda config, box: strategy.query(config, box[0]),
                    lambda config: [strategy.start(config)],
                    lambda box, query, feedback: [strategy.step(box[0], query, feedback)])


def _machine(name, query, step=lambda k, query, feedback: k + 1):
    return Strategy(name, query, lambda config: 0, step)


# Prefixes {1}, {1,2}, ..., {1..n}, then stop: from the second single on they
# query revealed stations, and with d >= 3 some games stop undecided.
PREFIXES = _machine("prefixes", lambda config, k: StationSet.full(k + 1) if k < config.n else None)
# Prefixes {1}, {1,2}, {1,2,3} round and round (cut at n): each state recurs
# every 3 rounds, at ever more rounds, until d reveals or the cap.
CYCLE = _machine("cycle", lambda config, k: StationSet.full(min(k + 1, config.n)),
                 lambda k, query, feedback: (k + 1) % 3)
MACHINE_STALL = _machine("stall", lambda config, k: StationSet(), lambda k, query, feedback: k)
# After silence then single(2), and after single(1) then silence, the state
# and the residual family agree, but only the first has revealed station 2,
# which the next query holds.
REVISIT = scripted("revisit", [S([1]), S([2]), S([2, 3]), S([3])])
# {1,2}, then after a single {1,3}, then {4} only if that drew single(1).  At
# (4,2) single(1) and single(2) leave the same state and residual family, but
# normal form reduces {1,3} to {3} only after single(1), where the strategy
# still draws collision or single(1): that subtree must not stand in for the other.
REDUCED = _machine("reduced", lambda config, k: (S([1, 2]), S([1, 3]), S([4]), None)[k],
                   lambda k, query, feedback: 1 if k == 0 and feedback.is_single
                   else 2 if k == 1 and feedback == single(1) else 3)


def test_shared_and_unshared_folds_agree():
    rng = random.Random(26)
    fixed = [LINEAR_SCAN, TREE_SPLIT, STALL, MACHINE_STALL, PREFIXES, CYCLE, REVISIT, REDUCED,
             TREE_BOXED_BELOW, optimal_strategy(cap=(7, 3))]
    # strategy -> (its unshared form, an exact adversary for each form); the
    # fixed strategies keep theirs, memo included, through every config.
    forms = {}
    seen = collections.Counter()
    for n in range(1, 8):
        for d in range(1, n + 1):
            cfg = GameConfig(n, d)
            strategies = list(fixed)
            for _ in range(3):
                script = [random_subset(rng, n) for _ in range(rng.randrange(2 * n + 3))]
                strategies.append(scripted("script", script))
            strategies.append(random_adaptive(rng.randrange(10**6), n))
            strategies.append(tree_strategy(build_tree(LINEAR_SCAN, cfg)))
            for tree_d in {d, d % n + 1}:
                strategies.append(tree_strategy(build_tree(TREE_SPLIT, GameConfig(n, tree_d))))
            for strategy in strategies:
                if strategy not in forms:
                    unshared = _unshared(strategy)
                    forms[strategy] = (unshared, make_exact_adversary(strategy),
                                       make_exact_adversary(unshared))
                unshared, shared_adversary, plain_adversary = forms[strategy]
                worst = _game(worst_case_rounds, strategy, cfg)
                assert worst == _game(worst_case_rounds, unshared, cfg), (strategy.name, cfg)
                game = _game(run_adversarial, strategy, shared_adversary, cfg)
                assert game == _game(run_adversarial, unshared, plain_adversary, cfg), (
                    strategy.name, cfg)
                outcomes = [worst, game]
                for normal in (False, True):
                    # The normal-form report folds the shared walk; the tree
                    # is built node by node, and the boxed state shares nothing.
                    report = _game(normal_form_report, strategy, cfg, normal=normal)
                    built = _game(lambda: check_normal_form(
                        build_tree(strategy, cfg, normal=normal)))
                    boxed = _game(normal_form_report, unshared, cfg, normal=normal)
                    assert report == built == boxed, (strategy.name, cfg, normal)
                    outcomes.append(report)
                    if isinstance(report, NormalFormReport):
                        seen["holds" if report.property_holds else "breaks"] += 1
                        seen["repeated"] += report.repeated_transmitter_paths > 0
                for outcome in outcomes:
                    seen[outcome.split(":")[0] if isinstance(outcome, str) else "ok"] += 1
    assert set(seen) == {"ok", "CapExceeded", "InvalidQuery", "DomainError", "BudgetExceeded",
                         "AmbiguousLeaf", "holds", "breaks", "repeated"}, seen


def _reference_run_fixed(strategy, config, live):
    """run_fixed with its own loop over the transcript (reference only)."""
    if live - StationSet.full(config.n):
        raise DomainError(f"live set {format_station_set(live)} exceeds n={config.n}")
    if len(live) != config.d:
        raise DomainError(f"live set must have exactly d={config.d} stations, got {len(live)}")
    transcript = Transcript(config)
    memory = strategy.start(config)
    cap = 4 * config.n + 16
    while len(transmitted_set(transcript)) < config.d:
        action = strategy.query(config, memory)
        if action is None:
            break
        if len(transcript.rounds) >= cap:
            raise CapExceeded(f"strategy {strategy.name!r} still querying after {cap} rounds "
                              f"(n={config.n}, d={config.d})")
        if action - StationSet.full(config.n):
            raise InvalidQuery(f"strategy {strategy.name!r} queried stations "
                               f"{format_station_set(action - StationSet.full(config.n))} "
                               f"beyond n={config.n}")
        feedback = evaluate_query(action, live)
        transcript = transcript.extend(action, feedback)
        memory = strategy.step(memory, action, feedback)
    completed = transmitted_set(transcript) == live
    return GameResult(transcript, completed, live)


def _game(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except MacqError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_run_fixed_matches_its_own_loop():
    # The machines play in run_fixed; the references are transcript functions
    # where one exists (scripted, tree_strategy), so both forms are compared.
    rng = random.Random(8)
    seen = collections.Counter()
    for n in range(1, 8):
        for d in range(1, n + 1):
            cfg = GameConfig(n, d)
            pairs = [(LINEAR_SCAN, LINEAR_SCAN), (TREE_SPLIT, TREE_SPLIT), (STALL, STALL)]
            for _ in range(3):
                script = [random_subset(rng, n) for _ in range(rng.randrange(2 * n + 3))]
                pairs.append((scripted("script", script), reference_scripted(script)))
            adaptive = random_adaptive(rng.randrange(10**6), n)
            pairs.append((adaptive, adaptive))
            # A tree of this instance, and one of a neighbouring d, whose
            # feedback edges the games here can leave.
            for tree_d in {d, d % n + 1}:
                tree = build_tree(TREE_SPLIT, GameConfig(n, tree_d))
                pairs.append((tree_strategy(tree), reference_tree_strategy(tree)))
            for ids in combinations(range(1, n + 1), d):
                live = S(ids)
                for strategy, reference in pairs:
                    got = _game(run_fixed, strategy, cfg, live)
                    want = _game(_reference_run_fixed, reference, cfg, live)
                    assert got == want, (strategy.name, cfg, live)
                    seen[got.split(":")[0] if isinstance(got, str) else got.completed] += 1
    assert set(seen) == {True, False, "CapExceeded", "InvalidQuery", "DomainError"}, seen


def _worst_by_enumeration(strategy, n, d):
    worst, witness = -1, None
    for ids in combinations(range(1, n + 1), d):
        rounds = len(run_fixed(strategy, GameConfig(n, d), S(ids)).transcript.rounds)
        if rounds > worst:
            worst, witness = rounds, S(ids)
    return worst, witness


@pytest.mark.parametrize(
    "strategy,n,d,expected",
    [
        (LINEAR_SCAN, 4, 1, (4, S([4]))),
        (TREE_SPLIT, 4, 1, (1, S([1]))),
        (LINEAR_SCAN, 2, 2, (2, S([1, 2]))),
        (TREE_SPLIT, 3, 2, (5, S([2, 3]))),
        # First maximum in ascending id order; mask order would pick {2,3,4}.
        (TREE_SPLIT, 6, 3, (7, S([1, 5, 6]))),
    ],
)
def test_worst_case_rounds_pinned(strategy, n, d, expected):
    assert worst_case_rounds(strategy, GameConfig(n, d)) == expected


def test_worst_case_rounds_matches_enumeration():
    for strategy in (LINEAR_SCAN, TREE_SPLIT):
        for n in range(1, 8):
            for d in range(1, n + 1):
                assert worst_case_rounds(strategy, GameConfig(n, d)) == \
                    _worst_by_enumeration(strategy, n, d)


def test_worst_case_rounds_budget():
    with pytest.raises(BudgetExceeded, match=r"^C\(30,15\) = 155117520 candidate live sets "
                       r"exceed budget 1000000$"):
        worst_case_rounds(LINEAR_SCAN, GameConfig(30, 15))


def test_greedy_adversary_forces_full_linear_scan():
    result = run_adversarial(LINEAR_SCAN, greedy_adversary, GameConfig(3, 1))
    assert len(result.transcript.rounds) == 3
    assert result.completed
    assert result.witness_live == S([3])


def test_adversarial_witness_replays_identically():
    for strategy, n, d, adversary in [
        (LINEAR_SCAN, 3, 1, greedy_adversary),
        (TREE_SPLIT, 2, 2, greedy_adversary),
        (TREE_SPLIT, 4, 2, greedy_adversary),
        (TREE_SPLIT, 3, 2, make_exact_adversary(TREE_SPLIT)),
    ]:
        cfg = GameConfig(n, d)
        adversarial = run_adversarial(strategy, adversary, cfg)
        replay = run_fixed(strategy, cfg, adversarial.witness_live)
        assert replay.transcript == adversarial.transcript


def test_adversary_answering_impossible_feedback_is_refused():
    # A singleton query cannot draw a collision from any candidate.
    def colliding(state, query, transcript):
        return COLLISION

    with pytest.raises(Inconsistent) as excinfo:
        run_adversarial(LINEAR_SCAN, colliding, GameConfig(3, 1))
    assert str(excinfo.value) == "feedback 'collision' on query {1} eliminates every candidate"
    # An answer that is no Feedback at all is refused before it is spelled.
    for answer in ("silence", None, FeedbackTag.SILENCE):
        with pytest.raises(DomainError) as excinfo:
            run_adversarial(TREE_SPLIT, lambda state, query, transcript: answer, GameConfig(3, 1))
        assert str(excinfo.value) == f"feedback must be a Feedback, got {answer!r}"


def test_exact_adversary_forces_tree_split_worst_case():
    result = run_adversarial(TREE_SPLIT, make_exact_adversary(TREE_SPLIT), GameConfig(3, 2))
    assert len(result.transcript.rounds) == 5
    assert result.witness_live == S([2, 3])
    assert result.completed


def test_exact_adversary_at_least_matches_greedy():
    for strategy in (LINEAR_SCAN, TREE_SPLIT):
        for n in range(1, 5):
            for d in range(1, n + 1):
                cfg = GameConfig(n, d)
                greedy = len(run_adversarial(strategy, greedy_adversary, cfg).transcript.rounds)
                exact = len(run_adversarial(strategy, make_exact_adversary(strategy), cfg).transcript.rounds)
                worst, _ = worst_case_rounds(strategy, cfg)
                assert greedy <= exact == worst


def test_game_result_doc_is_json_ready():
    result = run_fixed(TREE_SPLIT, GameConfig(4, 2), S([1, 3]))
    doc = game_result_to_doc(result)
    assert doc["rounds_used"] == 3
    assert doc["completed"] is True
    assert doc["witness_live"] == [1, 3]
    assert doc["live"] == [1, 3]
    assert doc["rounds"] == [
        {"query": [1, 2, 3, 4], "feedback": "collision"},
        {"query": [1, 2], "feedback": {"single": 1}},
        {"query": [3, 4], "feedback": {"single": 3}},
    ]
    json.dumps(doc)  # must not raise
    # The document's count is the transcript's length, which the result alone holds.
    forced = run_adversarial(TREE_SPLIT, make_exact_adversary(TREE_SPLIT), GameConfig(4, 2))
    for game in (result, forced):
        assert game_result_to_doc(game)["rounds_used"] == len(game.transcript.rounds)
    assert len(forced.transcript.rounds) == 5
    with pytest.raises(TypeError):
        GameResult(result.transcript, 3, True, result.witness_live)
