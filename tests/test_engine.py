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
    GameConfig,
    GameResult,
    Inconsistent,
    InvalidQuery,
    LINEAR_SCAN,
    MacqError,
    TREE_SPLIT,
    StationSet,
    Strategy,
    Transcript,
    build_tree,
    evaluate_query,
    format_station_set,
    game_result_to_doc,
    greedy_adversary,
    make_exact_adversary,
    run_adversarial,
    run_fixed,
    scripted,
    single,
    transmitted_set,
    tree_strategy,
    worst_case_rounds,
)
from macq.engine import _first_in_id_order
from reference_strategies import (
    random_adaptive,
    random_subset,
    reference_scripted,
    reference_tree_strategy,
)

S = StationSet.from_ids


def test_linear_scan_finds_station_two():
    result = run_fixed(LINEAR_SCAN, GameConfig(2, 1), S([2]))
    assert result.rounds_used == 2
    assert result.completed
    assert result.witness_live == S([2])
    assert [fb for _, fb in result.transcript.rounds] == [SILENCE, single(2)]


def test_tree_split_single_live_station_takes_one_round():
    result = run_fixed(TREE_SPLIT, GameConfig(4, 1), S([3]))
    assert result.rounds_used == 1
    assert result.completed
    assert result.transcript.rounds == ((S([1, 2, 3, 4]), single(3)),)


def test_tree_split_pair_run_is_three_rounds():
    result = run_fixed(TREE_SPLIT, GameConfig(4, 2), S([1, 3]))
    assert result.rounds_used == 3
    assert result.completed
    assert result.transcript.rounds == (
        (S([1, 2, 3, 4]), COLLISION),
        (S([1, 2]), single(1)),
        (S([3, 4]), single(3)),
    )


def test_engine_stops_at_dth_single_even_if_strategy_would_continue():
    strat = scripted("eager", [S([1]), S([2]), S([3])])
    result = run_fixed(strat, GameConfig(3, 1), S([1]))
    assert result.rounds_used == 1
    assert result.completed


def test_early_stop_without_witness_is_incomplete():
    strat = scripted("quitter", [S([1])])
    result = run_fixed(strat, GameConfig(3, 1), S([2]))
    assert result.rounds_used == 1
    assert not result.completed
    # Stopping with {2} and {3} still undistinguished is a short game, not an error.
    assert worst_case_rounds(strat, GameConfig(3, 1)) == (1, S([1]))
    forced = run_adversarial(strat, make_exact_adversary(strat), GameConfig(3, 1))
    assert forced.rounds_used == 1
    assert not forced.completed
    assert forced.witness_live == S([2])


def test_run_fixed_validates_live_set():
    with pytest.raises(DomainError):
        run_fixed(LINEAR_SCAN, GameConfig(3, 1), S([4]))
    with pytest.raises(DomainError):
        run_fixed(LINEAR_SCAN, GameConfig(3, 2), S([1]))


def test_run_fixed_rejects_query_beyond_n():
    strat = scripted("overreach", [S([5])])
    with pytest.raises(InvalidQuery):
        run_fixed(strat, GameConfig(3, 1), S([1]))


# Queries the empty set forever: every game hits the round cap.
STALL = Strategy("stall", lambda config, transcript: StationSet())


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


def _reference_run_fixed(strategy, config, live):
    """run_fixed with its own loop over the transcript (reference only)."""
    if not live.issubset(StationSet.full(config.n)):
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
        if not action.issubset(StationSet.full(config.n)):
            raise InvalidQuery(f"strategy {strategy.name!r} queried stations "
                               f"{format_station_set(action - StationSet.full(config.n))} "
                               f"beyond n={config.n}")
        feedback = evaluate_query(action, live)
        transcript = transcript.extend(action, feedback)
        memory = strategy.step(memory, action, feedback)
    completed = transmitted_set(transcript) == live
    return GameResult(transcript, len(transcript.rounds), completed, live)


def _game(run, strategy, cfg, live):
    try:
        return run(strategy, cfg, live)
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
        rounds = run_fixed(strategy, GameConfig(n, d), S(ids)).rounds_used
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
    assert result.rounds_used == 3
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


def test_exact_adversary_forces_tree_split_worst_case():
    result = run_adversarial(TREE_SPLIT, make_exact_adversary(TREE_SPLIT), GameConfig(3, 2))
    assert result.rounds_used == 5
    assert result.witness_live == S([2, 3])
    assert result.completed


def test_exact_adversary_at_least_matches_greedy():
    for strategy in (LINEAR_SCAN, TREE_SPLIT):
        for n in range(1, 5):
            for d in range(1, n + 1):
                cfg = GameConfig(n, d)
                greedy = run_adversarial(strategy, greedy_adversary, cfg).rounds_used
                exact = run_adversarial(strategy, make_exact_adversary(strategy), cfg).rounds_used
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


def test_first_in_id_order_matches_sorting_by_members():
    rng = random.Random(3)
    for n in range(1, 8):
        for d in range(1, n + 1):
            sets = [S(ids) for ids in combinations(range(1, n + 1), d)]
            for a in sets:
                for b in sets:
                    assert _first_in_id_order([a.mask, b.mask]) == min(a, b, key=tuple).mask
            for size in (1, 3, len(sets)):
                picked = rng.sample(sets, min(size, len(sets)))
                want = min(picked, key=tuple).mask
                assert _first_in_id_order([s.mask for s in picked]) == want
