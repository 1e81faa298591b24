"""Engine runs: fixed live sets, worst-case sweeps, adversarial games."""

import json
from itertools import combinations

import pytest

from macq import (
    COLLISION,
    SILENCE,
    BudgetExceeded,
    CapExceeded,
    DomainError,
    GameConfig,
    InvalidQuery,
    LINEAR_SCAN,
    TREE_SPLIT,
    StationSet,
    Strategy,
    default_round_cap,
    game_result_to_doc,
    greedy_adversary,
    make_exact_adversary,
    run_adversarial,
    run_fixed,
    scripted,
    single,
    transcript_from_doc,
    worst_case_rounds,
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


def test_round_cap_turns_livelock_into_error():
    never_done = Strategy("stall", lambda cfg, t: StationSet())
    with pytest.raises(CapExceeded):
        run_fixed(never_done, GameConfig(3, 1), S([2]), round_cap=5)
    with pytest.raises(CapExceeded):
        run_fixed(never_done, GameConfig(3, 1), S([2]))  # default cap 4n+16
    assert default_round_cap(GameConfig(3, 1)) == 28


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
    with pytest.raises(BudgetExceeded):
        worst_case_rounds(LINEAR_SCAN, GameConfig(30, 15), budget=10**6)


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
    json.dumps(doc)  # must not raise
    back, live = transcript_from_doc(doc)
    assert back == result.transcript
    assert live == S([1, 3])
