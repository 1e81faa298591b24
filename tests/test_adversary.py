"""Knowledge-state tracking and the greedy / exact adversaries."""

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
    Inconsistent,
    LINEAR_SCAN,
    TREE_SPLIT,
    KnowledgeState,
    MacqError,
    StationSet,
    Strategy,
    Transcript,
    evaluate_query,
    exact_answer,
    greedy_answer,
    initial_state,
    make_exact_adversary,
    optimal_strategy,
    refine,
    scripted,
    single,
)
from macq import channel

S = StationSet.from_ids


def test_initial_state_enumerates_all_candidates():
    state = initial_state(GameConfig(4, 2))
    assert len(state.family) == 6
    assert set(state.family) == {S(ids).mask for ids in combinations(range(1, 5), 2)}
    assert state.revealed == 0
    # Witness order and tree leaf order follow this ascending mask order.
    for n in range(1, 13):
        for d in range(1, n + 1):
            cfg = GameConfig(n, d)
            masks = sorted(S(ids).mask for ids in combinations(range(1, n + 1), d))
            assert initial_state(cfg).family == tuple(masks)


def test_initial_state_budget(monkeypatch):
    with pytest.raises(BudgetExceeded):
        initial_state(GameConfig(40, 20))
    # The budget is read at call time, so the boundary can be pinned: C(10,3) = 120.
    monkeypatch.setattr(channel, "DEFAULT_ENUMERATION_BUDGET", 120)
    assert len(initial_state(GameConfig(10, 3)).family) == 120
    monkeypatch.setattr(channel, "DEFAULT_ENUMERATION_BUDGET", 119)
    with pytest.raises(BudgetExceeded, match=r"^C\(10,3\) = 120 candidate live sets exceed budget 119$"):
        initial_state(GameConfig(10, 3))


def test_refine_silence_on_singleton():
    state = initial_state(GameConfig(3, 2))
    after = refine(state, S([1]), SILENCE)
    assert after.family == (S([2, 3]).mask,)
    assert after.revealed == 0


def test_refine_single_reveals_station():
    state = initial_state(GameConfig(3, 2))
    after = refine(state, S([1]), single(1))
    assert set(after.family) == {S([1, 2]).mask, S([1, 3]).mask}
    assert after.revealed == S([1]).mask


def test_refine_matches_consistency_filter_exhaustively():
    cfg = GameConfig(4, 2)
    state = initial_state(cfg)
    queries = [S(ids) for r in range(5) for ids in combinations(range(1, 5), r)]
    feedbacks = [SILENCE, COLLISION] + [single(i) for i in range(1, 5)]
    for query in queries:
        for fb in feedbacks:
            survivors = tuple(c for c in state.family if evaluate_query(query, StationSet(c)) == fb)
            if not survivors:
                with pytest.raises(Inconsistent):
                    refine(state, query, fb)
            else:
                assert refine(state, query, fb).family == survivors


def test_refine_rejects_impossible_feedback():
    state = initial_state(GameConfig(3, 2))
    with pytest.raises(Inconsistent):
        refine(state, S([1]), single(2))
    with pytest.raises(Inconsistent):
        refine(state, S([1]), COLLISION)  # a singleton query cannot collide
    with pytest.raises(Inconsistent) as raised:
        refine(initial_state(GameConfig(4, 2)), S([1, 2]), single(4))
    assert str(raised.value) == "feedback {'single': 4} on query {1,2} eliminates every candidate"


def test_query_that_is_not_a_station_set_is_refused_by_name():
    # branches, the one edge rule, refuses it for every answer built on it.
    cfg = GameConfig(3, 1)
    state = initial_state(cfg)
    for query in ({1}, 1, [1], (1,)):
        for answer in (lambda: refine(state, query, SILENCE), lambda: greedy_answer(state, query),
                       lambda: exact_answer(state, query, TREE_SPLIT, Transcript(cfg)),
                       lambda: channel.branches(state, query)):
            with pytest.raises(DomainError) as raised:
                answer()
            assert str(raised.value) == f"query must be a StationSet, got {query!r}"


def test_state_that_is_not_a_knowledge_state_is_refused_by_name():
    # A bare candidate family in place of the state is refused by branches,
    # not left to fail reading its revealed mask.
    cfg = GameConfig(3, 1)
    family = initial_state(cfg).family
    for answer in (lambda: refine(family, S([1]), SILENCE), lambda: greedy_answer(family, S([1])),
                   lambda: exact_answer(family, S([1]), TREE_SPLIT, Transcript(cfg)),
                   lambda: channel.branches(family, S([1]))):
        with pytest.raises(DomainError) as raised:
            answer()
        assert str(raised.value) == "state must be a KnowledgeState, got (1, 2, 4)"


def _greedy_oracle(state: KnowledgeState, query: StationSet):
    # Independent recount with plain dicts: largest surviving family wins,
    # ties broken collision first, then silence, then smallest single id.
    buckets: dict = {}
    for cand in state.family:
        buckets.setdefault(evaluate_query(query, StationSet(cand)), []).append(cand)

    def rank(fb):
        if fb == COLLISION:
            kind = (0, 0)
        elif fb == SILENCE:
            kind = (1, 0)
        else:
            kind = (2, fb.station)
        return (-len(buckets[fb]), kind)

    return min(buckets, key=rank)


def test_greedy_answer_pinned_values():
    state = initial_state(GameConfig(3, 2))
    assert greedy_answer(state, S([1])) == single(1)
    assert greedy_answer(state, S([1, 2, 3])) == COLLISION


def test_greedy_answer_matches_recount():
    for n, d in [(3, 2), (4, 1), (4, 3), (5, 2)]:
        state = initial_state(GameConfig(n, d))
        for r in range(n + 1):
            for ids in combinations(range(1, n + 1), r):
                query = S(ids)
                assert greedy_answer(state, query) == _greedy_oracle(state, query)


def test_greedy_answer_after_refinement():
    state = initial_state(GameConfig(4, 2))
    state = refine(state, S([1]), single(1))
    # Survivors {1,2},{1,3},{1,4}; on query {2,3}: silence keeps 1,
    # single(2) keeps 1, single(3) keeps 1 — tie, silence preferred.
    assert greedy_answer(state, S([2, 3])) == SILENCE


def test_exact_answer_prefers_silence_against_optimal_play():
    cfg = GameConfig(3, 2)
    state = initial_state(cfg)
    strat = optimal_strategy()
    assert exact_answer(state, S([1]), strat, Transcript(cfg)) == SILENCE


def test_exact_answer_forced_single_when_one_candidate():
    cfg = GameConfig(2, 2)
    state = initial_state(cfg)
    strat = optimal_strategy()
    assert exact_answer(state, S([1]), strat, Transcript(cfg)) == single(1)


def test_exact_answer_breaks_dead_ties_by_preference():
    cfg = GameConfig(2, 1)
    state = initial_state(cfg)
    strat = optimal_strategy()
    # {1,2} reveals one station either way; both branches end the game.
    assert exact_answer(state, S([1, 2]), strat, Transcript(cfg)) == single(1)


def test_exact_answer_caps_non_terminating_strategies():
    cfg = GameConfig(2, 1)
    stall = Strategy("stall", lambda c, t: StationSet(), Transcript, Transcript.extend)
    with pytest.raises(CapExceeded):
        exact_answer(initial_state(cfg), StationSet(), stall, Transcript(cfg))


def _outcome(answer, *args):
    try:
        return answer(*args)
    except MacqError as exc:
        return f"{type(exc).__name__}: {exc}"


def _play_checked(strategy, adversary, state, transcript):
    """Play on from a position, checking every answer against exact_answer.

    Returns the (state, query, transcript) positions the game passed.
    """
    cfg = transcript.config
    positions = []
    while state.revealed.bit_count() < cfg.d:
        query = strategy.next_action(cfg, transcript)
        if query is None:
            break
        positions.append((state, query, transcript))
        answer = adversary(state, query, transcript)
        assert answer == exact_answer(state, query, strategy, transcript), (strategy.name, transcript)
        state = refine(state, query, answer)
        transcript = transcript.extend(query, answer)
    return positions


def test_exact_adversary_answers_as_exact_answer_every_round():
    rng = random.Random(5)
    for n in range(1, 8):
        for d in range(1, min(n, 3) + 1):
            cfg = GameConfig(n, d)
            script = [S(i for i in range(1, n + 1) if rng.random() < 0.4) for _ in range(2 * n)]
            strategies = [LINEAR_SCAN, TREE_SPLIT, scripted(f"script-{n}-{d}", script),
                          optimal_strategy(cap=(7, 3))]
            for strategy in strategies:
                adversary = make_exact_adversary(strategy)
                start = initial_state(cfg)
                positions = _play_checked(strategy, adversary, start, Transcript(cfg))
                # The same adversary again, then, over the memo those games
                # filled, positions the game never reached: other queries at
                # each position, and every sibling position.
                assert _play_checked(strategy, adversary, start, Transcript(cfg)) == positions
                for state, query, transcript in positions:
                    for asked in (S([1]), StationSet.full(cfg.n)):
                        assert _outcome(adversary, state, asked, transcript) == _outcome(
                            exact_answer, state, asked, strategy, transcript)
                    for feedback in {evaluate_query(query, StationSet(live)) for live in state.family}:
                        adversary(state, query, transcript)  # back on the game between siblings
                        sibling = transcript.extend(query, feedback)
                        _play_checked(strategy, adversary, refine(state, query, feedback), sibling)
                if not positions:
                    continue
                # Games started from a refined, non-initial position.
                first = positions[0][1]
                for feedback in {evaluate_query(first, StationSet(live)) for live in start.family}:
                    _play_checked(strategy, make_exact_adversary(strategy),
                                  refine(start, first, feedback),
                                  Transcript(cfg).extend(first, feedback))
