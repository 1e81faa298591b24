"""Exact minimax oracle: values, witness trees, optimal play."""

from functools import lru_cache, reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macq import (
    COLLISION,
    BudgetExceeded,
    DomainError,
    GameConfig,
    Inconsistent,
    StationSet,
    Strategy,
    Transcript,
    build_tree,
    check_normal_form,
    evaluate_query,
    exact_optimal_rounds,
    generate_report,
    greedy_adversary,
    initial_state,
    make_exact_adversary,
    optimal_strategy,
    optimal_strategy_tree,
    refine,
    run_adversarial,
    run_fixed,
    tree_strategy,
    worst_case_rounds,
)
from macq import oracle
from macq.oracle import (
    _Solver,
    _class_queries,
    _twin_classes,
)
from reference_strategies import Index

S = StationSet.from_ids

# Minimum worst-case rounds for every instance inside the default cap.
# Hand anchors: one full probe suffices for d=1; (2,2) needs both
# singletons; (3,2) resists every opening for two further reveals.  The
# remaining entries are pinned by the unreduced minimax of acceptance
# criterion 3 (tests/test_acceptance.py), by the exhaustive minimax on
# residual families below, and by a fresh solver's agreement with the process's.
OPTIMAL_ROUNDS = {
    (1, 1): 1,
    (2, 1): 1,
    (2, 2): 2,
    (3, 1): 1,
    (3, 2): 3,
    (3, 3): 3,
    (4, 1): 1,
    (4, 2): 3,
    (4, 3): 4,
    (5, 1): 1,
    (5, 2): 4,
    (5, 3): 4,
    (6, 1): 1,
    (6, 2): 4,
    (6, 3): 5,
}

# Values beyond the default cap, computed by the exhaustive-query solver this
# search replaced (the (7,3) cell took it about 213 s).
RAISED_CAP_ROUNDS = {(6, 4): 6, (7, 2): 4, (8, 2): 4, (7, 3): 5}


def test_optimal_rounds_table():
    for (n, d), expected in OPTIMAL_ROUNDS.items():
        assert exact_optimal_rounds(GameConfig(n, d)) == expected, (n, d)


def test_one_round_suffices_for_single_live_station():
    for n in range(1, 7):
        assert exact_optimal_rounds(GameConfig(n, 1)) == 1


def _fresh_value(cfg):
    """The cell's value from a fresh solver, which shares no memo with the process's."""
    return _Solver().value(initial_state(cfg).family)


def test_process_solver_and_a_fresh_solver_agree():
    for (n, d), expected in OPTIMAL_ROUNDS.items():
        assert exact_optimal_rounds(GameConfig(n, d)) == _fresh_value(GameConfig(n, d)) == expected


def test_oracle_cap_enforced_and_overridable():
    with pytest.raises(BudgetExceeded):
        exact_optimal_rounds(GameConfig(7, 2))
    assert exact_optimal_rounds(GameConfig(7, 1), cap=(7, 3)) == 1
    # The minimax strategy checks its cap against the game it starts.
    cfg = GameConfig(7, 2)
    beyond = r"^instance \(n=7, d=2\) is beyond the oracle cap \(n <= 6, d <= 3\)$"
    for play in (worst_case_rounds, build_tree):
        with pytest.raises(BudgetExceeded, match=beyond):
            play(optimal_strategy(), cfg)
    with pytest.raises(BudgetExceeded, match=beyond):
        run_adversarial(optimal_strategy(), greedy_adversary, cfg)
    assert worst_case_rounds(optimal_strategy(cap=(7, 2)), cfg)[0] == 4


def test_oracle_cap_must_be_two_integers():
    # optimal_strategy is the cap's one reader, so every entry point refuses alike.
    entries = (
        lambda cfg, cap: worst_case_rounds(optimal_strategy(cap=cap), cfg)[0],
        lambda cfg, cap: exact_optimal_rounds(cfg, cap=cap),
        lambda cfg, cap: check_normal_form(optimal_strategy_tree(cfg, cap=cap)).max_depth,
        lambda cfg, cap: generate_report(cfg.n, cfg.d, oracle_cap=cap)[-1].oracle_opt,
    )
    refusals = [
        (None, "oracle cap must be a tuple of two integers (n, d), got None"),
        ((6,), "oracle cap must be a tuple of two integers (n, d), got (6,)"),
        ({6, 3}, "oracle cap must be a tuple of two integers (n, d), got {3, 6}"),  # no order
        (("6", 3), "oracle cap n must be an integer, got '6'"),
        ((6.0, 3), "oracle cap n must be an integer, got 6.0"),
        ((6, 3.0), "oracle cap d must be an integer, got 3.0"),
    ]
    for entry in entries:
        for cap, message in refusals:
            with pytest.raises(DomainError) as raised:
                entry(GameConfig(3, 1), cap)
            assert str(raised.value) == message
        # A bool or an __index__ type converts and keeps its meaning.
        assert entry(GameConfig(7, 1), (Index(7), Index(3))) == 1
    assert exact_optimal_rounds(GameConfig(1, 1), cap=(True, 1)) == 1
    with pytest.raises(BudgetExceeded, match=r"n <= 1, d <= 1\)$"):
        exact_optimal_rounds(GameConfig(2, 1), cap=(True, 1))
    # A cap of 0 leaves every cell beyond it.
    assert [row.oracle_opt for row in generate_report(3, 1, oracle_cap=(0, 0))] == [None, None]


def test_repeat_calls_hit_the_shared_memo():
    exact_optimal_rounds(GameConfig(6, 3))
    before = dict(oracle._SOLVER.memo)
    # The root's bounds meet, so a repeat call is answered from the memo.
    assert before[initial_state(GameConfig(6, 3)).family] == (5, 5)
    assert exact_optimal_rounds(GameConfig(6, 3)) == OPTIMAL_ROUNDS[(6, 3)]
    assert oracle._SOLVER.memo == before
    assert _fresh_value(GameConfig(6, 4)) == 6
    assert oracle._SOLVER.memo == before


@pytest.mark.parametrize("n, d", sorted(RAISED_CAP_ROUNDS))
def test_raised_cap_values_are_certified(n, d):
    cfg = GameConfig(n, d)
    expected = RAISED_CAP_ROUNDS[(n, d)]
    assert exact_optimal_rounds(cfg, cap=(n, d)) == expected
    assert _fresh_value(cfg) == expected
    tree = optimal_strategy_tree(cfg, cap=(n, d))
    report = check_normal_form(tree)
    assert report.max_depth == expected and report.property_holds
    worst, _ = worst_case_rounds(tree_strategy(tree), cfg)
    assert worst == expected


def _exhaustive_children(fam, query):
    """Child families of ``fam`` under ``query``, or None when it is uninformative
    (every member silent, or every member colliding)."""
    parts = _reference_split(fam, query)
    if len(parts) == 1 and parts[0][0] < 0:
        return None
    return [child for _, child in parts]


@lru_cache(maxsize=None)
def _exhaustive_value(fam):
    """Plain minimax over every nonempty query inside the family's support."""
    if fam == (0,):
        return 0
    support = reduce(or_, fam)
    best = None
    for query in range(1, support + 1):
        children = None if query & ~support else _exhaustive_children(fam, query)
        if children is not None:
            worst = 1 + max(_exhaustive_value(child) for child in children)
            best = worst if best is None else min(best, worst)
    return best


@st.composite
def residual_families(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, min(n, 3)))
    d_sets = [sum(1 << (i - 1) for i in ids) for ids in combinations(range(1, n + 1), d)]
    chosen = draw(st.lists(st.sampled_from(d_sets), min_size=1, unique=True))
    return tuple(sorted(chosen))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(residual_families())
def test_solver_matches_exhaustive_minimax_on_residual_families(fam):
    value = _exhaustive_value(fam)
    assert _Solver().value(fam) == value
    assert oracle._SOLVER.value(fam) == value
    # Probing each support station alone finishes, so the search needs no round cap.
    support = reduce(or_, fam)
    assert value <= support.bit_count()
    # The witness query is the least mask inside the support whose children
    # all finish in time.
    first = next(
        query
        for query in range(1, support + 1)
        if not query & ~support
        and (children := _exhaustive_children(fam, query)) is not None
        and all(_exhaustive_value(child) < value for child in children)
    )
    assert _Solver().best_query(fam) == first


def _reference_split(fam, query):
    """(outcome, child) pairs in feedback order: silence (-1), collision (-2),
    then singles by sender bit, each single's child struck and re-sorted."""
    silence, collision, singles = [], [], {}
    for member in fam:
        hit = member & query
        if not hit:
            silence.append(member)
        elif hit & (hit - 1):
            collision.append(member)
        else:
            singles.setdefault(hit, []).append(member & ~hit)
    parts = [(outcome, tuple(group)) for outcome, group in ((-1, silence), (-2, collision)) if group]
    return parts + [(bit, tuple(sorted(group))) for bit, group in sorted(singles.items())]


class _ReferenceSearch:
    """The decision search written out in full with its own split and its own
    informativeness test, trying queries by their largest child, as the solver
    did before its expansion was shared with the witness search."""

    def __init__(self):
        self.memo = {}

    def value(self, fam):
        t = fam[0].bit_count()
        while not self.solvable(fam, t):
            t += 1
        return t

    def solvable(self, fam, t):
        remaining = fam[0].bit_count()
        if remaining == 0:
            return True
        bounds = self.memo.get(fam)
        lo, hi = bounds if bounds is not None else (remaining, reduce(or_, fam).bit_count())
        if t < lo:
            return False
        if t >= hi:
            return True
        options = []
        for query in _class_queries(_twin_classes(fam)):
            parts = _reference_split(fam, query)
            if len(parts) > 1 or parts[0][0] >= 0:
                options.append(sorted((child for _, child in parts), key=len, reverse=True))
        options.sort(key=lambda children: len(children[0]))
        for children in options:
            if all(self.solvable(child, t - 1) for child in children):
                self.memo[fam] = (lo, t)
                return True
        self.memo[fam] = (t + 1, hi)
        return False


def test_search_memo_matches_the_reference_search():
    # The memo records which questions the search asked and how they ended,
    # so equal memos mean the same queries were tried in the same order.
    for n, d in [(8, 4), (10, 3), (16, 2)]:
        fam = initial_state(GameConfig(n, d)).family
        reference, solver = _ReferenceSearch(), _Solver()
        assert solver.value(fam) == reference.value(fam), (n, d)
        assert solver.memo == reference.memo, (n, d)


def test_initial_family_is_one_twin_class():
    for n, d in [(1, 1), (4, 2), (6, 3), (8, 2)]:
        classes = _twin_classes(initial_state(GameConfig(n, d)).family)
        assert len(classes) == 1
        assert len(_class_queries(classes)) == n + 1


def test_asymmetric_family_splits_into_classes():
    # Candidates {1,2} and {1,3}: stations 2 and 3 are twins, station 1 is not.
    fam = (S([1, 2]).mask, S([1, 3]).mask)
    assert _twin_classes(fam) == [[S([1]).mask], [S([2]).mask, S([3]).mask]]
    assert sorted(_class_queries(_twin_classes(fam))) == [0, 1, 2, 3, 6, 7]


def test_witness_tree_depth_matches_value():
    for n, d in [(2, 1), (2, 2), (3, 2), (4, 2), (4, 3), (5, 2)]:
        cfg = GameConfig(n, d)
        tree = optimal_strategy_tree(cfg)
        report = check_normal_form(tree)
        assert report.max_depth == OPTIMAL_ROUNDS[(n, d)] and report.property_holds


def test_witness_tree_2_1_root_is_full_probe():
    tree = optimal_strategy_tree(GameConfig(2, 1))
    assert tree.root.query == S([1, 2])
    assert check_normal_form(tree).max_depth == 1


def test_witness_tree_replays_as_a_strategy():
    for n, d in [(3, 2), (4, 2)]:
        cfg = GameConfig(n, d)
        replay = tree_strategy(optimal_strategy_tree(cfg))
        worst, _ = worst_case_rounds(replay, cfg)
        assert worst == OPTIMAL_ROUNDS[(n, d)]


def test_optimal_strategy_achieves_the_value_everywhere():
    for n, d in [(2, 2), (3, 2), (4, 2), (4, 3)]:
        cfg = GameConfig(n, d)
        strat = optimal_strategy()
        worst, _ = worst_case_rounds(strat, cfg)
        assert worst == OPTIMAL_ROUNDS[(n, d)]


def test_exact_adversary_cannot_push_optimal_play_past_the_value():
    # Upper bound (optimal strategy) meets lower bound (exact adversary).
    for n, d in [(3, 2), (4, 2), (2, 2)]:
        cfg = GameConfig(n, d)
        strat = optimal_strategy()
        result = run_adversarial(strat, make_exact_adversary(strat), cfg)
        assert len(result.transcript.rounds) == OPTIMAL_ROUNDS[(n, d)]
        assert result.completed


def test_optimal_strategy_recovers_from_any_opening():
    # Force an arbitrary first probe, then let the optimal continuation
    # take over: it replays the transcript and still finishes within one
    # round of the overall optimum (the opening wastes at most itself).
    cfg = GameConfig(4, 2)
    continuation = optimal_strategy()
    for opening in [(1,), (1, 2), (1, 2, 3, 4)]:

        def with_opening(config, transcript, _first=S(opening)):
            if not transcript.rounds:
                return _first
            return continuation.next_action(config, transcript)

        strat = Strategy(f"opening-{len(opening)}", with_opening)
        for live in [(1, 2), (2, 3), (3, 4)]:
            result = run_fixed(strat, cfg, S(live))
            assert result.completed
            assert len(result.transcript.rounds) <= 1 + OPTIMAL_ROUNDS[(4, 2)]


def test_optimal_strategy_state_is_the_residual_family():
    # Its state after each round is the refined knowledge state, and its
    # query the solver's answer on the family with the revealed stations struck.
    # The game ends through next_action's stop rule once d stations are revealed.
    for n, d in [(4, 2), (5, 2), (5, 3), (6, 3)]:
        cfg = GameConfig(n, d)
        strat = optimal_strategy()
        solver = oracle._SOLVER
        for ids in combinations(range(1, n + 1), d):
            live = StationSet.from_ids(ids)
            state, memory, transcript = initial_state(cfg), strat.start(cfg), Transcript(cfg)
            while True:
                assert memory == state
                struck = state.revealed
                fam = tuple(sorted(c & ~struck for c in state.family))
                query = strat.next_action(cfg, transcript)
                if struck.bit_count() >= d:
                    assert query is None
                    break
                assert query == strat.query(cfg, memory) == StationSet(solver.best_query(fam))
                feedback = evaluate_query(query, live)
                state, memory = refine(state, query, feedback), strat.step(memory, query, feedback)
                transcript = transcript.extend(query, feedback)
    with pytest.raises(Inconsistent):
        strat.step(strat.start(cfg), StationSet.from_ids([1]), COLLISION)
