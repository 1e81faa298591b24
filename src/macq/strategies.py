"""Deterministic adaptive strategies for resolving the live stations.

A strategy is a pure function of (config, transcript): it returns the next
query, or None once it has nothing further to ask.  Keeping strategies
stateless makes replays, decision-tree construction, and adversarial
analysis straightforward: ``fold_strategy`` drives one strategy over every
live set at once, and the tree builder, the worst-case sweep and the exact
adversary's look-ahead are folds of that one walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .channel import (
    Feedback,
    FeedbackTag,
    GameConfig,
    StationSet,
    Transcript,
    format_station_set,
    outcome_feedback,
    split_by_feedback,
    transmitted_set,
)
from .errors import CapExceeded, DomainError, InvalidQuery

NextAction = StationSet | None
StrategyFn = Callable[[GameConfig, Transcript], NextAction]
T = TypeVar("T")


@dataclass(frozen=True)
class Strategy:
    """Named strategy wrapper; ``next_action`` does all the work."""

    name: str
    next_action: StrategyFn

    def __call__(self, config: GameConfig, transcript: Transcript) -> NextAction:
        return self.next_action(config, transcript)


def default_round_cap(config: GameConfig) -> int:
    return 4 * config.n + 16


def checked_query(strategy: Strategy, config: GameConfig, transcript: Transcript,
                  round_cap: int | None) -> NextAction:
    """The strategy's next query, refused past the round cap or beyond n."""
    action = strategy.next_action(config, transcript)
    if action is None:
        return None
    cap = default_round_cap(config) if round_cap is None else round_cap
    if len(transcript.rounds) >= cap:
        raise CapExceeded(
            f"strategy {strategy.name!r} still querying after {cap} rounds (n={config.n}, d={config.d})"
        )
    if not action.issubset(config.all_stations):
        raise InvalidQuery(
            f"strategy {strategy.name!r} queried stations "
            f"{format_station_set(action - config.all_stations)} beyond n={config.n}"
        )
    return action


def fold_strategy(
    strategy: Strategy,
    config: GameConfig,
    family: Sequence[int],
    transcript: Transcript,
    revealed: int,
    leaf: Callable[[Sequence[int]], T],
    node: Callable[[StationSet, list[tuple[Feedback, T]]], T],
    round_cap: int | None = None,
) -> T:
    """Fold the strategy's decision tree below one position.

    A position is the family of live-set masks consistent with the transcript
    plus the mask of stations its singles revealed.  The game stops once d
    stations are revealed or the strategy returns None; such a position folds
    to ``leaf(family)``.  Otherwise its query splits the family by feedback and
    ``node(query, branches)`` combines the folded children as (feedback, value)
    pairs in feedback order.
    """

    def visit(family: Sequence[int], transcript: Transcript, revealed: int) -> T:
        if revealed.bit_count() >= config.d:
            return leaf(family)
        query = checked_query(strategy, config, transcript, round_cap)
        if query is None:
            return leaf(family)
        branches = []  # a loop, not a comprehension: one frame per round of depth
        for outcome, group in split_by_feedback(family, query.mask):
            feedback = outcome_feedback(outcome)
            child = visit(group, transcript.extend(query, feedback),
                          revealed | outcome if outcome > 0 else revealed)
            branches.append((feedback, child))
        return node(query, branches)

    return visit(family, transcript, revealed)


def linear_scan(config: GameConfig, transcript: Transcript) -> NextAction:
    """Probe singletons {1}, {2}, ... in order; stop after d singles or {n}."""
    if len(transmitted_set(transcript)) >= config.d:
        return None
    played = len(transcript.rounds)
    if played >= config.n:
        return None
    return StationSet.singleton(played + 1)


def _interval_set(lo: int, hi: int) -> StationSet:
    return StationSet.from_ids(range(lo, hi + 1))


def _replay_interval_stack(config: GameConfig, transcript: Transcript) -> list[tuple[int, int]]:
    """Recompute the pending interval stack from the transcript alone.

    The probe order is root first, then on every collision the interval
    [lo..hi] splits at mid = ceil((lo+hi)/2) into [lo..mid-1] and [mid..hi],
    left half probed next.  Silence and single discharge the interval.
    """
    stack: list[tuple[int, int]] = [(1, config.n)]
    for query, feedback in transcript.rounds:
        if not stack:
            raise ValueError("transcript continues past an empty interval stack")
        lo, hi = stack.pop()
        if query != _interval_set(lo, hi):
            raise ValueError("transcript was not produced by tree_split")
        if feedback.tag is FeedbackTag.COLLISION:
            mid = (lo + hi + 1) // 2
            stack.append((mid, hi))
            stack.append((lo, mid - 1))
    return stack


def tree_split(config: GameConfig, transcript: Transcript) -> NextAction:
    """Binary interval splitting: probe [1..n], split every collision in half."""
    if len(transmitted_set(transcript)) >= config.d:
        return None
    stack = _replay_interval_stack(config, transcript)
    if not stack:
        return None
    return _interval_set(*stack[-1])


def worst_case_formula_estimate(n: int, d: int) -> int:
    """Closed-form round estimate d * (ceil(lg2(max(n/d, 2))) + 2).

    The inner ceiling is computed exactly: the smallest t with d * 2**t >= n,
    floored at 1 so the max(n/d, 2) clamp never vanishes.
    """
    if not 1 <= d <= n:
        raise DomainError(f"need 1 <= d <= n, got n={n} d={d}")
    t = 0
    while d << t < n:
        t += 1
    return d * (max(t, 1) + 2)


def scripted(name: str, queries: Sequence[StationSet]) -> Strategy:
    """Strategy that plays a fixed list of queries, then stops.

    Useful for exercising the engine and the tree normalizer with
    deliberately clumsy behavior (repeats, overlaps, early stops).
    """
    fixed = tuple(queries)

    def next_action(config: GameConfig, transcript: Transcript) -> NextAction:
        played = len(transcript.rounds)
        if played >= len(fixed):
            return None
        return fixed[played]

    return Strategy(name, next_action)


LINEAR_SCAN = Strategy("linear", linear_scan)
TREE_SPLIT = Strategy("tree", tree_split)

STRATEGIES: dict[str, Strategy] = {
    LINEAR_SCAN.name: LINEAR_SCAN,
    TREE_SPLIT.name: TREE_SPLIT,
}


def get_strategy(name: str) -> Strategy:
    try:
        return STRATEGIES[name]
    except KeyError:
        valid = ", ".join(sorted(STRATEGIES))
        raise DomainError(f"unknown strategy {name!r}; valid names: {valid}") from None
