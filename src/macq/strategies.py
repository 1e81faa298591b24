"""Deterministic adaptive strategies for resolving the live stations.

A strategy is a pure function of (config, transcript): it returns the next
query, or None once it has nothing further to ask.  Keeping strategies
stateless makes replays, decision-tree construction, and adversarial
analysis straightforward: ``fold_strategy`` drives one strategy over every
live set at once.  The decision tree and its normal form (the same walk
with revealed stations dropped from each query), the worst-case sweep, the
exact adversary's look-ahead and the oracle's witness tree are folds of
that one walk.
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
    evaluate_query,
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
    normal: bool = False,
) -> T:
    """Fold the strategy's decision tree below one position.

    A position is the family of live-set masks consistent with the transcript
    plus the mask of stations its singles revealed.  The game stops once d
    stations are revealed or the strategy returns None; such a position folds
    to ``leaf(family)``.  Otherwise its query splits the family by feedback and
    ``node(query, branches)`` combines the folded children as (feedback, value)
    pairs in feedback order.

    With ``normal`` set the walk plays each query minus the revealed
    stations: that reduced query splits the family and reaches ``node``, while
    the strategy's transcript keeps its own query and the feedback that query
    drew.  Every member of a group holds the revealed stations, so any one of
    them gives that feedback.
    """

    def visit(family: Sequence[int], transcript: Transcript, revealed: int) -> T:
        if revealed.bit_count() >= config.d:
            return leaf(family)
        query = checked_query(strategy, config, transcript, round_cap)
        if query is None:
            return leaf(family)
        played = StationSet(query.mask & ~revealed) if normal else query
        branches = []  # a loop, not a comprehension: one frame per round of depth
        for outcome, group in split_by_feedback(family, played.mask):
            feedback = outcome_feedback(outcome)
            drawn = evaluate_query(query, StationSet(group[0])) if normal else feedback
            child = visit(group, transcript.extend(query, drawn),
                          revealed | outcome if outcome > 0 else revealed)
            branches.append((feedback, child))
        return node(played, branches)

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
    return StationSet((1 << hi) - (1 << (lo - 1)))


def _replay_interval_stack(config: GameConfig, transcript: Transcript) -> list[tuple[int, int]]:
    """Recompute the pending interval stack from the transcript alone.

    The probe order is root first, then on every collision the interval
    [lo..hi] splits at mid = ceil((lo+hi)/2) into [lo..mid-1] and [mid..hi],
    left half probed next.  Silence and single discharge the interval.
    """
    stack: list[tuple[int, int]] = [(1, config.n)]
    for query, feedback in transcript.rounds:
        if not stack:
            raise DomainError("transcript continues past an empty interval stack")
        lo, hi = stack.pop()
        if query != _interval_set(lo, hi):
            raise DomainError("transcript was not produced by tree_split")
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
