"""Adaptive adversaries that choose feedback instead of fixing a live set.

An adversary tracks a knowledge state: the family of live sets still
consistent with every answer given so far, plus the stations already revealed
by single transmissions.  Any answer it gives must keep at least one
candidate alive, so a completed game always has a witness live set that would
have produced the same transcript verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .channel import (
    Feedback,
    GameConfig,
    StationSet,
    Transcript,
    format_station_set,
    outcome_feedback,
    split_by_feedback,
)
from .errors import BudgetExceeded, Inconsistent
from .strategies import Strategy, fold_strategy

DEFAULT_ENUMERATION_BUDGET = 10**6


@dataclass(frozen=True)
class KnowledgeState:
    """Surviving candidate family (sorted by mask) plus revealed stations."""

    config: GameConfig
    candidates: tuple[StationSet, ...]
    transmitted: StationSet


def initial_state(config: GameConfig, *, budget: int = DEFAULT_ENUMERATION_BUDGET) -> KnowledgeState:
    """Knowledge state before any round: every size-d subset of 1..n."""
    total = math.comb(config.n, config.d)
    if total > budget:
        raise BudgetExceeded(
            f"C({config.n},{config.d}) = {total} candidate live sets exceed budget {budget}"
        )
    candidates = sorted(
        StationSet.from_ids(ids) for ids in combinations(range(1, config.n + 1), config.d)
    )
    return KnowledgeState(config, tuple(candidates), StationSet())


def _masks(state: KnowledgeState) -> list[int]:
    return [candidate.mask for candidate in state.candidates]


def refine(state: KnowledgeState, query: StationSet, feedback: Feedback) -> KnowledgeState:
    """Filter the candidate family by one observed round."""
    for outcome, group in split_by_feedback(_masks(state), query.mask):
        if outcome_feedback(outcome) == feedback:
            survivors = tuple(map(StationSet, group))
            revealed = StationSet(outcome) if outcome > 0 else StationSet()
            return KnowledgeState(state.config, survivors, state.transmitted | revealed)
    raise Inconsistent(
        f"feedback {feedback} on query {format_station_set(query)} eliminates every candidate"
    )


def _preference(feedback: Feedback) -> tuple[int, int]:
    # Fixed tie-break order: collision, then silence, then singles by id.
    if feedback.tag.value == "collision":
        return (0, 0)
    if feedback.tag.value == "silence":
        return (1, 0)
    return (2, feedback.station or 0)


def greedy_answer(state: KnowledgeState, query: StationSet) -> Feedback:
    """Feedback keeping the largest surviving family (ties by preference)."""
    sizes = {
        outcome_feedback(outcome): len(survivors)
        for outcome, survivors in split_by_feedback(_masks(state), query.mask)
    }
    return min(sizes, key=lambda fb: (-sizes[fb], _preference(fb)))


def _forced_rounds(state: KnowledgeState, strategy: Strategy, transcript: Transcript) -> int:
    """Rounds the strategy can still be forced to play from this position."""
    return fold_strategy(
        strategy, state.config, _masks(state), transcript, state.transmitted.mask,
        lambda family: 0, lambda query, branches: 1 + max(depth for _, depth in branches),
    )


def exact_answer(
    state: KnowledgeState,
    query: StationSet,
    strategy: Strategy,
    transcript: Transcript,
) -> Feedback:
    """Feedback maximizing how long the given strategy still has to run.

    The strategy's future moves are fixed by replaying it on the extended
    transcript, so the adversary simply maximizes over feedback branches
    (ties by preference).  ``transcript`` must be the rounds that produced
    ``state``.
    """
    lengths: dict[Feedback, int] = {}
    for outcome, _ in split_by_feedback(_masks(state), query.mask):
        feedback = outcome_feedback(outcome)
        child = refine(state, query, feedback)
        lengths[feedback] = 1 + _forced_rounds(child, strategy, transcript.extend(query, feedback))
    return min(lengths, key=lambda fb: (-lengths[fb], _preference(fb)))


# An adversary as the engine sees it: (state, query, transcript) -> feedback.
Adversary = Callable[[KnowledgeState, StationSet, Transcript], Feedback]


def greedy_adversary(state: KnowledgeState, query: StationSet, transcript: Transcript) -> Feedback:
    return greedy_answer(state, query)


def make_exact_adversary(strategy: Strategy) -> Adversary:
    """Worst-case foil for one specific strategy."""

    def answer(state: KnowledgeState, query: StationSet, transcript: Transcript) -> Feedback:
        return exact_answer(state, query, strategy, transcript)

    return answer
