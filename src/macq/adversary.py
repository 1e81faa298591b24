"""Adaptive adversaries that choose feedback instead of fixing a live set.

An adversary tracks a ``KnowledgeState`` (defined in the channel module, with
``initial_state``, every game's start position): the masks of the live sets
still consistent with every answer given so far, plus the mask of the
stations revealed by singles.  Its answers pick among the children
``branches`` gives, so each keeps at least one candidate alive and a completed
game always has a witness live set that would have produced the same
transcript verbatim.
"""

from __future__ import annotations

from collections.abc import Callable

from .channel import (
    COLLISION,
    Feedback,
    KnowledgeState,
    StationSet,
    Transcript,
    _of_type,
    _shown,
    branches,
)
from .errors import Inconsistent
from .strategies import Strategy, fold_strategy


def refine(state: KnowledgeState, query: StationSet, feedback: Feedback) -> KnowledgeState:
    """Filter the candidate family by one observed round, keeping its order."""
    _of_type("feedback", feedback, Feedback)
    for drawn, child in branches(state, query):
        if drawn == feedback:
            return child
    heard = f"{{'single': {_shown(feedback.station)}}}" if feedback.is_single else repr(feedback.tag.value)
    raise Inconsistent(f"feedback {heard} on query {_shown(query)} eliminates every candidate")


def _best(scores: dict[Feedback, int]) -> Feedback:
    # Every adversary's answer rule: the highest score, then collision,
    # silence, and singles by lowest id.
    return min(scores, key=lambda fb: (-scores[fb], fb != COLLISION, fb.station or 0))


def greedy_answer(state: KnowledgeState, query: StationSet) -> Feedback:
    """Feedback keeping the largest surviving family (ties broken by ``_best``)."""
    return _best({feedback: len(child.family) for feedback, child in branches(state, query)})


def exact_answer(
    state: KnowledgeState,
    query: StationSet,
    strategy: Strategy,
    transcript: Transcript,
    memo: dict | None = None,
) -> Feedback:
    """Feedback maximizing how long the given strategy still has to run.

    The strategy's future moves are fixed by replaying it on the extended
    transcript, so the adversary simply maximizes over feedback branches
    (ties broken by ``_best``).  ``transcript`` must be the rounds that produced
    ``state``.  Without a ``memo`` every branch is folded node by node, the
    reference ``make_exact_adversary`` is checked against; with one,
    ``fold_strategy`` shares the subtrees it has folded before.
    """
    # Each branch scores the rounds the strategy can still be forced to play below it.
    return _best({
        feedback: fold_strategy(
            strategy, child, transcript.extend(query, feedback),
            lambda family, revealed: 0, lambda _, below: 1 + max(depth for _, _, depth in below),
            memo=memo,
        )
        for feedback, child in branches(state, query)
    })


# An adversary as the engine sees it: (state, query, transcript) -> feedback.
Adversary = Callable[[KnowledgeState, StationSet, Transcript], Feedback]


def greedy_adversary(state: KnowledgeState, query: StationSet, transcript: Transcript) -> Feedback:
    return greedy_answer(state, query)


def make_exact_adversary(strategy: Strategy) -> Adversary:
    """Worst-case foil for one specific strategy.

    Every round is answered by ``exact_answer``, given one fold memo the
    adversary keeps for its whole life, keyed by config as well: a subtree
    below a strategy state and residual family met before, in this game or
    an earlier one, is not folded again.
    """
    memo: dict = {}
    return lambda state, query, transcript: exact_answer(state, query, strategy, transcript, memo)
