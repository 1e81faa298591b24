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

from typing import Callable, Sequence

from .channel import (
    COLLISION,
    Feedback,
    KnowledgeState,
    StationSet,
    Transcript,
    branches,
    feedback_to_json,
    format_station_set,
)
from .errors import Inconsistent
from .strategies import Strategy, fold_strategy


def refine(state: KnowledgeState, query: StationSet, feedback: Feedback) -> KnowledgeState:
    """Filter the candidate family by one observed round, keeping its order."""
    for drawn, child in branches(state, query):
        if drawn == feedback:
            return child
    raise Inconsistent(
        f"feedback {feedback_to_json(feedback)!r} on query {format_station_set(query)} "
        "eliminates every candidate"
    )


def _rank(feedback: Feedback, score: int) -> tuple[int, bool, int]:
    # Every adversary's answer rule, smallest first: the highest score, then
    # collision, silence, and singles by lowest id.
    return -score, feedback != COLLISION, feedback.station or 0


def greedy_answer(state: KnowledgeState, query: StationSet) -> Feedback:
    """Feedback keeping the largest surviving family (ties broken by ``_rank``)."""
    sizes = {feedback: len(child.family) for feedback, child in branches(state, query)}
    return min(sizes, key=lambda fb: _rank(fb, sizes[fb]))


def exact_answer(
    state: KnowledgeState,
    query: StationSet,
    strategy: Strategy,
    transcript: Transcript,
) -> Feedback:
    """Feedback maximizing how long the given strategy still has to run.

    The strategy's future moves are fixed by replaying it on the extended
    transcript, so the adversary simply maximizes over feedback branches
    (ties broken by ``_rank``).  ``transcript`` must be the rounds that produced
    ``state``.
    """
    lengths = {
        # One round now, plus the rounds the strategy can be forced to play below.
        feedback: 1 + fold_strategy(
            strategy, child, transcript.extend(query, feedback),
            lambda family, revealed: 0, lambda _, below: 1 + max(depth for _, _, depth in below),
        )
        for feedback, child in branches(state, query)
    }
    return min(lengths, key=lambda fb: _rank(fb, lengths[fb]))


# An adversary as the engine sees it: (state, query, transcript) -> feedback.
Adversary = Callable[[KnowledgeState, StationSet, Transcript], Feedback]


def greedy_adversary(state: KnowledgeState, query: StationSet, transcript: Transcript) -> Feedback:
    return greedy_answer(state, query)


# The line an exact adversary forces below a position: (rounds left, the
# strategy's query, the answer, the line below that answer), or
# (0, None, None, None) where the game ends.
Line = tuple[int, StationSet | None, Feedback | None, "Line | None"]


def make_exact_adversary(strategy: Strategy) -> Adversary:
    """Worst-case foil for one specific strategy.

    Every answer equals ``exact_answer``'s, but one fold serves a whole game.
    The fold keeps only the line the adversary forces below each node, so
    it holds one path, not the tree.  Each later call follows that line
    while the game stays on it (the transcript the line starts from, and the
    line's query), and any other position is folded afresh.  The adversary
    keeps one fold memo for its whole life, keyed by config as well, so a
    line below a strategy state and residual family met before, in this game
    or an earlier one, is not folded again.
    """
    expected: Transcript | None = None  # the position the line starts from
    line: Line = (0, None, None, None)
    memo: dict = {}

    def leaf(family: Sequence[int], revealed: int) -> Line:
        return 0, None, None, None

    def node(query: StationSet, children: list[tuple[Feedback, int, Line]]) -> Line:
        feedback, _, below = min(children, key=lambda branch: _rank(branch[0], branch[2][0]))
        return 1 + below[0], query, feedback, below

    def answer(state: KnowledgeState, query: StationSet, transcript: Transcript) -> Feedback:
        nonlocal expected, line
        if transcript != expected or line[1] != query:
            line = node(query, [(feedback, child.revealed ^ state.revealed, fold_strategy(
                strategy, child, transcript.extend(query, feedback), leaf, node, memo=memo,
            )) for feedback, child in branches(state, query)])
        _, _, feedback, line = line
        expected = transcript.extend(query, feedback)
        return feedback

    return answer
