"""Game engine: run strategies against fixed live sets or adversaries.

One loop plays every game on a knowledge state; a fixed live set is the state
holding it alone.  A game ends as soon as d distinct stations have transmitted
alone, whether or not the strategy would keep querying, or earlier if the
strategy itself stops.  ``strategies.checked_query`` decides that end for
the game loop and the tree walk alike, and applies the fixed round cap of
4n + 16, which turns non-terminating strategies into errors instead of hangs.
``game_result_to_doc`` writes the one game document; nothing reads one back.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import adversary
from .channel import (
    Feedback,
    Frozen,
    GameConfig,
    KnowledgeState,
    StationSet,
    Transcript,
    evaluate_query,
    feedback_to_json,
    initial_state,
)
from .strategies import Strategy, checked_query, fold_strategy


class GameResult(Frozen):
    """One finished game: its transcript plus summary fields."""

    __slots__ = ("transcript", "rounds_used", "completed", "witness_live")
    transcript: Transcript
    rounds_used: int
    completed: bool
    witness_live: StationSet


def run_fixed(strategy: Strategy, config: GameConfig, live: StationSet) -> GameResult:
    """Play one game against a fixed hidden live set."""
    config.check_live_set(live)
    return _play(strategy, lambda state, query, transcript: evaluate_query(query, live),
                 config, KnowledgeState((live.mask,), 0))


def worst_case_rounds(strategy: Strategy, config: GameConfig) -> tuple[int, StationSet]:
    """Maximum rounds_used over every size-d live set, with a witness.

    A live set's rounds_used is the depth of its leaf in the strategy's
    decision tree, so one fold of that tree, never built, gives the maximum.
    The fold keeps a memo, so a subtree below positions with the same
    strategy state and residual family is folded once.  Each subtree's
    witness is therefore kept without the stations revealed above it, and a
    node adds back those its branch revealed.  The witness is the first
    deepest live set in ascending id order, the order of
    ``itertools.combinations``; striking the stations that every candidate
    holds keeps that order.
    """

    def leaf(family: Sequence[int], revealed: int) -> tuple[int, int]:
        return 0, min(family, key=lambda live: tuple(StationSet(live))) & ~revealed

    def node(
        query: StationSet, branches: list[tuple[Feedback, int, tuple[int, int]]]
    ) -> tuple[int, int]:
        deepest = max(depth for _, _, (depth, _) in branches)
        return 1 + deepest, min(
            (live | fresh for _, fresh, (depth, live) in branches if depth == deepest),
            key=lambda live: tuple(StationSet(live)))

    rounds, witness = fold_strategy(strategy, initial_state(config), Transcript(config),
                                    leaf, node, memo={})
    return rounds, StationSet(witness)


def run_adversarial(strategy: Strategy, adversary: adversary.Adversary, config: GameConfig) -> GameResult:
    """Play one game with feedback chosen by an adversary.

    The witness is the least surviving candidate; replaying it as a fixed
    live set reproduces the same transcript round for round.  An answer that
    no candidate gives raises ``Inconsistent``.
    """
    return _play(strategy, adversary, config, initial_state(config))


def _play(strategy: Strategy, answer: adversary.Adversary, config: GameConfig,
          state: KnowledgeState) -> GameResult:
    """Play ``config``'s game from ``state`` until d stations are revealed or the strategy stops."""
    transcript, memory = Transcript(config), strategy.start(config)
    while True:
        action = checked_query(strategy, config, memory, len(transcript.rounds), state.revealed)
        if action is None:
            break
        feedback = answer(state, action, transcript)
        state = adversary.refine(state, action, feedback)
        transcript = transcript.extend(action, feedback)
        memory = strategy.step(memory, action, feedback)
    witness = min(state.family)
    return GameResult(transcript, len(transcript.rounds), state.revealed == witness,
                      StationSet(witness))


def game_result_to_doc(result: GameResult) -> dict[str, object]:
    """The game document, fields in the fixed order n, d, live, rounds,
    rounds_used, completed, witness_live; ``live`` is the witness too."""
    config = result.transcript.config
    return {
        "n": config.n,
        "d": config.d,
        "live": list(result.witness_live),
        "rounds": [
            {"query": list(query), "feedback": feedback_to_json(feedback)}
            for query, feedback in result.transcript.rounds
        ],
        "rounds_used": result.rounds_used,
        "completed": result.completed,
        "witness_live": list(result.witness_live),
    }
