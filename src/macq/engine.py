"""Game engine: run strategies against fixed live sets or adversaries.

A game ends as soon as d distinct stations have transmitted alone, whether or
not the strategy would keep querying, or earlier if the strategy itself stops.
``strategies.checked_query`` applies the round cap (default 4n + 16), which
turns non-terminating strategies into errors instead of hangs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .adversary import (
    DEFAULT_ENUMERATION_BUDGET,
    Adversary,
    initial_state,
    refine,
)
from .channel import (
    Feedback,
    GameConfig,
    StationSet,
    Transcript,
    evaluate_query,
    format_station_set,
    transcript_to_doc,
    transmitted_set,
)
from .errors import AdversaryInconsistent, DomainError, Inconsistent
from .strategies import Strategy, checked_query, default_round_cap, fold_strategy


@dataclass(frozen=True)
class GameResult:
    """One finished game: its transcript plus summary fields."""

    transcript: Transcript
    rounds_used: int
    completed: bool
    witness_live: StationSet


def run_fixed(
    strategy: Strategy,
    config: GameConfig,
    live: StationSet,
    round_cap: int | None = None,
) -> GameResult:
    """Play one game against a fixed hidden live set."""
    if not live.issubset(config.all_stations):
        raise DomainError(f"live set {format_station_set(live)} exceeds n={config.n}")
    if len(live) != config.d:
        raise DomainError(f"live set must have exactly d={config.d} stations, got {len(live)}")
    transcript = Transcript(config)
    while len(transmitted_set(transcript)) < config.d:
        action = checked_query(strategy, config, transcript, round_cap)
        if action is None:
            break
        transcript = transcript.extend(action, evaluate_query(action, live))
    completed = transmitted_set(transcript) == live
    return GameResult(transcript, len(transcript.rounds), completed, live)


def worst_case_rounds(
    strategy: Strategy,
    config: GameConfig,
    round_cap: int | None = None,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[int, StationSet]:
    """Maximum rounds_used over every size-d live set, with a witness.

    A live set's rounds_used is the depth of its leaf in the strategy's
    decision tree, so one fold of that tree, never built, gives the maximum.
    The witness is the first deepest live set in ascending id order, the
    order of ``itertools.combinations``.
    """

    def leaf(family: Sequence[int]) -> tuple[int, int]:
        return 0, min(family, key=_id_order)

    def node(
        query: StationSet, branches: list[tuple[Feedback, tuple[int, int]]]
    ) -> tuple[int, int]:
        deepest = max(depth for _, (depth, _) in branches)
        witness = min((live for _, (depth, live) in branches if depth == deepest), key=_id_order)
        return 1 + deepest, witness

    family = [live.mask for live in initial_state(config, budget=budget).candidates]
    rounds, witness = fold_strategy(
        strategy, config, family, Transcript(config), 0, leaf, node, round_cap
    )
    return rounds, StationSet(witness)


def _id_order(mask: int) -> tuple[int, ...]:
    return StationSet(mask).members


def run_adversarial(
    strategy: Strategy,
    adversary: Adversary,
    config: GameConfig,
    round_cap: int | None = None,
) -> GameResult:
    """Play one game with feedback chosen by an adversary.

    The witness is the least surviving candidate; replaying it as a fixed
    live set reproduces the same transcript round for round.
    """
    state = initial_state(config)
    transcript = Transcript(config)
    while len(state.transmitted) < config.d:
        action = checked_query(strategy, config, transcript, round_cap)
        if action is None:
            break
        feedback = adversary(state, action, transcript)
        try:
            state = refine(state, action, feedback)
        except Inconsistent as exc:
            raise AdversaryInconsistent(str(exc)) from exc
        transcript = transcript.extend(action, feedback)
    witness = min(state.candidates)
    completed = transmitted_set(transcript) == witness
    return GameResult(transcript, len(transcript.rounds), completed, witness)


def game_result_to_doc(result: GameResult) -> dict[str, object]:
    """Transcript document extended with the engine's summary fields."""
    doc = transcript_to_doc(result.transcript, result.witness_live)
    doc["rounds_used"] = result.rounds_used
    doc["completed"] = result.completed
    doc["witness_live"] = list(result.witness_live)
    return doc
