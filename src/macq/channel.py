"""Core model of a slotted multiple access channel with collision detection.

Stations 1..n share the channel.  Each round a chosen subset of stations (the
query) transmits.  All stations hear one of three outcomes: silence when no
member of the query is live, a single successful transmission carrying the
sender's identity when exactly one is live, and a collision when two or more
are live.  A hidden set of exactly d live stations must each get one clean
solo transmission; everything else in this package is built on the three
value types below and on ``evaluate_query``.

A position is a ``KnowledgeState``: the live sets consistent with the feedback
so far plus the stations revealed by singles.  ``branches`` moves it one
round; ``split_edges`` is the same rule on raw masks, for the strategy walk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import DomainError

DEFAULT_STATION_CAP = 64
STATION_CAP_ENV = "MACQ_MAX_N"


def station_cap() -> int:
    """Largest permitted n; override with the MACQ_MAX_N environment variable."""
    raw = os.environ.get(STATION_CAP_ENV)
    if raw is None:
        return DEFAULT_STATION_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise DomainError(f"{STATION_CAP_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise DomainError(f"{STATION_CAP_ENV} must be positive, got {cap}")
    return cap


@dataclass(frozen=True, order=True)
class StationSet:
    """Immutable set of 1-based station ids, stored as a bitmask.

    Bit i-1 of ``mask`` is set when station i belongs to the set.  Python
    integers are unbounded, so sets work unchanged past the default 64-station
    cap when the cap is raised.
    """

    mask: int = 0

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> StationSet:
        mask = 0
        for i in ids:
            if i < 1:
                raise DomainError(f"station ids are 1-based, got {i}")
            mask |= 1 << (i - 1)
        return cls(mask)

    @classmethod
    def singleton(cls, station: int) -> StationSet:
        return cls.from_ids((station,))

    @classmethod
    def full(cls, n: int) -> StationSet:
        if n < 0:
            raise DomainError(f"set size must be non-negative, got {n}")
        return cls((1 << n) - 1)

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length()
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __contains__(self, station: int) -> bool:
        return station >= 1 and (self.mask >> (station - 1)) & 1 == 1

    def __and__(self, other: StationSet) -> StationSet:
        return StationSet(self.mask & other.mask)

    def __or__(self, other: StationSet) -> StationSet:
        return StationSet(self.mask | other.mask)

    def __sub__(self, other: StationSet) -> StationSet:
        return StationSet(self.mask & ~other.mask)

    def issubset(self, other: StationSet) -> bool:
        return self.mask & ~other.mask == 0

    def isdisjoint(self, other: StationSet) -> bool:
        return self.mask & other.mask == 0

    def __repr__(self) -> str:
        return f"StationSet({{{', '.join(map(str, self))}}})"


def format_station_set(stations: StationSet) -> str:
    """Render a set as ``{1,3}`` with ascending ids and no spaces."""
    return "{" + ",".join(map(str, stations)) + "}"


@dataclass(frozen=True)
class GameConfig:
    """Instance parameters: n stations, exactly d of them live."""

    n: int
    d: int

    def __post_init__(self) -> None:
        cap = station_cap()
        if not 1 <= self.n <= cap:
            raise DomainError(
                f"n must satisfy 1 <= n <= {cap} (raise {STATION_CAP_ENV} for more), got {self.n}"
            )
        if not 1 <= self.d <= self.n:
            raise DomainError(f"d must satisfy 1 <= d <= n={self.n}, got {self.d}")

    @property
    def all_stations(self) -> StationSet:
        return StationSet.full(self.n)

    def check_live_set(self, live: StationSet) -> None:
        """Refuse a live set with ids beyond n or with other than d stations."""
        if not live.issubset(self.all_stations):
            raise DomainError(f"live set {format_station_set(live)} exceeds n={self.n}")
        if len(live) != self.d:
            raise DomainError(f"live set must have exactly d={self.d} stations, got {len(live)}")


class FeedbackTag(Enum):
    SILENCE = "silence"
    COLLISION = "collision"
    SINGLE = "single"


@dataclass(frozen=True)
class Feedback:
    """Channel outcome for one round; SINGLE carries the sender's identity."""

    tag: FeedbackTag
    station: int | None = None

    def __post_init__(self) -> None:
        if self.tag is FeedbackTag.SINGLE:
            if self.station is None or self.station < 1:
                raise DomainError("single feedback needs a station id >= 1")
        elif self.station is not None:
            raise DomainError(f"{self.tag.value} feedback carries no station id")

    @property
    def is_single(self) -> bool:
        return self.tag is FeedbackTag.SINGLE


SILENCE = Feedback(FeedbackTag.SILENCE)
COLLISION = Feedback(FeedbackTag.COLLISION)


def single(station: int) -> Feedback:
    return Feedback(FeedbackTag.SINGLE, station)


def feedback_order(feedback: Feedback) -> tuple[int, int]:
    """Deterministic sort key: silence, then collision, then singles by id."""
    if feedback.tag is FeedbackTag.SILENCE:
        return (0, 0)
    if feedback.tag is FeedbackTag.COLLISION:
        return (1, 0)
    return (2, feedback.station or 0)


def evaluate_query(query: StationSet, live: StationSet) -> Feedback:
    """Outcome of transmitting ``query`` when exactly ``live`` is live.

    The number of live stations scheduled decides everything: zero is
    silence, one is a single (with that station's id), two or more collide.
    An empty query is legal and always silent.
    """
    hit = query & live
    count = len(hit)
    if count == 0:
        return SILENCE
    if count == 1:
        return single(next(iter(hit)))
    return COLLISION


def split_by_feedback(members: Iterable[int], query: int) -> list[tuple[int, list[int]]]:
    """Group member masks by the feedback ``query`` draws from each.

    Groups come in ``feedback_order``, each keyed by its outcome: -1 for
    silence, -2 for collision, or the lone sender's bit for a single.  Members
    keep their input order within a group; empty groups are left out.
    """
    silence: list[int] = []
    collision: list[int] = []
    singles: dict[int, list[int]] = {}
    for member in members:
        hit = member & query
        if not hit:
            silence.append(member)
        elif hit & (hit - 1):
            collision.append(member)
        else:
            singles.setdefault(hit, []).append(member)
    groups = [(outcome, group) for outcome, group in ((-1, silence), (-2, collision)) if group]
    groups.extend(sorted(singles.items()))
    return groups


@dataclass(frozen=True)
class KnowledgeState:
    """Surviving live-set masks (ascending) plus the mask of revealed stations."""

    config: GameConfig
    family: tuple[int, ...]
    revealed: int


def split_edges(family: Iterable[int], revealed: int,
                query: int) -> list[tuple[Feedback, list[int], int]]:
    """``branches`` on raw masks: (feedback, members, revealed) per
    ``split_by_feedback`` group, a single adding its sender to ``revealed``."""
    return [(single(outcome.bit_length()), group, revealed | outcome) if outcome > 0
            else (SILENCE if outcome == -1 else COLLISION, group, revealed)
            for outcome, group in split_by_feedback(family, query)]


def branches(state: KnowledgeState, query: StationSet) -> list[tuple[Feedback, KnowledgeState]]:
    """The positions one round after ``state``, as (feedback, child) in feedback order."""
    return [(feedback, KnowledgeState(state.config, tuple(group), revealed))
            for feedback, group, revealed in split_edges(state.family, state.revealed, query.mask)]


@dataclass(frozen=True)
class Transcript:
    """Ordered record of (query, feedback) rounds for one game."""

    config: GameConfig
    rounds: tuple[tuple[StationSet, Feedback], ...] = ()

    def extend(self, query: StationSet, feedback: Feedback) -> Transcript:
        return Transcript(self.config, self.rounds + ((query, feedback),))

    def __len__(self) -> int:
        return len(self.rounds)


def transmitted_set(transcript: Transcript) -> StationSet:
    """Stations that have transmitted alone so far (distinct single senders)."""
    mask = 0
    for _, feedback in transcript.rounds:
        if feedback.is_single:
            mask |= 1 << (feedback.station - 1)  # type: ignore[operator]
    return StationSet(mask)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def feedback_to_json(feedback: Feedback) -> str | dict[str, int]:
    return {"single": feedback.station} if feedback.station else feedback.tag.value

def feedback_from_json(value: object) -> Feedback:
    if value == "silence":
        return SILENCE
    if value == "collision":
        return COLLISION
    if isinstance(value, dict) and set(value) == {"single"}:
        return single(_integer(value["single"], "single sender"))
    raise DomainError(f"unrecognized feedback document: {value!r}")


def _integer(value: object, what: str) -> int:
    if type(value) is not int:  # int() would truncate 4.7 and accept True or "4"
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return value


def transcript_to_doc(transcript: Transcript, live: StationSet) -> dict[str, object]:
    """Transcript document with fixed field order n, d, live, rounds."""
    return {
        "n": transcript.config.n,
        "d": transcript.config.d,
        "live": list(live),
        "rounds": [
            {"query": list(query), "feedback": feedback_to_json(feedback)}
            for query, feedback in transcript.rounds
        ],
    }


def transcript_from_doc(doc: dict[str, object]) -> tuple[Transcript, StationSet]:
    """Inverse of transcript_to_doc; validates the document against itself.

    Ids must lie within n, the live set must hold d stations, and every
    round's feedback must be what its query draws from the live set.  Every
    malformed or self-contradicting document raises DomainError.
    """
    try:
        config = GameConfig(_integer(doc["n"], "n"), _integer(doc["d"], "d"))
        live = StationSet.from_ids(_integer(i, "station id") for i in doc["live"])  # type: ignore
        raw_rounds = doc["rounds"]
        if not isinstance(raw_rounds, list):
            raise DomainError(f"rounds must be a list, got {type(raw_rounds).__name__}")
        config.check_live_set(live)
        transcript = Transcript(config)
        for entry in raw_rounds:
            query = StationSet.from_ids(_integer(i, "station id") for i in entry["query"])
            if not query.issubset(config.all_stations):
                raise DomainError(f"query {format_station_set(query)} exceeds n={config.n}")
            feedback = feedback_from_json(entry["feedback"])
            if feedback != evaluate_query(query, live):
                raise DomainError(
                    f"query {format_station_set(query)} cannot draw {feedback_to_json(feedback)!r} "
                    f"from live set {format_station_set(live)}")
            transcript = transcript.extend(query, feedback)
    except DomainError:
        raise
    except KeyError as missing:
        raise DomainError(f"transcript document is missing field {missing}") from None
    except (TypeError, ValueError) as exc:
        raise DomainError(f"malformed transcript document: {exc}") from None
    return transcript, live
