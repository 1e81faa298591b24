"""Core model of a slotted multiple access channel with collision detection.

Stations 1..n share the channel.  Each round a chosen subset of stations (the
query) transmits.  All stations hear one of three outcomes: silence when no
member of the query is live, a single successful transmission carrying the
sender's identity when exactly one is live, and a collision when two or more
are live.  A hidden set of exactly d live stations must each get one clean
solo transmission.

A position is a ``KnowledgeState``: the live sets consistent with the feedback
so far plus the stations revealed by singles, starting from ``initial_state``
(all C(n,d) live sets, within the enumeration budget).  The strategy walk,
the adversaries and the oracle are built on ``split_by_feedback``, which
groups a family of live sets by the feedback one query draws; ``branches``
moves a position one round with it.  ``evaluate_query``
answers for one live set: in ``engine.run_fixed``, and for the feedback drawn
in the walk's normal mode.  ``feedback_to_json`` spells one round's feedback
for the game document, which ``engine.game_result_to_doc`` writes.
"""

from __future__ import annotations

import math
import os
import sys
from collections.abc import Collection, Iterable, Iterator
from enum import Enum
from itertools import combinations, islice
from operator import attrgetter, index

from .errors import BudgetExceeded, DomainError

DEFAULT_STATION_CAP = 64
STATION_CAP_ENV = "MACQ_MAX_N"
DEFAULT_ORACLE_CAP = (6, 3)  # largest (n, d) the exact oracle solves unless raised
DEFAULT_ENUMERATION_BUDGET = 10**6

set_field = object.__setattr__  # how a Frozen subclass's __init__ sets each field once


class Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__``, and the class gets an
    ``__init__`` that takes every field, required, in that order, by
    position or by keyword.  It is compiled once per class from source, as
    ``collections.namedtuple`` does, so it costs no more per call than a
    hand-written one.  A type writes its own ``__init__`` only to check its
    arguments (``StationSet``, ``GameConfig`` and ``Feedback``) or, for
    ``Transcript``, to start empty as a strategy's ``start``, and sets each
    field once through ``set_field``.

    Instances compare and hash by their fields in slot order, print as
    ``Name(field=value, ...)``, refuse assignment, and copy their fields in
    slot order; a value pickles only when its fields do (a strategy whose
    functions are lambdas or local does not).  A copy or an unpickled value
    gets its fields back without running ``__init__``, so a value stays
    loadable when a check in its ``__init__`` would now refuse it (a
    ``GameConfig`` saved under a raised ``MACQ_MAX_N``, say).  The fields
    are fetched by one ``attrgetter`` per class, which keeps ``==`` on hot
    types as fast as a generated method.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls.__slots__
        cls._fields = attrgetter(*names)
        if "__init__" not in cls.__dict__:
            body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
            namespace = {"__name__": cls.__module__, "_set": set_field}
            exec(f"def __init__(self, {', '.join(names)}):{body}\n", namespace)
            init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = init

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            fields = self._fields
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            set_field(self, name, value)


def is_decimal(text: str) -> bool:
    """True iff ``text`` is one or more ASCII digits, the package's integer syntax,
    and no more of them than ``int()`` converts (``sys.get_int_max_str_digits()``;
    0, or a Python without the function, sets no limit).

    ``int()`` would also take "1_00", " +100" and other scripts' digits ("２").
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return text.isascii() and text.isdecimal() and not 0 < limit < len(text)


def _shown(value: object) -> str:
    """``value`` as a refusal echoes it: past 40 digits an int is its first 40 and
    its digit count (not by ``str()``, which refuses more than ``int()`` converts);
    a ``StationSet`` lists its stations while they fit in 40 characters, then
    ``...`` and its size; a string, or any other value's ``repr``, past 40
    characters is its first 40 and its length."""
    if isinstance(value, int):
        size = abs(value)
        if size < 10**40:
            return str(value)
        digits = int(size.bit_length() * 0.30102999566398120)  # times log10(2): the count or one less
        digits += size >= 10**digits
        return f"{'-' if value < 0 else ''}{size // 10 ** (digits - 40)}... ({digits} digits)"
    if value.__class__ is StationSet:
        return _listed(value)
    quoted = isinstance(value, str)
    text = value if quoted else repr(value)
    cut = repr(text[:40]) if quoted else text[:40]
    return cut if len(text) <= 40 else f"{cut}... ({len(text)} characters)"


def _listed(stations: Collection[int]) -> str:
    """A set, or ascending ids, as a refusal echoes it: as ``format_station_set``
    lists it while that fits in 40 characters, then ``...`` and its size."""
    listed = format_station_set(islice(stations, 41))  # 41 stations take more than 40 characters
    if len(listed) <= 42:
        return listed
    kept = listed[:listed.rfind(",", 0, 42) + 1] or "{"  # "{" if not even the first id fits
    return f"{kept}...}} ({len(stations)} stations)"


def station_cap() -> int:
    """Largest permitted n; override with the MACQ_MAX_N environment variable."""
    raw = os.environ.get(STATION_CAP_ENV)
    if raw is None:
        return DEFAULT_STATION_CAP
    if not is_decimal(raw.removeprefix("-")):
        raise DomainError(f"{STATION_CAP_ENV} must be an integer, got {_shown(raw)}")
    return _at_least(STATION_CAP_ENV, int(raw), 1)


def _round_cap(n: int | None = None) -> int:
    """Most rounds a game on n stations (the station cap unless given) may take: 4n + 16."""
    return 4 * (station_cap() if n is None else n) + 16


class StationSet(Frozen):
    """Immutable set of 1-based station ids, stored as a bitmask.

    Bit i-1 of ``mask`` is set when station i belongs to the set.  The mask
    is checked where the set is made, so every operation may trust it: it
    must be an integer (a bool or a numpy integer converts) and not negative
    (``DomainError``).  Python integers are unbounded, so sets work unchanged
    past the default 64-station cap when the cap is raised.  Sets have no
    order (``<`` is a ``TypeError``); Python derives truthiness from
    ``__len__`` and ``in`` from ``__iter__``.
    """

    __slots__ = ("mask",)
    mask: int

    def __init__(self, mask: int = 0) -> None:
        mask = _integer("station set mask", mask)
        if mask < 0:  # its bits never run out, so it is no set
            raise DomainError(f"station set has the negative mask {_shown(mask)}")
        set_field(self, "mask", mask)

    @classmethod
    def from_ids(cls, ids: Iterable[int]) -> StationSet:
        """The set of ``ids``; ``_within_cap`` checks each id before its bit is
        set, so one beyond the station cap, which no game holds, allocates nothing.
        The cap is read once per call."""
        mask, cap = 0, station_cap()
        for i in ids:
            mask |= 1 << (_within_cap("station id", i, 1, cap) - 1)
        return cls(mask)

    @classmethod
    def full(cls, n: int) -> StationSet:
        """All stations 1..n, with n checked by ``_within_cap`` before the mask is built."""
        return cls((1 << _within_cap("set size", n, 0)) - 1)

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length()
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __and__(self, other: StationSet) -> StationSet:
        return StationSet(self.mask & other.mask) if other.__class__ is StationSet else NotImplemented

    def __or__(self, other: StationSet) -> StationSet:
        return StationSet(self.mask | other.mask) if other.__class__ is StationSet else NotImplemented

    def __sub__(self, other: StationSet) -> StationSet:
        return StationSet(self.mask & ~other.mask) if other.__class__ is StationSet else NotImplemented

    def __repr__(self) -> str:
        return f"StationSet({{{', '.join(map(str, self))}}})"


def format_station_set(stations: Iterable[int]) -> str:
    """Render a set, or ascending ids, as ``{1,3}`` with no spaces."""
    return "{" + ",".join(map(str, stations)) + "}"


def _integer(name: str, value: int) -> int:
    """``value`` as a plain int (a bool or a numpy integer converts); a float or a string is refused."""
    try:
        return index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_shown(value)}") from None


def _at_least(name: str, value: int, low: int) -> int:
    """``value`` as a plain int (see ``_integer``) no less than ``low``."""
    value = _integer(name, value)
    if value < low:
        raise DomainError(f"{name} must be at least {low}, got {_shown(value)}")
    return value


def _within_cap(name: str, value: int, low: int, cap: int | None = None) -> int:
    """``value`` as an int from ``low`` to ``cap``, the one wording of both refusals;
    ``cap`` is ``station_cap()`` (read here) unless given, or a limit set by it."""
    value = _at_least(name, value, low)
    if cap is None:
        cap = station_cap()
    if value > cap:
        raise DomainError(
            f"{name} must be at most {cap} (raise {STATION_CAP_ENV} for more), got {_shown(value)}")
    return value


def _instance(n: int, d: int) -> tuple[int, int]:
    """n and d as plain ints (see ``_integer``), with 1 <= d <= n."""
    n, d = _integer("n", n), _integer("d", d)
    if not 1 <= d <= n:
        raise DomainError(f"need 1 <= d <= n, got n={_shown(n)} d={_shown(d)}")
    return n, d


def _of_type(name: str, value: object, cls: type) -> object:
    """``value``, whose class must be exactly ``cls``: the one wording of every type refusal."""
    if value.__class__ is not cls:
        raise DomainError(f"{name} must be a {cls.__name__}, got {_shown(value)}")
    return value


class GameConfig(Frozen):
    """Instance parameters: n stations, exactly d of them live."""

    __slots__ = ("n", "d")
    n: int
    d: int

    def __init__(self, n: int, d: int) -> None:
        n, d = _instance(_within_cap("n", n, 1), d)
        set_field(self, "n", n)
        set_field(self, "d", d)

    def check_live_set(self, live: StationSet) -> None:
        """Refuse a live set that is no ``StationSet``, has ids beyond n or other than d stations."""
        if _of_type("live set", live, StationSet).mask >> self.n:
            raise DomainError(f"live set {_shown(live)} exceeds n={self.n}")
        if len(live) != self.d:
            raise DomainError(f"live set must have exactly d={self.d} stations, got {len(live)}")


class FeedbackTag(Enum):
    SILENCE = "silence"
    COLLISION = "collision"
    SINGLE = "single"


class Feedback(Frozen):
    """Channel outcome for one round; SINGLE carries the sender's identity."""

    __slots__ = ("tag", "station")
    tag: FeedbackTag
    station: int | None

    def __init__(self, tag: FeedbackTag, station: int | None = None) -> None:
        if _of_type("feedback tag", tag, FeedbackTag) is FeedbackTag.SINGLE:
            if station is None:
                raise DomainError("single feedback needs a station id")
            station = _at_least("station id", station, 1)
        elif station is not None:
            raise DomainError(f"{tag.value} feedback carries no station id")
        set_field(self, "tag", tag)
        set_field(self, "station", station)

    @property
    def is_single(self) -> bool:
        return self.tag is FeedbackTag.SINGLE


SILENCE = Feedback(FeedbackTag.SILENCE)
COLLISION = Feedback(FeedbackTag.COLLISION)


def single(station: int) -> Feedback:
    """The single feedback for ``station``."""
    return Feedback(FeedbackTag.SINGLE, station)


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

    Groups come in feedback order (silence, collision, then singles by
    sender), each keyed by its outcome: -1 for silence, -2 for collision, or
    the lone sender's bit for a single.  Members keep their input order within
    a group; empty groups are left out.
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


class KnowledgeState(Frozen):
    """Surviving live-set masks (ascending) plus the mask of revealed stations."""

    __slots__ = ("family", "revealed")
    family: tuple[int, ...]
    revealed: int


def check_enumeration_budget(config: GameConfig) -> None:
    """Refuse an instance whose C(n,d) candidate live sets exceed the budget of 10**6."""
    total, budget = math.comb(config.n, config.d), DEFAULT_ENUMERATION_BUDGET
    if total > budget:
        raise BudgetExceeded(
            f"C({config.n},{config.d}) = {_shown(total)} candidate live sets exceed budget {budget}"
        )


def initial_state(config: GameConfig) -> KnowledgeState:
    """Knowledge state before any round: the masks of every size-d subset of
    1..n, ascending, with nothing revealed."""
    check_enumeration_budget(config)
    bits = [1 << i for i in reversed(range(config.n))]  # top bit first, so the masks descend
    family = [sum(combo) for combo in combinations(bits, config.d)]
    return KnowledgeState(tuple(reversed(family)), 0)


def branches(state: KnowledgeState, query: StationSet) -> list[tuple[Feedback, KnowledgeState]]:
    """The positions one round after ``state``, as (feedback, child) in feedback
    order, one per ``split_by_feedback`` group; a single reveals its sender.
    A state that is no ``KnowledgeState`` or a query that is no ``StationSet``
    is a ``DomainError``."""
    revealed = _of_type("state", state, KnowledgeState).revealed
    mask = _of_type("query", query, StationSet).mask
    return [(single(outcome.bit_length()), KnowledgeState(tuple(group), revealed | outcome))
            if outcome > 0 else
            (SILENCE if outcome == -1 else COLLISION, KnowledgeState(tuple(group), revealed))
            for outcome, group in split_by_feedback(state.family, mask)]


class Transcript(Frozen):
    """Ordered record of (query, feedback) rounds for one game."""

    __slots__ = ("config", "rounds")
    config: GameConfig
    rounds: tuple[tuple[StationSet, Feedback], ...]

    def __init__(self, config: GameConfig, rounds: tuple[tuple[StationSet, Feedback], ...] = ()) -> None:
        set_field(self, "config", config)
        set_field(self, "rounds", rounds)

    def extend(self, query: StationSet, feedback: Feedback) -> Transcript:
        return Transcript(self.config, self.rounds + ((query, feedback),))


def transmitted_set(transcript: Transcript) -> StationSet:
    """Stations that have transmitted alone so far (distinct single senders),
    through ``StationSet.from_ids``, which refuses one beyond ``station_cap()``."""
    return StationSet.from_ids(feedback.station for _, feedback in transcript.rounds
                               if feedback.is_single)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def feedback_to_json(feedback: Feedback) -> str | dict[str, int]:
    """A round's feedback as ``engine.game_result_to_doc`` writes it."""
    return {"single": feedback.station} if feedback.is_single else feedback.tag.value
