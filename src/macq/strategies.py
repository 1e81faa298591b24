"""Deterministic adaptive strategies for resolving the live stations.

A strategy is a small state machine: ``start(config)`` gives its state before
any round, ``step(state, query, feedback)`` its state after one more round,
and ``query(config, state)`` the next query, or None once it has nothing
further to ask.  Each query depends only on the feedback so far, because the
state is built from nothing else.  A strategy that decides from the whole
transcript is ``Strategy(name, fn, Transcript, Transcript.extend)``.
``next_action``, ``linear_scan`` and ``tree_split`` keep the transcript
form only because the benchmark's trace looks them up by name.
A state need not count reveals to end the game: every game stops once d
stations have transmitted alone, and ``query`` is never asked past that.

``fold_strategy`` drives one strategy over every live set at once from one
``KnowledgeState``, carrying the state down its decision tree, so each node
costs one ``query`` and each edge one ``step``.  The decision tree and its
normal form, the worst-case sweep, the exact adversary's look-ahead and the
oracle's witness tree are folds of that one walk.  Given a memo, the walk
folds a subtree once per (config, strategy state, residual family), the
transposition memo of MTD(f) (Plaat, Schaeffer, Pijls and de Bruin, AIJ
1996) that the oracle keeps too: the worst-case sweep, the exact adversary
and the normal-form report pass one; the decision tree is built node by node.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .channel import (
    Feedback,
    FeedbackTag,
    Frozen,
    GameConfig,
    KnowledgeState,
    StationSet,
    Transcript,
    _round_cap,
    _shown,
    branches,
    evaluate_query,
    transmitted_set,
)
from .errors import CapExceeded, DomainError, InvalidQuery

NextAction = StationSet | None


class Strategy(Frozen):
    """A named strategy as a state machine.

    ``start(config)`` is the state before any round, ``step(state, query,
    feedback)`` the state after one more round, and ``query(config, state)``
    the next query or None.  Every field is required: a strategy whose state
    is the whole transcript passes ``Transcript`` and ``Transcript.extend``.
    """

    __slots__ = ("name", "query", "start", "step")
    name: str
    query: Callable[[GameConfig, object], NextAction]
    start: Callable[[GameConfig], object]
    step: Callable[[object, StationSet, Feedback], object]

    def next_action(self, config: GameConfig, transcript: Transcript) -> NextAction:
        """The query after ``transcript``, or None once d stations have
        transmitted alone in it (the walk's own stop rule); ``transmitted_set``
        refuses a sender beyond the station cap, which no game holds."""
        if len(transmitted_set(transcript)) >= config.d:
            return None
        return self.query(config, replay(self, config, transcript))


def replay(strategy: Strategy, config: GameConfig, transcript: Transcript) -> object:
    """The strategy's state after the transcript's rounds, one ``step`` each."""
    state = strategy.start(config)
    for query, feedback in transcript.rounds:
        state = strategy.step(state, query, feedback)
    return state


def checked_query(strategy: Strategy, config: GameConfig, state: object, rounds: int,
                  revealed: int) -> NextAction:
    """The strategy's next query from ``state`` after ``rounds`` rounds, or
    None once the mask ``revealed`` holds d stations, the end of every game;
    a query past the round cap of 4n + 16, not a ``StationSet`` or beyond n
    is refused."""
    if revealed.bit_count() >= config.d:
        return None
    action = strategy.query(config, state)
    if action is None:
        return None
    if action.__class__ is not StationSet:
        raise InvalidQuery(f"strategy {_shown(strategy.name)} queried {_shown(action)}, not a StationSet")
    cap = _round_cap(config.n)
    if rounds >= cap:
        raise CapExceeded(
            f"strategy {_shown(strategy.name)} still querying after {cap} rounds (n={config.n}, d={config.d})"
        )
    if action.mask >> config.n:
        raise InvalidQuery(
            f"strategy {_shown(strategy.name)} queried stations "
            f"{_shown(action - StationSet.full(config.n))} beyond n={config.n}"
        )
    return action


def fold_strategy(
    strategy: Strategy,
    position: KnowledgeState,
    transcript: Transcript,
    leaf: Callable[[Sequence[int], int], object],
    node: Callable[[StationSet, list[tuple[Feedback, int, object]]], object],
    normal: bool = False,
    memo: dict | None = None,
) -> object:
    """Fold the strategy's decision tree below one position.

    ``position`` is the knowledge state the transcript leads to; the game's
    config comes from the transcript.  The game stops once d stations are
    revealed or the strategy returns None; such a position folds to
    ``leaf(family, revealed)``.  Otherwise ``channel.branches`` moves the
    position by its query, and ``node(query, branches)`` combines the folded
    children as (feedback, fresh, value) triples in feedback order, where
    ``fresh`` is the mask of the stations that edge newly revealed: a single
    from a sender revealed before reveals nothing.  The strategy's state is replayed from
    the transcript once, then moved one ``step`` down each edge.

    With ``normal`` set the walk plays each query minus the revealed
    stations: that reduced query splits the family and reaches ``node``, while
    the strategy steps on its own query and the feedback that query drew.
    Every member of a group holds the revealed stations, so any one of them
    gives that feedback; a query holding none of them is played unchanged.

    A ``memo`` (a dict kept by the caller, one per strategy) shares folded
    subtrees between positions with the same config, strategy state and
    residual family (the family with the revealed stations struck).  A value
    must then depend on the revealed stations only through ``fresh``: a leaf
    strikes them from what it reports, and a node relates each branch to its
    own revealed set by that branch's ``fresh``.  A stored subtree is reused
    only where none of the strategy's own queries in it hold a station
    revealed at either position, so each member draws the same feedback and
    ``normal`` reduces nothing, and where its deepest query still comes before
    the round cap, so ``CapExceeded`` is raised as without the memo.  One
    recursion serves both cases, the memo its only switch.  A strategy whose
    state is the transcript never repeats a state within one walk, so only a
    later walk over the same memo hits.  Below a state with no hash
    (a ``tree_strategy`` node) the subtree is folded unshared, while the
    positions above it are still stored.
    """
    config, step = transcript.config, strategy.step
    cap = _round_cap(config.n)

    def walk(position: KnowledgeState, state: object, rounds: int,
             memo: dict | None) -> tuple[object, int, int]:
        # The value, the union of the strategy's own queries (a subtree where
        # ``normal`` reduces one is never stored), and the depth of its deepest
        # query below this position (-1 where the game stops here).
        family, revealed = position.family, position.revealed
        if memo is not None:
            key = (config, state, tuple(m & ~revealed for m in family) if revealed else family)
            try:
                hit = memo.get(key)
            except TypeError:  # a state without a hash: fold below it unshared
                hit = memo = None
            if hit is not None and not hit[1] & revealed and rounds + hit[2] < cap:
                return hit
        query = checked_query(strategy, config, state, rounds, revealed)
        if query is None:
            result = leaf(family, revealed), 0, -1
        else:
            # A loop, not a comprehension: one frame per round of depth.
            used, deepest, folded = query.mask, 0, []
            played = StationSet(query.mask & ~revealed) if normal and query.mask & revealed else query
            for feedback, child in branches(position, played):
                drawn = feedback if played is query else evaluate_query(query, StationSet(child.family[0]))
                value, asked, depth = walk(child, step(state, query, drawn), rounds + 1, memo)
                used |= asked
                if depth >= deepest:
                    deepest = depth + 1
                folded.append((feedback, child.revealed ^ revealed, value))
            result = node(played, folded), used, deepest
        if memo is not None and not result[1] & revealed:
            memo[key] = result
        return result

    return walk(position, replay(strategy, config, transcript), len(transcript.rounds), memo)[0]


def _count(played: int, query: StationSet, feedback: Feedback) -> int:
    return played + 1


def _linear_query(config: GameConfig, played: int) -> NextAction:
    return StationSet(1 << played) if played < config.n else None


def linear_scan(config: GameConfig, transcript: Transcript) -> NextAction:
    """Probe singletons {1}, {2}, ... in order; stop after d singles or {n}."""
    return LINEAR_SCAN.next_action(config, transcript)


# tree_split's state: the pending intervals (lo, hi), the next one to probe
# last.  The probe order is root first, then on every collision the interval
# [lo..hi] splits at mid = ceil((lo+hi)/2) into [lo..mid-1] and [mid..hi],
# left half probed next.  Silence and single discharge the interval.

Intervals = tuple[tuple[int, int], ...]


def _interval_mask(lo: int, hi: int) -> int:
    return (1 << hi) - (1 << (lo - 1))


def _tree_step(stack: Intervals, query: StationSet, feedback: Feedback) -> Intervals:
    if not stack:
        raise DomainError("transcript continues past an empty interval stack")
    lo, hi = stack[-1]
    if query.mask != _interval_mask(lo, hi):
        raise DomainError("transcript was not produced by tree_split")
    stack = stack[:-1]
    if feedback.tag is FeedbackTag.COLLISION:
        mid = (lo + hi + 1) // 2
        stack += ((mid, hi), (lo, mid - 1))
    return stack


def _tree_query(config: GameConfig, stack: Intervals) -> NextAction:
    return StationSet(_interval_mask(*stack[-1])) if stack else None


def tree_split(config: GameConfig, transcript: Transcript) -> NextAction:
    """Binary interval splitting: probe [1..n], split every collision in half.

    Raises DomainError on a transcript that tree_split did not produce,
    unless d stations have already transmitted alone in it.
    """
    return TREE_SPLIT.next_action(config, transcript)


def scripted(name: str, queries: Sequence[StationSet]) -> Strategy:
    """Strategy that plays a fixed list of queries, then stops.

    Useful for exercising the engine and the tree normalizer with
    deliberately clumsy behavior (repeats, overlaps, early stops).
    """
    fixed = tuple(queries)

    def query(config: GameConfig, played: int) -> NextAction:
        return fixed[played] if played < len(fixed) else None

    return Strategy(name, query, lambda config: 0, _count)


LINEAR_SCAN = Strategy("linear", _linear_query, lambda config: 0, _count)
TREE_SPLIT = Strategy("tree", _tree_query, lambda config: ((1, config.n),), _tree_step)

STRATEGIES: dict[str, Strategy] = {strategy.name: strategy for strategy in (LINEAR_SCAN, TREE_SPLIT)}
