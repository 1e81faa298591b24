"""Exact minimax: the fewest rounds that suffice against every live set.

The game value of a position depends only on the candidate family left after
striking already-revealed stations out of every candidate: revealed stations
never need to be scheduled again, and queries over stations appearing in no
candidate add nothing.  The solver works on these residual families, each a
sorted tuple of masks.

It answers decision questions rather than computing full minimax values:
``solvable(fam, t)`` asks whether ``fam`` can be finished within ``t``
rounds, and ``value`` asks it for t = m, m + 1, ... where m is the number of
stations each candidate still has to reveal (one reveal per round at best).
The memo keeps proven (lower, upper) bounds per family, so each question is
settled at most once (the null-window idea of MTD(f); Plaat, Schaeffer, Pijls
and de Bruin, AIJ 1996).  The memo is shared across instances; the bounds
are facts about the family, so reuse is safe.

Stations i and j are twins when swapping them maps the family onto itself.
Twinship is an equivalence, and a query's outcome tree depends only on how
many stations it takes from each twin class, so the search tries one query
per vector of per-class counts instead of every subset of the support.
Queries whose largest child is smallest are tried first, and each query
tests its largest child first, so failing questions fail early.

Only the one-reveal-per-round bound m is used to cut the search.  Branch
counts can reach |query| + 2 distinct outcomes, so logarithmic
outcome-counting bounds with base d + 2 are NOT valid lower bounds and are
never used (see info_lower_bound in the bounds module for the quantity
itself).
"""

from __future__ import annotations

from itertools import product

from .adversary import initial_family, initial_state, refine
from .channel import GameConfig, KnowledgeState, StationSet, split_by_feedback
from .errors import BudgetExceeded, CapExceeded
from .qtree import QTree, build_tree
from .strategies import Strategy, default_round_cap

DEFAULT_ORACLE_CAP = (6, 3)

# Residual family -> (lower, upper) bounds on its value.
_SHARED_MEMO: dict[tuple[int, ...], tuple[int, int]] = {}


def _check_cap(config: GameConfig, cap: tuple[int, int]) -> None:
    n_cap, d_cap = cap
    if config.n > n_cap or config.d > d_cap:
        raise BudgetExceeded(
            f"instance (n={config.n}, d={config.d}) is beyond the oracle cap (n <= {n_cap}, d <= {d_cap})"
        )


def _support(fam: tuple[int, ...]) -> int:
    support = 0
    for member in fam:
        support |= member
    return support


def _split(fam: tuple[int, ...], query: int) -> list[tuple[int, tuple[int, ...]]]:
    """Partition a residual family by feedback on ``query``.

    Returns (outcome, child family) pairs in feedback order, with outcomes as
    in ``split_by_feedback``.  Reveal children have the revealed bit struck
    from every member.
    """
    return [
        (outcome, tuple(group) if outcome < 0 else tuple(sorted(m & ~outcome for m in group)))
        for outcome, group in split_by_feedback(fam, query)
    ]


def _informative(parts: list[tuple[int, tuple[int, ...]]]) -> bool:
    """False when every candidate draws the same silence or collision."""
    return len(parts) > 1 or parts[0][0] >= 0


def _twin_classes(fam: tuple[int, ...]) -> list[list[int]]:
    """The support's stations as bits, grouped into twin classes, ascending."""
    members = set(fam)
    classes: list[list[int]] = []
    bits = _support(fam)
    while bits:
        bit = bits & -bits
        bits ^= bit
        for cls in classes:
            pair = cls[0] | bit
            # Swapping the two stations only moves members holding exactly one.
            if all(m ^ pair in members for m in fam if m & pair in (cls[0], bit)):
                cls.append(bit)
                break
        else:
            classes.append([bit])
    return classes


def _class_queries(classes: list[list[int]]) -> list[int]:
    """One query per vector of per-class counts, the empty query included."""
    choices = []
    for bits in classes:
        prefixes = [0]
        for bit in bits:
            prefixes.append(prefixes[-1] | bit)
        choices.append(prefixes)
    return [sum(combo) for combo in product(*choices)]


class _Solver:
    """Decision search over residual families with a memo of value bounds."""

    def __init__(self, depth_cap: int, canonical: bool) -> None:
        self.depth_cap = depth_cap
        self.memo: dict[tuple[int, ...], tuple[int, int]] = _SHARED_MEMO if canonical else {}

    def value(self, fam: tuple[int, ...]) -> int:
        for t in range(fam[0].bit_count(), self.depth_cap + 1):
            if self.solvable(fam, t):
                return t
        raise CapExceeded(f"minimax value exceeds the {self.depth_cap}-round cap")

    def solvable(self, fam: tuple[int, ...], t: int) -> bool:
        """Can ``fam`` be finished within ``t`` rounds against every candidate?"""
        remaining = fam[0].bit_count()
        if remaining == 0:
            return True
        bounds = self.memo.get(fam)
        # Probing each support station alone always finishes.
        lo, hi = bounds if bounds is not None else (remaining, _support(fam).bit_count())
        if t < lo:
            return False
        if t >= hi:
            return True
        options = []
        for query in _class_queries(_twin_classes(fam)):
            parts = _split(fam, query)
            if _informative(parts):
                options.append(sorted((child for _, child in parts), key=len, reverse=True))
        options.sort(key=lambda children: len(children[0]))
        for children in options:
            if all(self.solvable(child, t - 1) for child in children):
                self.memo[fam] = (lo, t)
                return True
        self.memo[fam] = (t + 1, hi)
        return False

    def best_query(self, fam: tuple[int, ...]) -> int:
        """First query (ascending mask order) achieving the minimax value."""
        target = self.value(fam)
        # Queries with equal per-class counts are relabelings of each other by
        # twin swaps, which fix the family, so they reach the same value; the
        # least mask with given counts takes the lowest stations of each class.
        for query in sorted(_class_queries(_twin_classes(fam))):
            parts = _split(fam, query)
            if _informative(parts) and all(self.solvable(child, target - 1) for _, child in parts):
                return query
        raise AssertionError("no query achieves the computed minimax value")


def exact_optimal_rounds(
    config: GameConfig,
    *,
    cap: tuple[int, int] = DEFAULT_ORACLE_CAP,
    canonical: bool = True,
) -> int:
    """Minimum over strategies of the worst-case rounds to resolve (n, d).

    The value comes from the decision search over residual families, with
    queries taken up to twin classes.  ``canonical=True`` keeps the bounds in
    the memo shared by every solve in the process; ``canonical=False`` uses a
    fresh memo (same values, no sharing), so tests can compare both routes.
    """
    _check_cap(config, cap)
    solver = _Solver(default_round_cap(config), canonical)
    return solver.value(initial_family(config))


def optimal_strategy_tree(
    config: GameConfig,
    *,
    cap: tuple[int, int] = DEFAULT_ORACLE_CAP,
    canonical: bool = True,
) -> QTree:
    """A witness decision tree whose worst path length equals the optimum."""
    return build_tree(optimal_strategy(config, cap=cap, canonical=canonical), config)


def optimal_strategy(
    config: GameConfig,
    *,
    cap: tuple[int, int] = DEFAULT_ORACLE_CAP,
    canonical: bool = True,
) -> Strategy:
    """Strategy that answers optimally from any consistent position.

    Unlike a replayed witness tree this works from arbitrary openings, which
    makes it a convenient optimal continuation for adversary analysis.  Its
    state is the knowledge state, so each round costs one split; it asks the
    solver about the candidates with the revealed stations struck.
    """
    _check_cap(config, cap)
    solver = _Solver(default_round_cap(config), canonical)

    def query(cfg: GameConfig, state: KnowledgeState) -> StationSet:
        # Striking stations that every member holds keeps the masks ascending.
        return StationSet(solver.best_query(tuple(m & ~state.revealed for m in state.family)))

    return Strategy("minimax", query, initial_state, refine)


def _reference_optimal_rounds(config: GameConfig) -> int:
    """Unreduced minimax for cross-checking: queries range over every
    nonempty subset of 1..n, positions are (transmitted, family) pairs, and
    no state reduction or canonicalization is applied.  Exponentially slower;
    intended for n <= 4 only.
    """
    d = config.d
    full = (1 << config.n) - 1
    depth_cap = default_round_cap(config)
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def value(transmitted: int, fam: tuple[int, ...], depth: int) -> int:
        if transmitted.bit_count() == d:
            return 0
        key = (transmitted, fam)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if depth > depth_cap:
            raise CapExceeded(f"reference minimax exceeded the {depth_cap}-round cap")
        best: int | None = None
        for query in range(1, full + 1):
            # Its own grouping, not split_by_feedback: this is the independent check.
            groups: dict[int, list[int]] = {}
            for member in fam:
                hit = member & query
                count = hit.bit_count()
                kind = -1 if count == 0 else (-2 if count >= 2 else hit)
                groups.setdefault(kind, []).append(member)
            if len(groups) == 1:
                kind = next(iter(groups))
                advanced = transmitted | kind if kind > 0 else transmitted
                if advanced == transmitted:
                    continue  # no reveal and no split: useless query
            worst = 0
            dominated = False
            for kind in sorted(groups):
                child_t = transmitted | kind if kind > 0 else transmitted
                branch = 1 + value(child_t, tuple(groups[kind]), depth + 1)
                if branch > worst:
                    worst = branch
                if best is not None and worst >= best:
                    dominated = True
                    break
            if not dominated and (best is None or worst < best):
                best = worst
        assert best is not None
        memo[key] = best
        return best

    return value(0, initial_family(config), 0)
