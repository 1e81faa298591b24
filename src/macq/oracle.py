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
and de Bruin, AIJ 1996).  The process has one solver, whose memo every solve
and every minimax game shares; the bounds are facts about the family, so
reuse across instances is safe.

Stations i and j are twins when swapping them maps the family onto itself.
Twinship is an equivalence, and a query's outcome tree depends only on how
many stations it takes from each twin class, so the search tries one query
per vector of per-class counts instead of every subset of the support.
``_options`` expands a family once; ``solvable`` tries queries whose largest
child is smallest first, ``best_query`` least masks first, both in one loop,
``_first``, and each query tests its largest child first.

Only the one-reveal-per-round bound m is used to cut the search.  Branch
counts can reach |query| + 2 distinct outcomes, so logarithmic
outcome-counting bounds with base d + 2 are NOT valid lower bounds and are
never used (see info_lower_bound in the bounds module for the quantity
itself).
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import product

from . import adversary, qtree, strategies
from .channel import (DEFAULT_ORACLE_CAP, GameConfig, KnowledgeState, StationSet, _integer,
                      initial_state, split_by_feedback)
from .errors import BudgetExceeded, DomainError


def _support(fam: tuple[int, ...]) -> int:
    support = 0
    for member in fam:
        support |= member
    return support


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


def _options(fam: tuple[int, ...]) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Informative class queries in ``_class_queries`` order, each with its
    children largest first.  A single's child strikes the sender, which every
    member holds, so its members stay ascending."""
    options = []
    for query in _class_queries(_twin_classes(fam)):
        groups = split_by_feedback(fam, query)
        if len(groups) > 1 or groups[0][0] >= 0:  # not one silence or collision for all
            children = [tuple(group) if outcome < 0 else tuple(m ^ outcome for m in group)
                        for outcome, group in groups]
            options.append((query, sorted(children, key=len, reverse=True)))
    return options


class _Solver:
    """Decision search over residual families with a memo of value bounds."""

    def __init__(self) -> None:
        # Residual family -> (lower, upper) bounds on its value.
        self.memo: dict[tuple[int, ...], tuple[int, int]] = {}

    def value(self, fam: tuple[int, ...]) -> int:
        # Stops by t = |support|, where solvable answers without a search.
        t = fam[0].bit_count()
        while not self.solvable(fam, t):
            t += 1
        return t

    def solvable(self, fam: tuple[int, ...], t: int) -> bool:
        """Can ``fam`` be finished within ``t`` rounds against every candidate?"""
        bounds = self.memo.get(fam)
        # Probing each support station alone always finishes; (0,) gets lo = hi = 0.
        lo, hi = bounds if bounds is not None else (fam[0].bit_count(), _support(fam).bit_count())
        if t < lo:
            return False
        if t >= hi:
            return True
        options = sorted(_options(fam), key=lambda option: len(option[1][0]))
        if self._first(options, t) is None:
            self.memo[fam] = (t + 1, hi)
            return False
        self.memo[fam] = (lo, t)
        return True

    def _first(self, options: list[tuple[int, list[tuple[int, ...]]]], t: int) -> int | None:
        """The first query whose children all finish within ``t - 1`` rounds."""
        for query, children in options:
            if all(self.solvable(child, t - 1) for child in children):
                return query
        return None

    def best_query(self, fam: tuple[int, ...]) -> int:
        """First query (ascending mask order) achieving the minimax value."""
        # Queries with equal per-class counts are relabelings of each other by
        # twin swaps, which fix the family, so they reach the same value; the
        # least mask with given counts takes the lowest stations of each class.
        query = self._first(sorted(_options(fam)), self.value(fam))
        if query is None:
            raise AssertionError("no query achieves the computed minimax value")
        return query


# The process's one solver, shared by exact_optimal_rounds and optimal_strategy.
_SOLVER = _Solver()


def _capped_start(cap: tuple[int, int]) -> Callable[[GameConfig], KnowledgeState]:
    """The start of every solve and game under ``cap`` = (n, d), the cap's one
    reader: a cap that is not a tuple of two integers is a ``DomainError``, an
    instance beyond it ``BudgetExceeded``."""
    if cap.__class__ is not tuple or len(cap) != 2:
        raise DomainError(f"oracle cap must be a tuple of two integers (n, d), got {cap!r}")
    n_cap, d_cap = _integer("oracle cap n", cap[0]), _integer("oracle cap d", cap[1])

    def start(config: GameConfig) -> KnowledgeState:
        if config.n > n_cap or config.d > d_cap:
            raise BudgetExceeded(
                f"instance (n={config.n}, d={config.d}) is beyond the oracle cap (n <= {n_cap}, d <= {d_cap})"
            )
        return initial_state(config)

    return start


def exact_optimal_rounds(config: GameConfig, *, cap: tuple[int, int] = DEFAULT_ORACLE_CAP) -> int:
    """Minimum over strategies of the worst-case rounds to resolve (n, d).

    The value comes from the decision search over residual families, with
    queries taken up to twin classes, on the process's one solver, from the
    start ``optimal_strategy``'s game takes, so a value runs no strategy code.
    """
    return _SOLVER.value(_capped_start(cap)(config).family)


def optimal_strategy_tree(config: GameConfig, *, cap: tuple[int, int] = DEFAULT_ORACLE_CAP) -> qtree.QTree:
    """A witness decision tree whose worst path length equals the optimum.

    It is ``optimal_strategy``'s tree, so it shares the process's solver.
    ``qtree`` is bound lazily by ``import macq`` and runs on the first call.
    """
    return qtree.build_tree(optimal_strategy(cap=cap), config)


def optimal_strategy(*, cap: tuple[int, int] = DEFAULT_ORACLE_CAP) -> strategies.Strategy:
    """Strategy that answers optimally from any consistent position.

    Unlike a replayed witness tree this works from arbitrary openings, which
    makes it a convenient optimal continuation for adversary analysis.  Like
    the built-in strategies it takes its instance from the game it plays.
    Its state is the knowledge state, so each round costs one split; it asks
    the process's solver about the candidates with the revealed stations
    struck.  Its ``start`` checks ``cap``, so the cap bounds every game, tree
    and adversary fold the strategy starts.
    """
    def query(cfg: GameConfig, state: KnowledgeState) -> StationSet:
        # Striking stations that every member holds keeps the masks ascending.
        return StationSet(_SOLVER.best_query(tuple(m & ~state.revealed for m in state.family)))

    return strategies.Strategy("minimax", query, _capped_start(cap), adversary.refine)
