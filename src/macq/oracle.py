"""Exact minimax: the fewest rounds that suffice against every live set.

The game value of a position depends only on the candidate family left after
striking already-revealed stations out of every candidate: revealed stations
never need to be scheduled again, and queries over stations appearing in no
candidate add nothing.  The solver therefore recurses on residual families,
memoizing each family under a canonical key (support compacted to low bits,
least encoding over its permutations), so positions differing only by a
relabeling of the remaining stations are solved once.  The memo is shared
across instances; values are deterministic, so reuse is safe.

Only the trivial admissible bound is used for pruning: a family whose
residuals hold m stations needs at least m more rounds, one reveal each.
Branch counts can reach |query| + 2 distinct outcomes, so logarithmic
outcome-counting bounds with base d + 2 are NOT valid lower bounds and are
never used to cut the search (see info_lower_bound in the bounds module for
the quantity itself).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .adversary import KnowledgeState, initial_state, refine
from .channel import (
    GameConfig,
    StationSet,
    Transcript,
    split_by_feedback,
)
from .errors import BudgetExceeded, CapExceeded
from .qtree import QTree, build_tree
from .strategies import Strategy, default_round_cap

DEFAULT_ORACLE_CAP = (6, 3)

# The adversary's knowledge state doubles as the oracle's position type.
OracleState = KnowledgeState

_SHARED_MEMO: dict[tuple[int, ...], int] = {}


def _check_cap(config: GameConfig, cap: tuple[int, int]) -> None:
    n_cap, d_cap = cap
    if config.n > n_cap or config.d > d_cap:
        raise BudgetExceeded(
            f"instance (n={config.n}, d={config.d}) is beyond the oracle cap (n <= {n_cap}, d <= {d_cap})"
        )


def _initial_family(config: GameConfig) -> tuple[int, ...]:
    return tuple(live.mask for live in initial_state(config).candidates)


def _submasks_ascending(support: int) -> list[int]:
    subs = []
    sub = support
    while sub:
        subs.append(sub)
        sub = (sub - 1) & support
    subs.sort()
    return subs


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


@lru_cache(maxsize=None)
def _perm_table(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(permutations(range(k)))


def _apply_perm(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    position = 0
    while mask:
        if mask & 1:
            out |= 1 << perm[position]
        mask >>= 1
        position += 1
    return out


def _canonical_key(fam: tuple[int, ...]) -> tuple[int, ...]:
    """Least encoding of the family over permutations of its compacted support."""
    support = 0
    for member in fam:
        support |= member
    positions = []
    bits = support
    while bits:
        low = bits & -bits
        positions.append(low.bit_length() - 1)
        bits ^= low
    compact = []
    for member in fam:
        mask = 0
        for j, pos in enumerate(positions):
            if (member >> pos) & 1:
                mask |= 1 << j
        compact.append(mask)
    best: tuple[int, ...] | None = None
    for perm in _perm_table(len(positions)):
        mapped = tuple(sorted(_apply_perm(mask, perm) for mask in compact))
        if best is None or mapped < best:
            best = mapped
    assert best is not None
    return best


class _Solver:
    """Minimax over residual families with memoization."""

    def __init__(self, depth_cap: int, canonical: bool) -> None:
        self.depth_cap = depth_cap
        self.canonical = canonical
        self.memo: dict[tuple[int, ...], int] = _SHARED_MEMO if canonical else {}

    def value(self, fam: tuple[int, ...], depth: int) -> int:
        if fam[0] == 0:
            return 0
        key = _canonical_key(fam) if self.canonical else fam
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        if depth > self.depth_cap:
            raise CapExceeded(f"minimax recursion exceeded the {self.depth_cap}-round cap")
        lower = fam[0].bit_count()  # one reveal per round at best
        support = 0
        for member in fam:
            support |= member
        best: int | None = None
        for query in _submasks_ascending(support):
            parts = _split(fam, query)
            if len(parts) == 1 and parts[0][0] < 0:
                continue  # one uninformative branch: the query achieves nothing
            worst = 0
            dominated = False
            for _, child in parts:
                branch = 1 + self.value(child, depth + 1)
                if branch > worst:
                    worst = branch
                if best is not None and worst >= best:
                    dominated = True
                    break
            if dominated:
                continue
            if best is None or worst < best:
                best = worst
                if best == lower:
                    break
        assert best is not None, "some query always makes progress"
        self.memo[key] = best
        return best

    def best_query(self, fam: tuple[int, ...]) -> int:
        """First query (ascending mask order) achieving the minimax value."""
        target = self.value(fam, 0)
        support = 0
        for member in fam:
            support |= member
        for query in _submasks_ascending(support):
            parts = _split(fam, query)
            if len(parts) == 1 and parts[0][0] < 0:
                continue
            worst = 0
            usable = True
            for _, child in parts:
                worst = max(worst, 1 + self.value(child, 0))
                if worst > target:
                    usable = False
                    break
            if usable and worst == target:
                return query
        raise AssertionError("no query achieves the computed minimax value")


def exact_optimal_rounds(
    config: GameConfig,
    *,
    cap: tuple[int, int] = DEFAULT_ORACLE_CAP,
    canonical: bool = True,
) -> int:
    """Minimum over strategies of the worst-case rounds to resolve (n, d).

    ``canonical=False`` switches off memo canonicalization (same values, no
    cross-position sharing); it exists so tests can compare both routes.
    """
    _check_cap(config, cap)
    solver = _Solver(default_round_cap(config), canonical)
    return solver.value(_initial_family(config), 0)


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
    name: str = "minimax",
) -> Strategy:
    """Strategy that replays any consistent transcript and answers optimally.

    Unlike a replayed witness tree this works from arbitrary openings, which
    makes it a convenient optimal continuation for adversary analysis.
    """
    _check_cap(config, cap)
    solver = _Solver(default_round_cap(config), canonical)

    def next_action(cfg: GameConfig, transcript: Transcript) -> StationSet | None:
        state = initial_state(cfg)
        for query, feedback in transcript.rounds:
            state = refine(state, query, feedback)
        if len(state.transmitted) >= cfg.d:
            return None
        struck = state.transmitted.mask
        fam = tuple(sorted(candidate.mask & ~struck for candidate in state.candidates))
        return StationSet(solver.best_query(fam))

    return Strategy(name, next_action)


def canonicalize(state: KnowledgeState) -> KnowledgeState:
    """Least representative of a state under relabeling untransmitted ids.

    Transmitted stations are fixed points; every bijection on the remaining
    ids 1..n is tried and the least relabeled candidate family kept.  Two
    states that differ only by such a relabeling share one representative.
    """
    n = state.config.n
    transmitted = state.transmitted.mask
    movable = [i for i in range(1, n + 1) if not (transmitted >> (i - 1)) & 1]
    if len(movable) > 8:
        raise BudgetExceeded(
            f"canonicalization over {len(movable)} relabelable stations is too large"
        )
    best: tuple[int, ...] | None = None
    for perm in permutations(movable):
        relabel = {station: perm[index] for index, station in enumerate(movable)}
        mapped = tuple(sorted(_relabel_mask(c.mask, relabel) for c in state.candidates))
        if best is None or mapped < best:
            best = mapped
    assert best is not None
    return KnowledgeState(state.config, tuple(StationSet(m) for m in best), state.transmitted)


def _relabel_mask(mask: int, relabel: dict[int, int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        station = low.bit_length()
        out |= 1 << (relabel.get(station, station) - 1)
        mask ^= low
    return out


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

    fam = _initial_family(config)
    return value(0, fam, 0)
