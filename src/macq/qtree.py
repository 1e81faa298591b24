"""Decision trees of strategies, and their normal form.

``build_tree`` is one fold of ``strategies.fold_strategy`` over every size-d
live set at once, so each node is a query, each edge a feedback, and each
leaf the unique live set producing that feedback path.  ``export_graph``
colors each edge by its feedback: black for a single, red for silence or
collision.

``build_tree(..., normal=True)`` builds the same tree in normal form, in the
same walk: every query drops the stations already revealed by earlier singles
on the path, while the strategy itself still sees its own queries and the
feedback they drew, and every path ends right after its d-th single.  The
result keeps path lengths at most equal to the original, gives every
root-to-leaf path exactly d black edges with distinct stations, and one leaf
per size-d live set.  A query that reduces to the empty set stays as a silent
round.

``check_normal_form`` measures a built tree.  ``normal_form_report`` gives the
same report from a fold with a memo, building no tree: a subtree's measure is
relative to the revealed stations, as ``worst_case_rounds``'s witness is.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .channel import (
    Feedback,
    Frozen,
    GameConfig,
    StationSet,
    Transcript,
    _shown,
    format_station_set,
    initial_state,
)
from .errors import AmbiguousLeaf, DomainError
from .strategies import Strategy, fold_strategy


class QNode(Frozen):
    """A query and its children, or a leaf's live set: ``QNode(query,
    children, None)`` or ``QNode(None, {}, live)``.  Each node owns its
    ``children`` dict, so a node cannot be hashed."""

    __slots__ = ("query", "children", "resolved_live")
    query: StationSet | None
    children: dict[Feedback, QNode]
    resolved_live: StationSet | None

    @property
    def is_leaf(self) -> bool:
        return self.query is None


class QTree(Frozen):
    __slots__ = ("config", "root")
    config: GameConfig
    root: QNode


def _fold_tree(strategy: Strategy, config: GameConfig, normal: bool, leaf: Callable[[int, int], object],
               node: Callable[..., object], memo: dict | None = None) -> object:
    """Fold the strategy's tree over all C(n,d) live sets, ``leaf(live, revealed)``
    at each live set left; with ``normal`` errors name it ``<name>-normal``."""
    if normal:
        strategy = Strategy(f"{strategy.name}-normal", strategy.query, strategy.start, strategy.step)

    def resolved(family: Sequence[int], revealed: int) -> object:
        if len(family) > 1:
            raise AmbiguousLeaf(
                f"strategy {_shown(strategy.name)} stopped with {len(family)} live sets "
                f"sharing the transcript, e.g. {format_station_set(StationSet(family[0]))} and "
                f"{format_station_set(StationSet(family[1]))}"
            )
        # One live set is left: the strategy stopped on it, or all d are revealed.
        return leaf(family[0], revealed)

    return fold_strategy(strategy, initial_state(config), Transcript(config), resolved, node,
                         normal, memo)


def build_tree(
    strategy: Strategy,
    config: GameConfig,
    *,
    normal: bool = False,
) -> QTree:
    """Decision tree of a strategy over all C(n,d) live sets.

    Raises AmbiguousLeaf when the strategy stops while two or more live sets
    share the transcript so far; raises CapExceeded when any path outruns the
    round cap of 4n + 16.  ``normal`` builds the normal-form tree: it plays
    every query minus the stations already revealed on its path (see
    ``fold_strategy``), and errors name the strategy ``<name>-normal``.
    """

    def node(query: StationSet, branches: list[tuple[Feedback, int, QNode]]) -> QNode:
        return QNode(query, {feedback: child for feedback, _, child in branches}, None)

    return QTree(config, _fold_tree(strategy, config, normal,
                                    lambda live, _: QNode(None, {}, StationSet(live)), node))


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------

class NormalFormReport(Frozen):
    """What check_normal_form measured on one tree."""

    __slots__ = ("max_depth", "leaf_count", "black_per_path", "repeated_transmitter_paths",
                 "property_holds")
    max_depth: int
    leaf_count: int
    black_per_path: tuple[int, ...]
    repeated_transmitter_paths: int
    property_holds: bool


# A subtree's measure: its depth, its leaves per count of black edges below,
# and its leaves with a repeated sender and with a live set not all revealed.
_Measure = tuple[int, dict[int, int], int, int]


def _measure_leaf(live: int, revealed: int) -> _Measure:
    # A walk's live set holds the revealed stations: only its residual decides this.
    return 0, {0: 1}, 0, live != revealed


def _measure_node(query: StationSet, branches: list[tuple[Feedback, int, _Measure]]) -> _Measure:
    deepest, blacks, repeated, mismatched = 0, {}, 0, 0
    for feedback, fresh, (depth, below, rep, mis) in branches:
        deepest = max(deepest, depth)
        if feedback.is_single:
            below = {count + 1: leaves for count, leaves in below.items()}
            if not fresh:  # its sender transmitted alone higher up the path
                rep = sum(below.values())
        for count, leaves in below.items():
            blacks[count] = blacks.get(count, 0) + leaves
        repeated, mismatched = repeated + rep, mismatched + mis
    return 1 + deepest, blacks, repeated, mismatched


def _report(measure: _Measure, partition: bool) -> NormalFormReport:
    depth, blacks, repeated, mismatched = measure
    paths = tuple(count for count in sorted(blacks) for _ in range(blacks[count]))
    return NormalFormReport(depth, len(paths), paths, repeated,
                            repeated == mismatched == 0 and partition)


def normal_form_report(strategy: Strategy, config: GameConfig, *,
                       normal: bool = False) -> NormalFormReport:
    """``check_normal_form(build_tree(strategy, config, normal=normal))`` and its
    errors, with no tree built; the fold's leaves partition the live sets."""
    return _report(_fold_tree(strategy, config, normal, _measure_leaf, _measure_node, {}), True)


def check_normal_form(tree: QTree) -> NormalFormReport:
    """Measure the normal-form properties of a tree.

    max_depth is the length in edges of the longest root-to-leaf path.
    property_holds requires the black edges of every root-to-leaf path to
    come from pairwise distinct stations that are exactly its leaf's live set,
    and the leaves' live sets to be the size-d subsets of 1..n, one each.
    """
    lives: list[int] = []

    def walk(node: QNode, senders: int) -> _Measure:
        if node.is_leaf:
            lives.append(node.resolved_live.mask if node.resolved_live is not None else 0)
            return _measure_leaf(lives[-1], senders)
        branches = []
        for feedback, child in node.children.items():
            sender = StationSet.from_ids((feedback.station,)).mask if feedback.is_single else 0
            branches.append((feedback, sender & ~senders, walk(child, senders | sender)))
        return _measure_node(node.query, branches)

    return _report(walk(tree.root, 0), tuple(sorted(lives)) == initial_state(tree.config).family)


# ---------------------------------------------------------------------------
# Export and replay
# ---------------------------------------------------------------------------

def _feedback_label(feedback: Feedback) -> str:
    return f"{feedback.tag.value}:{feedback.station}" if feedback.is_single else feedback.tag.value


def export_graph(tree: QTree) -> str:
    """Stable text rendering: one line per node, one per edge, preorder ids.
    A node's edges print in the order its ``children`` holds them."""
    lines: list[str] = []
    counter = 0

    def visit(node: QNode) -> None:
        nonlocal counter
        node_id = counter
        counter += 1
        if node.is_leaf:
            lines.append(f"leaf {node_id} live={format_station_set(node.resolved_live or StationSet())}")
            return
        lines.append(f"node {node_id} query={format_station_set(node.query)}")
        for feedback, child in node.children.items():
            # Ids go in preorder, so the child about to be visited gets ``counter``.
            lines.append(f"edge {node_id} {counter} label={_feedback_label(feedback)} "
                         f"color={'black' if feedback.is_single else 'red'}")
            visit(child)

    visit(tree.root)
    return "\n".join(lines) + "\n"


def tree_strategy(tree: QTree) -> Strategy:
    """Replay a built tree as a strategy (leaf reached means stop).  Its state
    is the current node, or None off the tree, refused only at the next query."""

    def step(node: QNode | None, query: StationSet, feedback: Feedback) -> QNode | None:
        if node is None:
            return None
        if node.query != query:
            raise DomainError("transcript diverges from the tree's queries")
        return node.children.get(feedback)

    def next_query(config: GameConfig, node: QNode | None) -> StationSet | None:
        if node is None:
            raise DomainError("transcript follows a feedback edge the tree lacks")
        return node.query

    return Strategy("tree-replay", next_query, lambda config: tree.root, step)
