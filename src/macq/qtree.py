"""Decision trees of strategies, and their normal form.

``build_tree`` simulates a strategy against every size-d live set and merges
shared transcript prefixes, so each node is a query, each edge a feedback,
and each leaf the unique live set producing that feedback path.  Edges are
colored by their feedback: black for a single, red for silence or collision.

``normalize`` builds the same tree in normal form, in the same walk: every
query drops the stations already revealed by earlier singles on the path,
while the strategy itself still sees its own queries and the feedback they
drew, and every path ends right after its d-th single.  The result keeps path
lengths at most equal to the original, gives every root-to-leaf path exactly
d black edges with distinct stations, and one leaf per size-d live set.  A
query that reduces to the empty set stays as a silent round.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

from .adversary import initial_family, initial_state
from .channel import (
    Feedback,
    GameConfig,
    StationSet,
    Transcript,
    feedback_order,
    format_station_set,
)
from .errors import AmbiguousLeaf, DomainError
from .strategies import Strategy, fold_strategy


class EdgeColor:
    RED = "red"
    BLACK = "black"


def edge_color(feedback: Feedback) -> str:
    """Black iff the feedback is a single transmission."""
    return EdgeColor.BLACK if feedback.is_single else EdgeColor.RED


@dataclass(frozen=True)
class QNode:
    """Internal nodes carry a query and children; leaves carry the live set."""

    query: StationSet | None = None
    children: dict[Feedback, QNode] = field(default_factory=dict)
    resolved_live: StationSet | None = None

    @property
    def is_leaf(self) -> bool:
        return self.query is None


@dataclass(frozen=True)
class QTree:
    config: GameConfig
    root: QNode


def build_tree(
    strategy: Strategy,
    config: GameConfig,
    *,
    normal: bool = False,
) -> QTree:
    """Decision tree of a strategy over all C(n,d) live sets.

    Raises AmbiguousLeaf when the strategy stops while two or more live sets
    share the transcript so far; raises CapExceeded when any path outruns the
    round cap of 4n + 16.  ``normal`` plays every query minus the
    stations already revealed on its path (see ``fold_strategy``).
    """

    def leaf(family: Sequence[int]) -> QNode:
        if len(family) > 1:
            raise AmbiguousLeaf(
                f"strategy {strategy.name!r} stopped with {len(family)} live sets "
                f"sharing the transcript, e.g. {format_station_set(StationSet(family[0]))} and "
                f"{format_station_set(StationSet(family[1]))}"
            )
        # One live set is left: the strategy stopped on it, or all d are revealed.
        return QNode(resolved_live=StationSet(family[0]))

    def node(query: StationSet, branches: list[tuple[Feedback, QNode]]) -> QNode:
        return QNode(query=query, children=dict(branches))

    return QTree(config, fold_strategy(strategy, initial_state(config),
                                       Transcript(config), leaf, node, normal))


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------

def normalize(strategy: Strategy, config: GameConfig) -> QTree:
    """Normal-form tree: each query drops the revealed stations, stop at d singles.

    Errors name the strategy ``<name>-normal``.
    """
    renamed = dataclasses.replace(strategy, name=f"{strategy.name}-normal")
    return build_tree(renamed, config, normal=True)


@dataclass(frozen=True)
class NormalFormReport:
    """What check_normal_form measured on one tree."""

    max_depth: int
    leaf_count: int
    black_per_path: tuple[int, ...]
    repeated_transmitter_paths: int
    property_holds: bool


def max_depth(tree: QTree) -> int:
    """Length in edges of the longest root-to-leaf path."""
    return check_normal_form(tree).max_depth


def leaf_count(tree: QTree) -> int:
    return check_normal_form(tree).leaf_count


def check_normal_form(tree: QTree) -> NormalFormReport:
    """Measure the normal-form properties of a tree.

    property_holds requires the black edges of every root-to-leaf path to
    come from pairwise distinct stations that are exactly its leaf's live set,
    and the leaves' live sets to be the size-d subsets of 1..n, one each.
    """
    blacks: list[int] = []
    lives: list[int] = []
    repeated = mismatched = 0

    def walk(node: QNode, count: int, senders: int) -> int:
        nonlocal repeated, mismatched
        if node.is_leaf:
            live = node.resolved_live.mask if node.resolved_live else 0
            blacks.append(count)
            lives.append(live)
            repeated += senders.bit_count() != count
            mismatched += senders != live
            return 0
        deepest = 0
        for feedback, child in node.children.items():
            sender = 1 << (feedback.station - 1) if feedback.is_single else 0
            deepest = max(deepest, walk(child, count + feedback.is_single, senders | sender))
        return 1 + deepest

    depth = walk(tree.root, 0, 0)
    holds = repeated == mismatched == 0 and tuple(sorted(lives)) == initial_family(tree.config)
    return NormalFormReport(
        max_depth=depth,
        leaf_count=len(blacks),
        black_per_path=tuple(sorted(blacks)),
        repeated_transmitter_paths=repeated,
        property_holds=holds,
    )


# ---------------------------------------------------------------------------
# Export and replay
# ---------------------------------------------------------------------------

def _feedback_label(feedback: Feedback) -> str:
    return f"{feedback.tag.value}:{feedback.station}" if feedback.station else feedback.tag.value


def export_graph(tree: QTree) -> str:
    """Stable text rendering: one line per node, one per edge, preorder ids."""
    lines: list[str] = []
    counter = 0

    def visit(node: QNode) -> int:
        nonlocal counter
        node_id = counter
        counter += 1
        if node.is_leaf:
            lines.append(f"leaf {node_id} live={format_station_set(node.resolved_live or StationSet())}")
            return node_id
        lines.append(f"node {node_id} query={format_station_set(node.query or StationSet())}")
        for feedback in sorted(node.children, key=feedback_order):
            placeholder = len(lines)
            lines.append("")  # edge line slot; child id known only after visiting
            child_id = visit(node.children[feedback])
            lines[placeholder] = (
                f"edge {node_id} {child_id} label={_feedback_label(feedback)} "
                f"color={edge_color(feedback)}"
            )
        return node_id

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
