"""Decision trees of strategies, and their normal form.

``build_tree`` simulates a strategy against every size-d live set and merges
shared transcript prefixes, so each node is a query, each edge a feedback,
and each leaf the unique live set producing that feedback path.  Edges are
colored by their feedback: black for a single, red for silence or collision.

``normalize`` rewrites a strategy before building its tree: every query drops
the stations already revealed by earlier singles on the path (re-deriving the
feedback the reduced query would have produced), and every path is truncated
right after its d-th single.  The result keeps path lengths at most equal to
the original, gives every root-to-leaf path exactly d black edges with
distinct stations, and one leaf per size-d live set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .adversary import DEFAULT_ENUMERATION_BUDGET, initial_state
from .channel import (
    COLLISION,
    Feedback,
    FeedbackTag,
    GameConfig,
    StationSet,
    Transcript,
    evaluate_query,
    feedback_order,
    format_station_set,
)
from .errors import AmbiguousLeaf
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
    round_cap: int | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> QTree:
    """Decision tree of a strategy over all C(n,d) live sets.

    Raises AmbiguousLeaf when the strategy stops while two or more live sets
    share the transcript so far; raises CapExceeded when any path outruns the
    round cap (default 4n + 16).
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

    family = [live.mask for live in initial_state(config, budget=budget).candidates]
    return QTree(config, fold_strategy(
        strategy, config, family, Transcript(config), 0, leaf, node, round_cap
    ))


# ---------------------------------------------------------------------------
# Normal form
# ---------------------------------------------------------------------------

def _lift_feedback(
    derived: Feedback, base_query: StationSet, revealed: StationSet
) -> Feedback:
    """Feedback the unreduced query would have produced.

    Revealed stations are always live, so the unreduced query meets the live
    set in its revealed stations plus whatever the reduced query met.
    """
    if derived.tag is FeedbackTag.COLLISION:
        return COLLISION
    sender = StationSet()
    if derived.is_single:
        sender = StationSet.singleton(derived.station)  # type: ignore[arg-type]
    return evaluate_query(base_query, revealed | sender)


def normalized_strategy(base: Strategy) -> Strategy:
    """Derived strategy: drop revealed stations from queries, stop at d singles.

    Each call replays the derived transcript, reconstructing round by round
    the transcript the base strategy would have seen, then reduces the base
    strategy's next query.  A query that reduces to the empty set is kept
    (its silence round preserves path lengths, never extends them).
    """

    def next_action(config: GameConfig, transcript: Transcript) -> StationSet | None:
        revealed = StationSet()
        base_transcript = Transcript(config)
        for derived_query, derived_feedback in transcript.rounds:
            base_action = base.next_action(config, base_transcript)
            if base_action is None:
                raise ValueError("derived transcript continues past the base strategy's stop")
            if derived_query != base_action - revealed:
                raise ValueError("transcript was not produced by this normalized strategy")
            base_feedback = _lift_feedback(derived_feedback, base_action, revealed)
            base_transcript = base_transcript.extend(base_action, base_feedback)
            if derived_feedback.is_single:
                revealed = revealed | StationSet.singleton(derived_feedback.station)  # type: ignore[arg-type]
        if len(revealed) >= config.d:
            return None
        base_action = base.next_action(config, base_transcript)
        if base_action is None:
            return None
        return base_action - revealed

    return Strategy(f"{base.name}-normal", next_action)


def normalize(
    strategy: Strategy,
    config: GameConfig,
    *,
    round_cap: int | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> QTree:
    """Tree of the normalized (reveal-dropping, d-single-truncated) strategy."""
    return build_tree(normalized_strategy(strategy), config, round_cap=round_cap, budget=budget)


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

    def depth(node: QNode) -> int:
        if node.is_leaf:
            return 0
        return 1 + max(depth(child) for child in node.children.values())

    return depth(tree.root)


def leaf_count(tree: QTree) -> int:
    def count(node: QNode) -> int:
        if node.is_leaf:
            return 1
        return sum(count(child) for child in node.children.values())

    return count(tree.root)


def check_normal_form(tree: QTree) -> NormalFormReport:
    """Measure the normal-form properties of a tree.

    property_holds requires every root-to-leaf path to carry exactly d black
    edges with pairwise distinct stations, and exactly one leaf per size-d
    live set.
    """
    d = tree.config.d
    blacks: list[int] = []
    repeated = 0

    def walk(node: QNode, senders: tuple[int, ...]) -> None:
        nonlocal repeated
        if node.is_leaf:
            blacks.append(len(senders))
            if len(set(senders)) != len(senders):
                repeated += 1
            return
        for feedback, child in node.children.items():
            extended = senders + (feedback.station,) if feedback.is_single else senders
            walk(child, extended)

    walk(tree.root, ())
    leaves = len(blacks)
    expected_leaves = math.comb(tree.config.n, d)
    holds = (
        repeated == 0
        and leaves == expected_leaves
        and all(count == d for count in blacks)
    )
    return NormalFormReport(
        max_depth=max_depth(tree),
        leaf_count=leaves,
        black_per_path=tuple(sorted(blacks)),
        repeated_transmitter_paths=repeated,
        property_holds=holds,
    )


# ---------------------------------------------------------------------------
# Export and replay
# ---------------------------------------------------------------------------

def _feedback_label(feedback: Feedback) -> str:
    if feedback.tag is FeedbackTag.SILENCE:
        return "silence"
    if feedback.tag is FeedbackTag.COLLISION:
        return "collision"
    return f"single:{feedback.station}"


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


def tree_strategy(tree: QTree, name: str = "tree-replay") -> Strategy:
    """Replay a built tree as a strategy (leaf reached means stop)."""

    def next_action(config: GameConfig, transcript: Transcript) -> StationSet | None:
        node = tree.root
        for query, feedback in transcript.rounds:
            if node.query != query:
                raise ValueError("transcript diverges from the tree's queries")
            child = node.children.get(feedback)
            if child is None:
                raise ValueError("transcript follows a feedback edge the tree lacks")
            node = child
        return node.query

    return Strategy(name, next_action)
