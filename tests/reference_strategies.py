"""Strategies shared by several test modules: transcript-function references
for the built-in state machines, and random strategies for sweeps."""

import random

from macq import COLLISION, TREE_SPLIT, DomainError, StationSet, Strategy

S = StationSet.from_ids


def reference_scripted(queries):
    """scripted as a function of the whole transcript (reference only)."""

    def next_action(config, transcript):
        played = len(transcript.rounds)
        return queries[played] if played < len(queries) else None

    return Strategy("script", next_action)


def reference_tree_strategy(tree):
    """tree_strategy walking the tree from its root on every call (reference only)."""

    def next_action(config, transcript):
        node = tree.root
        for query, feedback in transcript.rounds:
            if node.query != query:
                raise DomainError("transcript diverges from the tree's queries")
            child = node.children.get(feedback)
            if child is None:
                raise DomainError("transcript follows a feedback edge the tree lacks")
            node = child
        return node.query

    return Strategy("tree-replay", next_action)


def random_subset(rng, n):
    # Station n+1 now and then, so some strategies query beyond n.
    return S(i for i in range(1, n + 2) if rng.random() < (0.4 if i <= n else 0.05))


def random_adaptive(seed, n):
    """Queries drawn from a generator seeded by the transcript so far."""

    def next_action(config, transcript):
        key = repr([(list(q), f.tag.value, f.station) for q, f in transcript.rounds])
        rng = random.Random(f"{seed}:{key}")
        if rng.random() < 0.08:
            return None
        return random_subset(rng, n)

    return Strategy(f"adaptive-{seed}", next_action)


def _unboxed(state):
    return state[0] if state.__class__ is list else state


def _boxed_below_step(state, query, feedback):
    stack = TREE_SPLIT.step(_unboxed(state), query, feedback)
    if state.__class__ is list or feedback == COLLISION and len(query) <= 3:
        return [stack]
    return stack


# tree_split with its interval stack boxed in a list once a query of at most
# 3 stations collides: its states hash above that point and not below, so a
# shared fold still stores the positions above the boxed subtrees.
TREE_BOXED_BELOW = Strategy("tree", lambda config, state: TREE_SPLIT.query(config, _unboxed(state)),
                            TREE_SPLIT.start, _boxed_below_step)
