"""Run one macq command with its modules' public functions timed from outside.

Usage: python bench/trace_child.py OUT.json <macq arguments...>

The wrappers replace each listed function in every macq module that
imported it, and patch the built-in strategies in place, so calls through
any alias are seen.  Coarse functions get one span per call (id, parent
span id, start, end, and the time spent in hot functions directly beneath
it).  Hot functions, called up to millions of times, get only aggregate
calls, self time and outermost-call total time.  Everything stays in memory
and is written to OUT.json when the command exits.
"""

from __future__ import annotations

import json
import sys
import time

COARSE = (
    "cli.dispatch",
    "oracle.exact_optimal_rounds",
    "oracle.optimal_strategy_tree",
    "report.generate_report",
    "engine.worst_case_rounds",
    "engine.run_adversarial",
    "adversary.exact_answer",
    "qtree.build_tree",
    "qtree.check_normal_form",
    "qtree.export_graph",
    "bounds.claimed_bound_analytic",
    "bounds.claimed_bound_combinatorial",
)
HOT = (
    "engine.run_fixed",
    "strategies.tree_split",
    "strategies.linear_scan",
    "channel.evaluate_query",
    "channel.transmitted_set",
    "channel.StationSet.from_ids",
    "adversary.refine",
    "adversary.greedy_answer",
)


class Tracer:
    """Call stack of frames ``[span id, span time within, hot time, inner time]``."""

    def __init__(self) -> None:
        self.stack: list[list] = [[-1, 0.0, 0.0, 0.0]]
        self.spans: list = []
        self.hot: dict[str, list] = {}       # name -> [calls, self_s, total_s]
        self.active: dict[str, list[int]] = {}
        self.counters = {"strategy_calls_in_worst_case": 0, "live_sets_swept": 0,
                         "strategy_calls_in_build_tree": 0}
        self.trees: list = []

    def coarse(self, name: str, fn, before=None, after=None):
        stack, spans, perf = self.stack, self.spans, time.perf_counter
        active = self.active.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0, 0.0, 0.0]
            stack.append(frame)
            active[0] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                active[0] -= 1
                stack.pop()
                spans[sid] = (sid, parent[0], name, t0, t1, frame[2])
                parent[1] += t1 - t0
                parent[3] += t1 - t0
            if after is not None:
                after(result)
            return result

        return wrapper

    def hot_fn(self, name: str, fn, before=None):
        stack, perf = self.stack, time.perf_counter
        stat = self.hot.setdefault(name, [0, 0.0, 0.0])
        active = [0]

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            parent = stack[-1]
            frame = [parent[0], 0.0, 0.0, 0.0]
            stack.append(frame)
            active[0] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                active[0] -= 1
                stack.pop()
                stat[0] += 1
                stat[1] += dt - frame[3]
                if not active[0]:
                    stat[2] += dt
                parent[1] += frame[1]
                parent[2] += dt - frame[1]
                parent[3] += dt

        return wrapper

    def internal_nodes(self) -> int:
        count = 0
        for tree in self.trees:
            todo = [tree.root]
            while todo:
                node = todo.pop()
                if not node.is_leaf:
                    count += 1
                    todo.extend(node.children.values())
        return count

    def dump(self) -> dict:
        counters = dict(self.counters, internal_nodes_built=self.internal_nodes())
        return {"spans": self.spans, "hot": self.hot, "counters": counters}


def install(tracer: Tracer) -> None:
    """Wrap every listed function wherever macq imported it."""
    import math

    import macq
    from macq import channel, strategies

    modules = [m for key, m in sys.modules.items() if key == "macq" or key.startswith("macq.")]
    worst_case = tracer.active.setdefault("engine.worst_case_rounds", [0])
    building = tracer.active.setdefault("qtree.build_tree", [0])

    def count_strategy_call() -> None:
        if worst_case[0]:
            tracer.counters["strategy_calls_in_worst_case"] += 1
        if building[0]:
            tracer.counters["strategy_calls_in_build_tree"] += 1

    def count_live_sets(args) -> None:
        config = args[1]
        tracer.counters["live_sets_swept"] += math.comb(config.n, config.d)

    hooks = {
        "engine.worst_case_rounds": {"before": count_live_sets},
        "qtree.build_tree": {"after": tracer.trees.append},
        "strategies.tree_split": {"before": count_strategy_call},
        "strategies.linear_scan": {"before": count_strategy_call},
    }
    for name in COARSE + HOT:
        module_name, attr = name.split(".", 1)
        if attr == "StationSet.from_ids":
            original = channel.StationSet.__dict__["from_ids"].__func__
            wrapped = tracer.hot_fn(name, original)
            channel.StationSet.from_ids = classmethod(wrapped)
            continue
        original = getattr(getattr(macq, module_name), attr)
        make = tracer.coarse if name in COARSE else tracer.hot_fn
        wrapped = make(name, original, **hooks.get(name, {}))
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
        for strategy in strategies.STRATEGIES.values():
            if strategy.next_action is original:
                object.__setattr__(strategy, "next_action", wrapped)


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import macq.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    sys.argv = ["macq", *argv]
    try:
        macq.cli.main()
    finally:
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump(dict(tracer.dump(), import_s=import_s), out)


if __name__ == "__main__":
    main()
