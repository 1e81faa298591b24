"""Conflict resolution on a shared channel: simulate, analyze, bound.

n stations share a slotted broadcast channel; exactly d of them are live and
each must transmit alone once.  Per round a strategy schedules a subset and
learns silence, a single sender's identity, or a collision.  This package
provides the channel semantics, two classic deterministic strategies,
adaptive adversaries, decision-tree construction and normalization, an exact
minimax solver for small instances, counting bounds, and a report that puts
them side by side.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# Every public name, under the module that defines it.  Names are resolved
# on first use (PEP 562), so a command loads only what it runs.
_EXPORTS = {
    "adversary": (
        "exact_answer", "greedy_adversary", "greedy_answer", "make_exact_adversary", "refine",
    ),
    "bounds": (
        "GrowthFactor", "claimed_bound_analytic", "claimed_bound_combinatorial",
        "info_lower_bound", "path_count_bound",
    ),
    "channel": (
        "COLLISION", "DEFAULT_ORACLE_CAP", "Feedback", "FeedbackTag", "GameConfig",
        "KnowledgeState", "SILENCE", "StationSet", "Transcript", "evaluate_query",
        "format_station_set", "initial_state", "single", "transmitted_set",
    ),
    "engine": (
        "GameResult", "game_result_to_doc", "run_adversarial", "run_fixed", "worst_case_rounds",
    ),
    "errors": (
        "AmbiguousLeaf", "BudgetExceeded", "CapExceeded", "DomainError", "Inconsistent",
        "InvalidQuery", "MacqError",
    ),
    "oracle": ("exact_optimal_rounds", "optimal_strategy", "optimal_strategy_tree"),
    "qtree": (
        "NormalFormReport", "QNode", "QTree", "build_tree", "check_normal_form", "export_graph",
        "tree_strategy",
    ),
    "report": (
        "CSV_HEADER", "FLAG_CLAIM_EXCEEDS_OPT", "FLAG_LB_VIOLATION", "ReportRow",
        "generate_report", "report_to_csv",
    ),
    "strategies": (
        "LINEAR_SCAN", "STRATEGIES", "TREE_SPLIT", "Strategy", "linear_scan", "scripted",
        "tree_split",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def _lazy_submodule(name: str) -> object:
    """Register ``macq.<name>`` in ``sys.modules``; its code runs on first use.

    The placeholder is a real module object, so ``import macq.<name>`` and
    code that walks ``sys.modules`` see every submodule from the start, while
    a command that never touches one pays neither its compile nor its run.
    """
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _lazy_submodule(_name)
del _name


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
