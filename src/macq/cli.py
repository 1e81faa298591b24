"""Command line front end.

Subcommands: simulate, worst-case, tree, bounds, oracle, report.  Exit codes:
0 on success, 2 on usage errors (argparse), 1 on runtime errors, which are
printed to stderr as ``error: <ErrorName>: <details>``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .adversary import greedy_adversary, make_exact_adversary
from .bounds import (
    GrowthFactor,
    claimed_bound_analytic,
    claimed_bound_combinatorial,
    info_lower_bound,
)
from .channel import GameConfig, StationSet, format_station_set
from .engine import game_result_to_doc, run_adversarial, run_fixed, worst_case_rounds
from .errors import MacqError
from .oracle import DEFAULT_ORACLE_CAP, exact_optimal_rounds, optimal_strategy_tree
from .qtree import build_tree, check_normal_form, export_graph, normalize
from .report import generate_report, report_to_csv
from .strategies import STRATEGIES


def _live_set(text: str) -> StationSet:
    try:
        ids = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"live set must be comma-separated ids, got {text!r}")
    if not ids:
        raise argparse.ArgumentTypeError("live set must not be empty")
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise argparse.ArgumentTypeError(f"live ids must be strictly ascending, got {text!r}")
    if ids[0] < 1:
        raise argparse.ArgumentTypeError("station ids are 1-based")
    return StationSet.from_ids(ids)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macq",
        description="Conflict-resolution games on a multiple access channel: "
        "simulate strategies, inspect decision trees, compare bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, n_d: bool = True) -> None:
        if n_d:
            p.add_argument("--n", type=int, required=True, help="number of stations")
            p.add_argument("--d", type=int, required=True, help="number of live stations")
        p.add_argument("--out", type=Path, default=None, help="write output to this file")

    sim = sub.add_parser("simulate", help="run one game and print its JSON document")
    add_common(sim)
    sim.add_argument("--strategy", choices=sorted(STRATEGIES), required=True)
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--live", type=_live_set, help="fixed live set, e.g. 1,3")
    source.add_argument("--adversary", choices=["greedy", "exact"])
    sim.add_argument("--round-cap", type=_positive_int, default=None)
    sim.set_defaults(handler=_cmd_simulate)

    worst = sub.add_parser("worst-case", help="max rounds over all live sets, with witness")
    add_common(worst)
    worst.add_argument("--strategy", choices=sorted(STRATEGIES), required=True)
    worst.add_argument("--round-cap", type=_positive_int, default=None)
    worst.add_argument("--budget", type=int, default=10**6)
    worst.add_argument("--format", choices=["text", "json-lines"], default="text")
    worst.set_defaults(handler=_cmd_worst_case)

    tree = sub.add_parser("tree", help="build a strategy's decision tree and export it")
    add_common(tree)
    tree.add_argument("--strategy", choices=sorted(STRATEGIES), required=True)
    tree.add_argument("--normalize", action="store_true", help="build the normalized tree")
    tree.add_argument("--check", action="store_true", help="print the normal-form report instead")
    tree.set_defaults(handler=_cmd_tree)

    bounds = sub.add_parser("bounds", help="counting bounds for one instance")
    add_common(bounds)
    bounds.add_argument("--format", choices=["csv", "json-lines"], default="csv")
    bounds.set_defaults(handler=_cmd_bounds)

    oracle = sub.add_parser("oracle", help="exact optimal worst-case rounds")
    add_common(oracle)
    oracle.add_argument("--witness", action="store_true", help="also print an optimal tree")
    oracle.add_argument("--oracle-n-cap", type=_positive_int, default=DEFAULT_ORACLE_CAP[0])
    oracle.add_argument("--oracle-d-cap", type=_positive_int, default=DEFAULT_ORACLE_CAP[1])
    oracle.set_defaults(handler=_cmd_oracle)

    report = sub.add_parser("report", help="CSV grid comparing strategies, optima, bounds")
    add_common(report, n_d=False)
    report.add_argument("--n-max", type=int, default=6)
    report.add_argument("--d-max", type=int, default=3)
    report.add_argument("--oracle-n-cap", type=_positive_int, default=DEFAULT_ORACLE_CAP[0])
    report.add_argument("--oracle-d-cap", type=_positive_int, default=DEFAULT_ORACLE_CAP[1])
    report.set_defaults(handler=_cmd_report)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> str:
    config = GameConfig(args.n, args.d)
    strategy = STRATEGIES[args.strategy]
    if args.live is not None:
        result = run_fixed(strategy, config, args.live, args.round_cap)
    else:
        adversary = (
            greedy_adversary if args.adversary == "greedy" else make_exact_adversary(strategy)
        )
        result = run_adversarial(strategy, adversary, config, args.round_cap)
    return json.dumps(game_result_to_doc(result)) + "\n"


def _cmd_worst_case(args: argparse.Namespace) -> str:
    config = GameConfig(args.n, args.d)
    strategy = STRATEGIES[args.strategy]
    rounds, witness = worst_case_rounds(strategy, config, args.round_cap, budget=args.budget)
    if args.format == "json-lines":
        doc = {
            "n": config.n,
            "d": config.d,
            "strategy": strategy.name,
            "rounds": rounds,
            "witness": list(witness),
        }
        return json.dumps(doc) + "\n"
    return f"rounds={rounds} witness={format_station_set(witness)}\n"


def _cmd_tree(args: argparse.Namespace) -> str:
    config = GameConfig(args.n, args.d)
    strategy = STRATEGIES[args.strategy]
    built = normalize(strategy, config) if args.normalize else build_tree(strategy, config)
    if args.check:
        report = check_normal_form(built)
        doc = {
            "max_depth": report.max_depth,
            "leaf_count": report.leaf_count,
            "black_per_path": list(report.black_per_path),
            "repeated_transmitter_paths": report.repeated_transmitter_paths,
            "property_holds": report.property_holds,
        }
        return json.dumps(doc) + "\n"
    return export_graph(built)


def _cmd_bounds(args: argparse.Namespace) -> str:
    config = GameConfig(args.n, args.d)
    n, d = config.n, config.d
    values = {
        "n": n,
        "d": d,
        "info_lb": info_lower_bound(n, d),
        "claimed_factorial": claimed_bound_combinatorial(n, d, GrowthFactor.FACTORIAL),
        "claimed_power": claimed_bound_combinatorial(n, d, GrowthFactor.POWER),
        "claimed_analytic": claimed_bound_analytic(n, d),
    }
    if args.format == "json-lines":
        return json.dumps(values) + "\n"
    header = ",".join(values)
    row = ",".join(str(v) for v in values.values())
    return f"{header}\n{row}\n"


def _cmd_oracle(args: argparse.Namespace) -> str:
    config = GameConfig(args.n, args.d)
    cap = (args.oracle_n_cap, args.oracle_d_cap)
    value = exact_optimal_rounds(config, cap=cap)
    out = f"{value}\n"
    if args.witness:
        out += export_graph(optimal_strategy_tree(config, cap=cap))
    return out


def _cmd_report(args: argparse.Namespace) -> str:
    cap = (args.oracle_n_cap, args.oracle_d_cap)
    return report_to_csv(generate_report(args.n_max, args.d_max, cap))


def dispatch(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse prints its own message
        return int(exit_.code or 0)
    try:
        output = args.handler(args)
        if args.out is not None:
            args.out.write_text(output, encoding="utf-8")
    except (MacqError, OSError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        sys.stdout.write(output)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
