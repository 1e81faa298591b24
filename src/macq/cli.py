"""Command line front end.

Subcommands: simulate, worst-case, tree, bounds, oracle, report.  Exit codes:
0 on success, 2 on usage errors (argparse), 1 on runtime errors, which are
printed to stderr as ``error: <ErrorName>: <details>``, and 130 on Ctrl-C,
printed as ``error: Interrupted: <details>``.

Only what building the parser needs is imported here; each command imports
the modules it runs, so a short command does not pay for the others.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .channel import DEFAULT_ORACLE_CAP, GameConfig, StationSet, format_station_set, is_decimal
from .errors import DomainError, MacqError
from .strategies import STRATEGIES


def _live_set(text: str) -> tuple[int, ...]:
    """The ids as given, strictly ascending and >= 1; n is not known yet."""
    parts = text.split(",")
    if not all(is_decimal(part) for part in parts):
        raise argparse.ArgumentTypeError(f"live set must be comma-separated ids, got {text!r}")
    ids = [int(part) for part in parts]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise argparse.ArgumentTypeError(f"live ids must be strictly ascending, got {text!r}")
    if ids[0] < 1:
        raise argparse.ArgumentTypeError("station ids are 1-based")
    return tuple(ids)


def _positive_int(text: str) -> int:
    if not is_decimal(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _integer(text: str) -> int:
    """ASCII digits with an optional leading ``-``; the range is checked later."""
    if not is_decimal(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
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
            p.add_argument("--n", type=_integer, required=True, help="number of stations")
            p.add_argument("--d", type=_integer, required=True, help="number of live stations")
        p.add_argument("--out", type=Path, default=None, help="write output to this file")

    def add_oracle_cap(p: argparse.ArgumentParser) -> None:
        n_cap, d_cap = DEFAULT_ORACLE_CAP
        p.add_argument("--oracle-n-cap", type=_positive_int, default=n_cap,
                       help=f"largest n the exact oracle solves (default {n_cap})")
        p.add_argument("--oracle-d-cap", type=_positive_int, default=d_cap,
                       help=f"largest d the exact oracle solves (default {d_cap})")

    sim = sub.add_parser("simulate", help="run one game and print its JSON document")
    add_common(sim)
    sim.add_argument("--strategy", choices=sorted(STRATEGIES), required=True)
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--live", type=_live_set, help="fixed live set, e.g. 1,3")
    source.add_argument("--adversary", choices=["greedy", "exact"])
    sim.set_defaults(handler=_cmd_simulate)

    worst = sub.add_parser("worst-case", help="max rounds over all live sets, with witness")
    add_common(worst)
    worst.add_argument("--strategy", choices=sorted(STRATEGIES), required=True)
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
    add_oracle_cap(oracle)
    oracle.set_defaults(handler=_cmd_oracle)

    report = sub.add_parser("report", help="CSV grid comparing strategies, optima, bounds")
    add_common(report, n_d=False)
    report.add_argument("--n-max", type=_integer, default=6,
                        help="largest n in the grid, which starts at n=2 (default 6)")
    report.add_argument("--d-max", type=_integer, default=3,
                        help="largest d in the grid, which starts at d=1 (default 3)")
    add_oracle_cap(report)
    report.set_defaults(handler=_cmd_report)

    return parser


def _cmd_simulate(args: argparse.Namespace) -> str:
    import json

    from .adversary import greedy_adversary, make_exact_adversary
    from .engine import game_result_to_doc, run_adversarial, run_fixed

    config = GameConfig(args.n, args.d)
    strategy = STRATEGIES[args.strategy]
    if args.live is not None:
        if args.live[-1] > config.n:  # so the error names n, not the station cap
            raise DomainError(f"live set {format_station_set(args.live)} exceeds n={config.n}")
        result = run_fixed(strategy, config, StationSet.from_ids(args.live))
    else:
        adversary = (
            greedy_adversary if args.adversary == "greedy" else make_exact_adversary(strategy)
        )
        result = run_adversarial(strategy, adversary, config)
    return json.dumps(game_result_to_doc(result)) + "\n"


def _cmd_worst_case(args: argparse.Namespace) -> str:
    from .engine import worst_case_rounds

    config = GameConfig(args.n, args.d)
    strategy = STRATEGIES[args.strategy]
    rounds, witness = worst_case_rounds(strategy, config)
    if args.format == "json-lines":
        import json

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
    from .qtree import build_tree, export_graph, normal_form_report

    config = GameConfig(args.n, args.d)
    strategy = STRATEGIES[args.strategy]
    if args.check:
        import json

        report = normal_form_report(strategy, config, normal=args.normalize)
        return json.dumps({name: getattr(report, name) for name in report.__slots__}) + "\n"
    return export_graph(build_tree(strategy, config, normal=args.normalize))


def _cmd_bounds(args: argparse.Namespace) -> str:
    from .bounds import counting_columns

    config = GameConfig(args.n, args.d)
    values = {"n": config.n, "d": config.d, **counting_columns(config.n, config.d)}
    if args.format == "json-lines":
        import json

        return json.dumps(values) + "\n"
    header = ",".join(values)
    row = ",".join(str(v) for v in values.values())
    return f"{header}\n{row}\n"


def _cmd_oracle(args: argparse.Namespace) -> str:
    from .oracle import exact_optimal_rounds, optimal_strategy_tree
    from .qtree import export_graph

    config = GameConfig(args.n, args.d)
    cap = (args.oracle_n_cap, args.oracle_d_cap)
    value = exact_optimal_rounds(config, cap=cap)
    out = f"{value}\n"
    if args.witness:
        out += export_graph(optimal_strategy_tree(config, cap=cap))
    return out


def _cmd_report(args: argparse.Namespace) -> str:
    from .report import generate_report, report_to_csv

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
        if args.out is None:
            try:
                sys.stdout.write(output)
                sys.stdout.flush()  # a full device fails here, not at exit
            except OSError:  # the unwritten bytes stay buffered: flush them into the null device at exit
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise
        else:
            args.out.write_text(output, encoding="utf-8")
    except (MacqError, OSError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(f"error: Interrupted: {args.command} stopped by Ctrl-C", file=sys.stderr)
        return 130
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
