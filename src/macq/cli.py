"""Command line front end.

Subcommands: simulate, worst-case, tree, bounds, oracle, report.  Exit codes:
0 on success, 2 on usage errors (argparse), 1 on runtime errors, which are
printed to stderr as ``error: <ErrorName>: <details>``, and 130 on Ctrl-C,
printed as ``error: Interrupted: <details>``.

Each handler returns its output as text or as a JSON document (a dict), and
``dispatch`` writes it, encoding a document as one line of JSON.  Start-up
is paid per command, so a command builds and runs only what it needs.
``build_parser(argv)`` adds every subcommand's name and help, but sets up
the arguments only of those named by a token of ``argv``: argparse parses
with the one subparser whose name is exactly such a token, so the others
would only cost time.  The modules are bound as the lazy placeholders
``import macq`` registers, each run when a handler first reads a name from
it, so ``macq --help`` runs no model code.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import adversary, bounds, channel, engine, oracle, qtree, report, strategies
from .errors import DomainError, MacqError


def _live_set(text: str) -> tuple[int, ...]:
    """The ids as given, strictly ascending and >= 1; n is not known yet."""
    parts = text.split(",")
    if not all(channel.is_decimal(part) for part in parts):
        raise argparse.ArgumentTypeError(f"live set must be comma-separated ids, got {text!r}")
    ids = [int(part) for part in parts]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise argparse.ArgumentTypeError(f"live ids must be strictly ascending, got {text!r}")
    if ids[0] < 1:
        raise argparse.ArgumentTypeError("station ids are 1-based")
    return tuple(ids)


def _positive_int(text: str) -> int:
    if not channel.is_decimal(text) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _integer(text: str) -> int:
    """ASCII digits with an optional leading ``-``; the range is checked later."""
    if not channel.is_decimal(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _cmd_simulate(args: argparse.Namespace) -> dict:
    config = channel.GameConfig(args.n, args.d)
    strategy = strategies.STRATEGIES[args.strategy]
    if args.live is not None:
        if args.live[-1] > config.n:  # so the error names n, not the station cap
            shown = channel.format_station_set(args.live)
            raise DomainError(f"live set {shown} exceeds n={config.n}")
        result = engine.run_fixed(strategy, config, channel.StationSet.from_ids(args.live))
    else:
        opponent = (adversary.greedy_adversary if args.adversary == "greedy"
                    else adversary.make_exact_adversary(strategy))
        result = engine.run_adversarial(strategy, opponent, config)
    return engine.game_result_to_doc(result)


def _cmd_worst_case(args: argparse.Namespace) -> str | dict:
    config = channel.GameConfig(args.n, args.d)
    strategy = strategies.STRATEGIES[args.strategy]
    rounds, witness = engine.worst_case_rounds(strategy, config)
    if args.format == "json-lines":
        return {"n": config.n, "d": config.d, "strategy": strategy.name, "rounds": rounds,
                "witness": list(witness)}
    return f"rounds={rounds} witness={channel.format_station_set(witness)}\n"


def _cmd_tree(args: argparse.Namespace) -> str | dict:
    config = channel.GameConfig(args.n, args.d)
    strategy = strategies.STRATEGIES[args.strategy]
    if args.check:
        found = qtree.normal_form_report(strategy, config, normal=args.normalize)
        return {name: getattr(found, name) for name in found.__slots__}
    return qtree.export_graph(qtree.build_tree(strategy, config, normal=args.normalize))


def _cmd_bounds(args: argparse.Namespace) -> str | dict:
    config = channel.GameConfig(args.n, args.d)
    values = {"n": config.n, "d": config.d, **bounds.counting_columns(config.n, config.d)}
    if args.format == "json-lines":
        return values
    header = ",".join(values)
    row = ",".join(str(v) for v in values.values())
    return f"{header}\n{row}\n"


def _cmd_oracle(args: argparse.Namespace) -> str:
    config = channel.GameConfig(args.n, args.d)
    cap = (args.oracle_n_cap, args.oracle_d_cap)
    out = f"{oracle.exact_optimal_rounds(config, cap=cap)}\n"
    if args.witness:
        out += qtree.export_graph(oracle.optimal_strategy_tree(config, cap=cap))
    return out


def _cmd_report(args: argparse.Namespace) -> str:
    cap = (args.oracle_n_cap, args.oracle_d_cap)
    return report.report_to_csv(report.generate_report(args.n_max, args.d_max, cap))


def _add_common(p: argparse.ArgumentParser, *, n_d: bool = True) -> None:
    if n_d:
        p.add_argument("--n", type=_integer, required=True, help="number of stations")
        p.add_argument("--d", type=_integer, required=True, help="number of live stations")
    p.add_argument("--out", type=Path, default=None, help="write output to this file")


def _add_strategy(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=sorted(strategies.STRATEGIES), required=True)


def _add_oracle_cap(p: argparse.ArgumentParser) -> None:
    n_cap, d_cap = channel.DEFAULT_ORACLE_CAP
    p.add_argument("--oracle-n-cap", type=_positive_int, default=n_cap,
                   help=f"largest n the exact oracle solves (default {n_cap})")
    p.add_argument("--oracle-d-cap", type=_positive_int, default=d_cap,
                   help=f"largest d the exact oracle solves (default {d_cap})")


def _setup_simulate(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_strategy(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--live", type=_live_set, help="fixed live set, e.g. 1,3")
    source.add_argument("--adversary", choices=["greedy", "exact"])


def _setup_worst_case(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_strategy(p)
    p.add_argument("--format", choices=["text", "json-lines"], default="text")


def _setup_tree(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    _add_strategy(p)
    p.add_argument("--normalize", action="store_true", help="build the normalized tree")
    p.add_argument("--check", action="store_true", help="print the normal-form report instead")


def _setup_bounds(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--format", choices=["csv", "json-lines"], default="csv")


def _setup_oracle(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("--witness", action="store_true", help="also print an optimal tree")
    _add_oracle_cap(p)


def _setup_report(p: argparse.ArgumentParser) -> None:
    _add_common(p, n_d=False)
    p.add_argument("--n-max", type=_integer, default=6,
                   help="largest n in the grid, which starts at n=2 (default 6)")
    p.add_argument("--d-max", type=_integer, default=3,
                   help="largest d in the grid, which starts at d=1 (default 3)")
    _add_oracle_cap(p)


# Each subcommand: its name, its line in the top-level help, the function
# that adds its arguments, and its handler.
_COMMANDS = (
    ("simulate", "run one game and print its JSON document", _setup_simulate, _cmd_simulate),
    ("worst-case", "max rounds over all live sets, with witness", _setup_worst_case,
     _cmd_worst_case),
    ("tree", "build a strategy's decision tree and export it", _setup_tree, _cmd_tree),
    ("bounds", "counting bounds for one instance", _setup_bounds, _cmd_bounds),
    ("oracle", "exact optimal worst-case rounds", _setup_oracle, _cmd_oracle),
    ("report", "CSV grid comparing strategies, optima, bounds", _setup_report, _cmd_report),
)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every subcommand, set up only where ``argv`` names it."""
    parser = argparse.ArgumentParser(
        prog="macq",
        description="Conflict-resolution games on a multiple access channel: "
        "simulate strategies, inspect decision trees, compare bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, setup, handler in _COMMANDS:
        command = sub.add_parser(name, help=help_)
        if name in argv:
            setup(command)
            command.set_defaults(handler=handler)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exit_:  # argparse prints its own message
        return int(exit_.code or 0)
    try:
        output = args.handler(args)
        if isinstance(output, dict):
            import json

            output = json.dumps(output) + "\n"
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
