"""Command line front end.

Subcommands: simulate, worst-case, tree, bounds, oracle, report.  Exit codes:
0 on success, 2 on usage errors (argparse), 1 on runtime errors, which are
printed to stderr as ``error: <ErrorName>: <details>``, and 130 on Ctrl-C,
printed as ``error: Interrupted: <details>``.

Each handler returns its output as text or as a JSON document (a dict), and
``dispatch`` writes it, encoding a document as one line of JSON.  Start-up
is paid per command, so a command builds and runs only what it needs: each
subcommand's options are data, from which ``_read`` parses a well-formed
command line, and argparse, imported only for help and usage errors, sets
up the options only of the subcommands a token names.  The modules are
bound as the lazy placeholders ``import macq`` registers, each run when a
handler first reads a name from it, so ``macq --help`` runs no model code.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import adversary, bounds, channel, engine, oracle, qtree, report, strategies
from .errors import DomainError, MacqError


def _malformed(message: str) -> Exception:
    import argparse  # only a malformed value or a bad command line needs it

    return argparse.ArgumentTypeError(message)


def _live_set(text: str) -> tuple[int, ...]:
    """The ids as given, strictly ascending and >= 1; n is not known yet."""
    parts = text.split(",")
    if not all(channel.is_decimal(part) for part in parts):
        raise _malformed(f"live set must be comma-separated ids, got {channel._shown(text)}")
    ids = [int(part) for part in parts]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        raise _malformed(f"live ids must be strictly ascending, got {channel._shown(text)}")
    if ids[0] < 1:
        raise _malformed("station ids are 1-based")
    return tuple(ids)


def _positive_int(text: str) -> int:
    if not channel.is_decimal(text) or int(text) < 1:
        raise _malformed(f"expected a positive integer, got {channel._shown(text)}")
    return int(text)


def _integer(text: str) -> int:
    """ASCII digits with an optional leading ``-``; the range is checked later."""
    if not channel.is_decimal(text.removeprefix("-")):
        raise _malformed(f"expected an integer, got {channel._shown(text)}")
    return int(text)


def _cmd_simulate(args: SimpleNamespace) -> dict:
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


def _cmd_worst_case(args: SimpleNamespace) -> str | dict:
    config = channel.GameConfig(args.n, args.d)
    strategy = strategies.STRATEGIES[args.strategy]
    rounds, witness = engine.worst_case_rounds(strategy, config)
    if args.format == "json-lines":
        return {"n": config.n, "d": config.d, "strategy": strategy.name, "rounds": rounds,
                "witness": list(witness)}
    return f"rounds={rounds} witness={channel.format_station_set(witness)}\n"


def _cmd_tree(args: SimpleNamespace) -> str | dict:
    config = channel.GameConfig(args.n, args.d)
    strategy = strategies.STRATEGIES[args.strategy]
    if args.check:
        found = qtree.normal_form_report(strategy, config, normal=args.normalize)
        return {name: getattr(found, name) for name in found.__slots__}
    return qtree.export_graph(qtree.build_tree(strategy, config, normal=args.normalize))


def _cmd_bounds(args: SimpleNamespace) -> str | dict:
    config = channel.GameConfig(args.n, args.d)
    values = {"n": config.n, "d": config.d, **bounds.counting_columns(config.n, config.d)}
    if args.format == "json-lines":
        return values
    header = ",".join(values)
    row = ",".join(str(v) for v in values.values())
    return f"{header}\n{row}\n"


def _cmd_oracle(args: SimpleNamespace) -> str:
    config = channel.GameConfig(args.n, args.d)
    cap = (args.oracle_n_cap, args.oracle_d_cap)
    out = f"{oracle.exact_optimal_rounds(config, cap=cap)}\n"
    if args.witness:
        out += qtree.export_graph(oracle.optimal_strategy_tree(config, cap=cap))
    return out


def _cmd_report(args: SimpleNamespace) -> str:
    cap = (args.oracle_n_cap, args.oracle_d_cap)
    return report.report_to_csv(report.generate_report(args.n_max, args.d_max, cap))


# Options are (flag, keywords) pairs in help order, the keywords being what
# argparse's add_argument takes; _read understands type, choices, default,
# required and action="store_true".  Each command's function returns its
# options and the flags of its required mutually exclusive group, if any.
_N_D = (("--n", {"type": _integer, "required": True, "help": "number of stations"}),
        ("--d", {"type": _integer, "required": True, "help": "number of live stations"}))
_OUT = (("--out", {"default": None, "help": "write output to this file"}),)


def _with_strategy() -> tuple:
    """n, d and --out, then --strategy, whose choices run ``strategies``."""
    return _N_D + _OUT + (("--strategy", {"choices": sorted(strategies.STRATEGIES), "required": True}),)


def _oracle_cap() -> tuple:
    return tuple((f"--oracle-{x}-cap", {"type": _positive_int, "default": cap,
                                        "help": f"largest {x} the exact oracle solves (default {cap})"})
                 for x, cap in zip("nd", channel.DEFAULT_ORACLE_CAP))


def _simulate_options() -> tuple[tuple, tuple]:
    game = (("--live", {"type": _live_set, "help": "fixed live set, e.g. 1,3"}),
            ("--adversary", {"choices": ["greedy", "exact"]}))
    return _with_strategy() + game, ("--live", "--adversary")


def _worst_case_options() -> tuple[tuple, tuple]:
    return _with_strategy() + (("--format", {"choices": ["text", "json-lines"], "default": "text"}),), ()


def _tree_options() -> tuple[tuple, tuple]:
    return _with_strategy() + (
        ("--normalize", {"action": "store_true", "default": False, "help": "build the normalized tree"}),
        ("--check", {"action": "store_true", "default": False,
                     "help": "print the normal-form report instead"})), ()


def _bounds_options() -> tuple[tuple, tuple]:
    return _N_D + _OUT + (("--format", {"choices": ["csv", "json-lines"], "default": "csv"}),), ()


def _oracle_options() -> tuple[tuple, tuple]:
    witness = ("--witness", {"action": "store_true", "default": False, "help": "also print an optimal tree"})
    return _N_D + _OUT + (witness,) + _oracle_cap(), ()


def _report_options() -> tuple[tuple, tuple]:
    return _OUT + (
        ("--n-max", {"type": _integer, "default": 6,
                     "help": "largest n in the grid, which starts at n=2 (default 6)"}),
        ("--d-max", {"type": _integer, "default": 3,
                     "help": "largest d in the grid, which starts at d=1 (default 3)"}),
    ) + _oracle_cap(), ()


# Each subcommand: its name, its line in the top-level help, the function
# that lists its options, and its handler.
_COMMANDS = (
    ("simulate", "run one game and print its JSON document", _simulate_options, _cmd_simulate),
    ("worst-case", "max rounds over all live sets, with witness", _worst_case_options,
     _cmd_worst_case),
    ("tree", "build a strategy's decision tree and export it", _tree_options, _cmd_tree),
    ("bounds", "counting bounds for one instance", _bounds_options, _cmd_bounds),
    ("oracle", "exact optimal worst-case rounds", _oracle_options, _cmd_oracle),
    ("report", "CSV grid comparing strategies, optima, bounds", _report_options, _cmd_report),
)


def _read(argv: list[str]) -> SimpleNamespace | None:
    """``argv`` parsed as argparse would, if it is ``<command> (--flag | --option
    value)*`` with each flag in full and once, each value well formed and not
    starting with ``-`` and the required options given; else None, for argparse."""
    row = next((row for row in _COMMANDS if [row[0]] == argv[:1]), None)
    if row is None:
        return None
    name, _, listing, handler = row
    options, group = listing()
    keywords_of, given, tokens = dict(options), {}, iter(argv[1:])
    for flag in tokens:
        keywords = keywords_of.get(flag)
        if keywords is None or flag in given:
            return None
        if "action" in keywords:  # store_true
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value is argparse's to report
        if text.startswith("-"):
            return None
        try:
            given[flag] = keywords.get("type", str)(text)
        except Exception:  # a malformed value: argparse calls the type again and reports it
            return None
        if "choices" in keywords and given[flag] not in keywords["choices"]:
            return None
    if sum(flag in given for flag in group) != bool(group) or any(
            keywords.get("required") and flag not in given for flag, keywords in options):
        return None
    return SimpleNamespace(command=name, handler=handler, **{
        flag[2:].replace("-", "_"): given.get(flag, keywords.get("default")) for flag, keywords in options})


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``: every subcommand, set up only where ``argv`` names it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="macq",
        description="Conflict-resolution games on a multiple access channel: "
        "simulate strategies, inspect decision trees, compare bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, listing, handler in _COMMANDS:
        command = sub.add_parser(name, help=help_)
        if name in argv:
            options, group = listing()
            exclusive = command.add_mutually_exclusive_group(required=True) if group else command
            for flag, keywords in options:
                (exclusive if flag in group else command).add_argument(flag, **keywords)
            command.set_defaults(handler=handler)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:  # a namespace is always true
        args = _read(argv) or build_parser(argv).parse_args(argv, SimpleNamespace())
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
            with open(args.out, "w", encoding="utf-8") as file:
                file.write(output)
    except (MacqError, OSError, RecursionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(f"error: Interrupted: {args.command} stopped by Ctrl-C", file=sys.stderr)
        return 130
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
