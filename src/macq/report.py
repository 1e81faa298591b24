"""Side-by-side report: measured strategy costs, exact optima, claimed bounds.

One row per instance (n, d); flags mark rows where a claimed bound exceeds
the exact optimum (CLAIM_EXCEEDS_OPT) or where the outcome-counting lower
bound does (LB_VIOLATION, which genuinely occurs for d = 1, n >= 4).
"""

from __future__ import annotations

from .bounds import counting_columns
from .channel import DEFAULT_ORACLE_CAP, Frozen, GameConfig, _at_least, check_enumeration_budget
from .engine import worst_case_rounds
from .errors import BudgetExceeded
from .oracle import exact_optimal_rounds
from .strategies import LINEAR_SCAN, TREE_SPLIT

FLAG_CLAIM_EXCEEDS_OPT = "CLAIM_EXCEEDS_OPT"
FLAG_LB_VIOLATION = "LB_VIOLATION"


class ReportRow(Frozen):
    __slots__ = ("n", "d", "oracle_opt", "tree_worst", "linear_worst", "info_lb",
                 "claimed_factorial", "claimed_power", "claimed_analytic", "flags")
    n: int
    d: int
    oracle_opt: int | None
    tree_worst: int
    linear_worst: int
    info_lb: int
    claimed_factorial: int
    claimed_power: int
    claimed_analytic: int
    flags: tuple[str, ...]


CSV_HEADER = ",".join(ReportRow.__slots__)


def _build_row(config: GameConfig, oracle_cap: tuple[int, int]) -> ReportRow:
    try:
        oracle_opt: int | None = exact_optimal_rounds(config, cap=oracle_cap)
    except BudgetExceeded:  # beyond the oracle cap: generate_report checked the enumeration budget
        oracle_opt = None
    tree_worst = worst_case_rounds(TREE_SPLIT, config)[0]
    linear_worst = worst_case_rounds(LINEAR_SCAN, config)[0]
    columns = counting_columns(config.n, config.d)
    flags: list[str] = []
    if oracle_opt is not None:
        claims = (columns["claimed_factorial"], columns["claimed_power"],
                  columns["claimed_analytic"])
        if any(claim > oracle_opt for claim in claims):
            flags.append(FLAG_CLAIM_EXCEEDS_OPT)
        if columns["info_lb"] > oracle_opt:
            flags.append(FLAG_LB_VIOLATION)
    return ReportRow(n=config.n, d=config.d, oracle_opt=oracle_opt, tree_worst=tree_worst,
                     linear_worst=linear_worst, **columns, flags=tuple(flags))


def generate_report(
    n_max: int,
    d_max: int,
    oracle_cap: tuple[int, int] = DEFAULT_ORACLE_CAP,
) -> list[ReportRow]:
    """Rows for every 2 <= n <= n_max, 1 <= d <= min(n, d_max).

    The grid starts at n = 2 because the analytic threshold is undefined at
    n = 1.  A cell beyond the oracle cap gets an absent ``oracle_opt``.  Every
    cell is checked first (n within the station cap, C(n,d) within the
    enumeration budget), so a grid with a cell out of range fails at once,
    with that first cell's error.
    """
    n_max, d_max = _at_least("n_max", n_max, 2), _at_least("d_max", d_max, 1)
    configs = []
    for n in range(2, n_max + 1):
        for d in range(1, min(n, d_max) + 1):
            config = GameConfig(n, d)
            check_enumeration_budget(config)
            configs.append(config)
    return [_build_row(config, oracle_cap) for config in configs]


def report_to_csv(rows: list[ReportRow]) -> str:
    """Deterministic CSV: absent values render empty, flags join with ';'."""
    lines = [CSV_HEADER]
    for row in rows:
        cells = (getattr(row, name) for name in ReportRow.__slots__)
        lines.append(",".join("" if cell is None else ";".join(cell) if isinstance(cell, tuple)
                              else str(cell) for cell in cells))
    return "\n".join(lines) + "\n"
