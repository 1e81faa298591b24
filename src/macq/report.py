"""Side-by-side report: measured strategy costs, exact optima, claimed bounds.

One row per instance (n, d); flags mark rows where a claimed bound exceeds
the exact optimum (CLAIM_EXCEEDS_OPT) or where the outcome-counting lower
bound does (LB_VIOLATION, which genuinely occurs for d = 1, n >= 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from .adversary import check_enumeration_budget
from .bounds import counting_columns
from .channel import GameConfig
from .engine import worst_case_rounds
from .errors import BudgetExceeded, DomainError
from .oracle import DEFAULT_ORACLE_CAP, exact_optimal_rounds
from .strategies import LINEAR_SCAN, TREE_SPLIT

CSV_HEADER = (
    "n,d,oracle_opt,tree_worst,linear_worst,info_lb,"
    "claimed_factorial,claimed_power,claimed_analytic,flags"
)

FLAG_CLAIM_EXCEEDS_OPT = "CLAIM_EXCEEDS_OPT"
FLAG_LB_VIOLATION = "LB_VIOLATION"


@dataclass(frozen=True)
class ReportRow:
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
    notes: tuple[str, ...] = ()


def _build_row(config: GameConfig, oracle_cap: tuple[int, int]) -> ReportRow:
    notes: list[str] = []
    try:
        oracle_opt: int | None = exact_optimal_rounds(config, cap=oracle_cap)
    except BudgetExceeded as exc:
        oracle_opt = None
        notes.append(f"oracle_opt absent: BudgetExceeded: {exc}")
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
                     linear_worst=linear_worst, **columns, flags=tuple(flags), notes=tuple(notes))


def generate_report(
    n_max: int,
    d_max: int,
    oracle_cap: tuple[int, int] = DEFAULT_ORACLE_CAP,
) -> list[ReportRow]:
    """Rows for every 2 <= n <= n_max, 1 <= d <= min(n, d_max).

    The grid starts at n = 2 because the analytic threshold is undefined at
    n = 1.  Per-cell oracle failures beyond the cap become absent values with
    a note.  Every cell is checked first (n within the station cap, C(n,d)
    within the enumeration budget), so a grid with a cell out of range fails
    at once, with that first cell's error.
    """
    if n_max < 2:
        raise DomainError(f"n_max must be at least 2, got {n_max}")
    if d_max < 1:
        raise DomainError(f"d_max must be at least 1, got {d_max}")
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
        opt = "" if row.oracle_opt is None else str(row.oracle_opt)
        lines.append(
            f"{row.n},{row.d},{opt},{row.tree_worst},{row.linear_worst},{row.info_lb},"
            f"{row.claimed_factorial},{row.claimed_power},{row.claimed_analytic},"
            f"{';'.join(row.flags)}"
        )
    return "\n".join(lines) + "\n"
