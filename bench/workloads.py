"""The benchmark's workloads: fixed macq command lists, seeded extras, the ladder.

Instance sizes are fixed; the seed only picks the live sets of the seeded
``simulate --live`` commands and the order of commands within each pass.
The sizes were chosen on a 2-vCPU x86-64 machine with CPython 3.11 so that
each command takes between about 0.15 s and 4 s in a fresh process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Argv = tuple[str, ...]

# Optimal worst-case rounds computed by the unmodified exact solver: the
# values pinned in tests/test_oracle.py, plus four larger cells it settles
# with raised caps ((7,3) takes about 213 s).  Benchmark answers are checked
# against this table, never against the solver under test.
ORACLE_TABLE: dict[tuple[int, int], int] = {
    (1, 1): 1, (2, 1): 1, (2, 2): 2, (3, 1): 1, (3, 2): 3, (3, 3): 3,
    (4, 1): 1, (4, 2): 3, (4, 3): 4, (5, 1): 1, (5, 2): 4, (5, 3): 4,
    (6, 1): 1, (6, 2): 4, (6, 3): 5,
    (6, 4): 6, (7, 2): 4, (8, 2): 4, (7, 3): 5,
}

# Frontier ladder, easiest first.  The first four cells solve within the
# cell budget with the seed solver; (7,3) and everything after it is the
# headroom a faster exact search can claim.
LADDER: tuple[tuple[int, int], ...] = (
    (6, 3), (6, 4), (7, 2), (8, 2), (7, 3), (8, 3), (16, 2), (8, 4),
    (10, 3), (10, 4), (32, 2), (12, 3), (14, 3),
)
CELL_BUDGET_S = 5.0     # a cell slower than this ends the ladder
LADDER_BUDGET_S = 10.0  # time for ladder cells not already run by a pass


def oracle_cmd(n: int, d: int, *, witness: bool = False) -> Argv:
    """``macq oracle`` on one cell with the caps raised to the cell itself."""
    argv = ("oracle", "--n", str(n), "--d", str(d),
            "--oracle-n-cap", str(n), "--oracle-d-cap", str(d))
    return argv + ("--witness",) if witness else argv


def ladder_cmd(n: int, d: int) -> Argv:
    """A ladder cell asks for a witness unless the table already knows its value."""
    return oracle_cmd(n, d, witness=(n, d) not in ORACLE_TABLE)


def live_cmd(strategy: str, n: int, d: int, rng: random.Random) -> Argv:
    live = ",".join(map(str, sorted(rng.sample(range(1, n + 1), d))))
    return ("simulate", "--strategy", strategy, "--n", str(n), "--d", str(d), "--live", live)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixed: tuple[Argv, ...]         # stdout digests recorded for these
    live: tuple[tuple[str, int, int], ...]  # seeded simulate --live: (strategy, n, d)
    pass_s: float                   # time allowed per pass; sets how many passes fit
    ladder: bool = False

    def commands(self, rng: random.Random) -> list[Argv]:
        return list(self.fixed) + [live_cmd(s, n, d, rng) for s, n, d in self.live]


def _argv(text: str) -> Argv:
    return tuple(text.split())


ORACLE_LADDER = Workload(
    name="oracle-ladder",
    why="exact solver, which a faster search would change; the frontier ladder runs "
        "past today's (7,3) limit so frontier_cells can rise",
    fixed=(
        oracle_cmd(6, 3), oracle_cmd(6, 4), oracle_cmd(7, 2), oracle_cmd(8, 2),
        _argv("oracle --n 6 --d 3 --witness"),
        _argv("report --n-max 6 --d-max 3"),
    ),
    live=(),
    pass_s=11.5,
    ladder=True,
)

STRATEGY_SWEEP = Workload(
    name="strategy-sweep",
    why="strategy replay, channel, engine, adversary and tree walks with no oracle work; "
        "a one-kernel, one-tree-walk design should gain here and not on oracle-ladder",
    fixed=tuple(_argv(text) for text in (
        "worst-case --strategy tree --n 18 --d 5",
        "worst-case --strategy linear --n 18 --d 5",
        "tree --strategy tree --n 16 --d 5 --normalize --check",
        "tree --strategy linear --n 14 --d 5 --normalize --check",
        "simulate --strategy tree --n 16 --d 5 --adversary exact",
        "simulate --strategy linear --n 16 --d 5 --adversary exact",
        "simulate --strategy tree --n 16 --d 5 --adversary greedy",
        "simulate --strategy linear --n 16 --d 5 --adversary greedy",
    )),
    live=(("tree", 16, 5), ("linear", 16, 5), ("tree", 18, 5), ("linear", 18, 5)),
    pass_s=12.0,
)

SHORT_COMMANDS = Workload(
    name="short-commands",
    why="small README-style commands where start-up and import dominate, so added "
        "import cost or tables built at import show as a regression",
    fixed=tuple(_argv(text) for text in (
        "bounds --n 8 --d 2",
        "bounds --n 16 --d 3 --format json-lines",
        "bounds --n 32 --d 4",
        "bounds --n 64 --d 5 --format json-lines",
        "tree --strategy tree --n 4 --d 2",
        "tree --strategy tree --n 6 --d 3",
        "tree --strategy linear --n 5 --d 2",
        "tree --strategy tree --n 3 --d 2 --normalize",
        "tree --strategy tree --n 8 --d 3 --normalize --check",
        "tree --strategy linear --n 8 --d 4 --normalize --check",
        "oracle --n 3 --d 2 --witness",
        "oracle --n 4 --d 2",
        "oracle --n 4 --d 3",
        "oracle --n 5 --d 2",
        "oracle --n 5 --d 3 --witness",
        "report --n-max 4",
        "report --n-max 4 --d-max 2",
    )),
    live=(("tree", 8, 3), ("linear", 8, 3), ("tree", 6, 2), ("linear", 5, 2)),
    pass_s=4.5,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ORACLE_LADDER, STRATEGY_SWEEP, SHORT_COMMANDS)
}
