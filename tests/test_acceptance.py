"""Acceptance gate: seven go/no-go checks, one printed verdict line each.

Every check recomputes its expected values from scratch inside this file
(set arithmetic, object enumeration, binary search, an exhaustive minimax)
and compares them with the package's answers, then prints
``ACCEPTANCE <k> <name>: PASS|FAIL`` on the real terminal even while pytest
captures output.  A check fails rather than being skipped when the
package's numbers disagree with the recomputed ones.

The outcome count ``info_lower_bound`` (smallest t with (d+2)^t >= C(n,d))
is never asserted to be a lower bound on the optimum: a query of size q has
up to q + 2 outcomes, not d + 2, so at (4..6, 1) the count is 2 while one
full probe resolves the game in 1 round.  Checks 3 and 7 instead compare the
optimum with the minimax below and require the report's LB_VIOLATION flag
to mark exactly the rows where the count exceeds that optimum.
"""

import math
import time
from functools import lru_cache
from itertools import combinations, permutations, product

from macq import (
    COLLISION,
    SILENCE,
    GameConfig,
    GrowthFactor,
    LINEAR_SCAN,
    TREE_SPLIT,
    StationSet,
    build_tree,
    check_normal_form,
    claimed_bound_analytic,
    claimed_bound_combinatorial,
    evaluate_query,
    exact_optimal_rounds,
    generate_report,
    path_count_bound,
    report_to_csv,
    run_fixed,
    single,
    worst_case_rounds,
)

S = StationSet.from_ids


@lru_cache(maxsize=None)
def _minimax_rounds(n, d):
    """Fewest rounds that reveal all d live stations among 1..n, worst case.

    Exhaustive minimax over positions (consistent live sets, revealed ids).
    Each round tries every nonempty query: a live set answers silence when
    no queried station is live, the id of the one queried live station
    (revealed), or collision.  A query whose answer leaves the position as it
    was is skipped.  The search stops early only at d - |revealed|, since one
    round reveals at most one station.
    """
    stations = range(1, n + 1)
    queries = [frozenset(q) for r in range(1, n + 1) for q in combinations(stations, r)]
    memo = {}

    def value(candidates, revealed):
        if len(revealed) == d:
            return 0
        if (candidates, revealed) in memo:
            return memo[candidates, revealed]
        best = math.inf
        for query in queries:
            groups = {}
            for live in candidates:
                heard = query & live
                # key: the revealed id as a set; False for silence, True for collision
                groups.setdefault(heard if len(heard) == 1 else len(heard) > 1, set()).add(live)
            worst = 0
            for outcome, group in groups.items():
                child = (
                    frozenset(group),
                    revealed | outcome if isinstance(outcome, frozenset) else revealed,
                )
                if child == (candidates, revealed):
                    worst = math.inf
                    break
                worst = max(worst, 1 + value(*child))
                if worst >= best:
                    break
            best = min(best, worst)
            if best == d - len(revealed):
                break
        memo[candidates, revealed] = best
        return best

    return value(frozenset(frozenset(c) for c in combinations(stations, d)), frozenset())


def _count_rounds(n, d):
    """Smallest t with (d+2)^t >= C(n,d): the report's outcome count."""
    t = 0
    while (d + 2) ** t < math.comb(n, d):
        t += 1
    return t


def _verdict(capsys, number, name, budget, started, failures):
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        failures.append(f"took {elapsed:.2f}s, budget {budget}s")
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"\nACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s)", flush=True)
    assert not failures, f"criterion {number} ({name}): " + " | ".join(failures)


def test_criterion_1_channel_semantics(capsys):
    started = time.perf_counter()
    failures = []
    for n in range(1, 6):
        subsets = [frozenset(c) for r in range(n + 1) for c in combinations(range(1, n + 1), r)]
        for query in subsets:
            for live in subsets:
                overlap = sorted(query & live)
                if len(overlap) == 0:
                    expected = SILENCE
                elif len(overlap) == 1:
                    expected = single(overlap[0])
                else:
                    expected = COLLISION
                got = evaluate_query(S(query), S(live))
                if got != expected:
                    failures.append(f"n={n} query={sorted(query)} live={sorted(live)}: {got}")
    _verdict(capsys, 1, "channel-semantics", 1.0, started, failures)


def test_criterion_2_strategy_correctness(capsys):
    started = time.perf_counter()
    failures = []
    for n in range(1, 9):
        for d in range(1, n + 1):
            cfg = GameConfig(n, d)
            # ceil(lg2(max(n/d, 2))) by integer doubling, floored at 1.
            t = 0
            while d * 2**t < n:
                t += 1
            split_limit = d * (max(t, 1) + 2)
            for ids in combinations(range(1, n + 1), d):
                live = S(ids)
                for strategy, limit, low in (
                    (TREE_SPLIT, split_limit, d),
                    (LINEAR_SCAN, n, 1),
                ):
                    result = run_fixed(strategy, cfg, live)
                    if not result.completed:
                        failures.append(f"{strategy.name} n={n} d={d} live={ids}: incomplete")
                    elif not low <= result.rounds_used <= limit:
                        failures.append(
                            f"{strategy.name} n={n} d={d} live={ids}: "
                            f"{result.rounds_used} rounds outside [{low}, {limit}]"
                        )
    _verdict(capsys, 2, "strategy-correctness", 30.0, started, failures)


def test_criterion_3_oracle_ground_truth(capsys):
    # The optimum must equal the exhaustive minimax of this file, and lie
    # between d (one reveal per round) and tree_split's worst case.  The
    # (d+2)-ary outcome count is no lower bound (it says 2 at (4..6, 1),
    # where the optimum is 1), so it plays no part here; check 7 checks only
    # that the report's LB_VIOLATION flags tell the truth about it.
    started = time.perf_counter()
    failures = []
    for n in range(2, 7):
        got = exact_optimal_rounds(GameConfig(n, 1))
        if got != 1:
            failures.append(f"optimum(n={n}, d=1) = {got}, expected 1")
    for (n, d), expected in [((2, 2), 2), ((3, 2), 3)]:
        got = exact_optimal_rounds(GameConfig(n, d))
        if got != expected:
            failures.append(f"optimum(n={n}, d={d}) = {got}, expected {expected}")
    for n in range(1, 7):
        for d in range(1, min(n, 3) + 1):
            cfg = GameConfig(n, d)
            opt = exact_optimal_rounds(cfg)
            minimax = _minimax_rounds(n, d)
            split_worst, _ = worst_case_rounds(TREE_SPLIT, cfg)
            if not d <= opt:
                failures.append(f"(n={n},d={d}): optimum {opt} below d")
            if opt != minimax:
                failures.append(f"(n={n},d={d}): optimum {opt} != exhaustive minimax {minimax}")
            if not opt <= split_worst:
                failures.append(f"(n={n},d={d}): optimum {opt} above tree_split {split_worst}")
    _verdict(capsys, 3, "oracle-ground-truth", 300.0, started, failures)


def test_criterion_4_normal_form(capsys):
    started = time.perf_counter()
    failures = []
    for strategy in (LINEAR_SCAN, TREE_SPLIT):
        for n in range(1, 7):
            for d in range(1, min(n, 3) + 1):
                cfg = GameConfig(n, d)
                report = check_normal_form(build_tree(strategy, cfg, normal=True))
                tag = f"{strategy.name} (n={n},d={d})"
                if not report.property_holds:
                    failures.append(f"{tag}: normalized tree fails the form check")
                if report.leaf_count != math.comb(n, d):
                    failures.append(
                        f"{tag}: {report.leaf_count} leaves, expected {math.comb(n, d)}"
                    )
                if report.max_depth > check_normal_form(build_tree(strategy, cfg)).max_depth:
                    failures.append(f"{tag}: normalization deepened the tree")
    _verdict(capsys, 4, "normal-form", 120.0, started, failures)


def test_criterion_5_path_count_formula(capsys):
    started = time.perf_counter()
    failures = []
    for d in range(1, 4):
        for x in range(d, 9):
            direct = 0
            for h in range(d, x + 1):
                for _blacks in combinations(range(h), d):
                    for _reds in product((0, 1), repeat=h - d):
                        for _order in permutations(range(d)):
                            direct += 1
            got = path_count_bound(x, d)
            if got != direct:
                failures.append(f"path_count_bound({x},{d}) = {got}, enumeration {direct}")
    if path_count_bound(3, 2) != 14:
        failures.append(f"path_count_bound(3,2) = {path_count_bound(3, 2)}, expected 14")
    _verdict(capsys, 5, "path-count-formula", 1.0, started, failures)


def test_criterion_6_claimed_bound_solvers(capsys):
    started = time.perf_counter()
    failures = []
    if claimed_bound_analytic(1024, 1) != 6:
        failures.append(f"analytic(1024,1) = {claimed_bound_analytic(1024, 1)}, expected 6")

    grid = [(n, d) for d in (1, 2, 3) for n in range(max(d, 2), max(d, 2) + 67)][:200]

    def bisect_threshold(n, d, factor):
        scale = math.factorial(d) if factor is GrowthFactor.FACTORIAL else d**d
        target = math.comb(n, d)

        def hits(x):
            return math.comb(x, d) * 2 ** (x + 1 - d) * scale >= target

        hi = d
        while not hits(hi):
            hi *= 2
        lo = d
        while lo < hi:
            mid = (lo + hi) // 2
            if hits(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    for n, d in grid:
        for factor in GrowthFactor:
            scanned = claimed_bound_combinatorial(n, d, factor)
            bisected = bisect_threshold(n, d, factor)
            if scanned != bisected:
                failures.append(f"({n},{d},{factor.name}): scan {scanned} != bisect {bisected}")
        power = claimed_bound_combinatorial(n, d, GrowthFactor.POWER)
        factorial = claimed_bound_combinatorial(n, d, GrowthFactor.FACTORIAL)
        if power > factorial:
            failures.append(f"({n},{d}): power {power} > factorial {factorial}")
    _verdict(capsys, 6, "claimed-bound-solvers", 5.0, started, failures)


def test_criterion_7_discrepancy_report(capsys):
    # LB_VIOLATION must be true, not absent: each row's info_lb and
    # oracle_opt must equal the count and the minimax recomputed here, and
    # the flag must sit exactly where that count exceeds that optimum.  The
    # flagged rows are derived, not pinned: the count is no lower bound (it
    # exceeds the optimum at (4..6, 1)), and nothing settles whether it
    # holds for d >= 2 beyond what the minimax shows on this grid.
    started = time.perf_counter()
    failures = []
    rows = generate_report(6, 3)
    first = report_to_csv(rows)
    second = report_to_csv(generate_report(6, 3))
    expected_keys = [(n, d) for n in range(2, 7) for d in range(1, min(n, 3) + 1)]
    if [(r.n, r.d) for r in rows] != expected_keys:
        failures.append("grid is incomplete or out of order")
    if any(r.oracle_opt is None for r in rows):
        failures.append("some oracle_opt values are absent inside the cap")
    if len(first.splitlines()) != len(expected_keys) + 1:
        failures.append("CSV row count does not match the grid")
    for r in rows:
        count = _count_rounds(r.n, r.d)
        minimax = _minimax_rounds(r.n, r.d)
        if r.info_lb != count:
            failures.append(f"(n={r.n},d={r.d}): info_lb {r.info_lb} != count {count}")
        if r.oracle_opt != minimax:
            failures.append(f"(n={r.n},d={r.d}): oracle_opt {r.oracle_opt} != minimax {minimax}")
        if ("LB_VIOLATION" in r.flags) != (count > minimax):
            failures.append(
                f"(n={r.n},d={r.d}): LB_VIOLATION {'LB_VIOLATION' in r.flags} "
                f"but count {count} vs minimax {minimax}"
            )
    claim_rows = [(r.n, r.d) for r in rows if r.d == 1 and "CLAIM_EXCEEDS_OPT" in r.flags]
    if not claim_rows:
        failures.append("no CLAIM_EXCEEDS_OPT flag among the d=1 rows")
    if first != second:
        failures.append("CSV is not byte-identical across two runs")
    _verdict(capsys, 7, "discrepancy-report", 300.0, started, failures)
