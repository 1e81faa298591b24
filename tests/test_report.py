"""Discrepancy report assembly: cross-checked cells, flags, CSV bytes."""

import pytest

from macq import (
    CSV_HEADER,
    BudgetExceeded,
    DomainError,
    GameConfig,
    GrowthFactor,
    LINEAR_SCAN,
    TREE_SPLIT,
    claimed_bound_analytic,
    claimed_bound_combinatorial,
    exact_optimal_rounds,
    generate_report,
    info_lower_bound,
    report_to_csv,
    worst_case_rounds,
)
from macq import report
from reference_strategies import Index

# Full grid up to (6,3) with the default oracle cap.  Every oracle_opt,
# worst-case, and bound column is re-derived against its own module in
# test_report_cells_cross_check; the frozen text pins byte-level stability.
REPORT_6_3_CSV = """\
n,d,oracle_opt,tree_worst,linear_worst,info_lb,claimed_factorial,claimed_power,claimed_analytic,flags
2,1,1,1,2,1,1,1,1,
2,2,2,3,2,0,2,2,1,
3,1,1,1,3,1,2,2,1,CLAIM_EXCEEDS_OPT
3,2,3,5,3,1,2,2,1,
3,3,3,5,3,0,3,3,1,
4,1,1,1,4,2,2,2,1,CLAIM_EXCEEDS_OPT;LB_VIOLATION
4,2,3,5,4,2,3,2,1,
4,3,4,5,4,1,3,3,1,
5,1,1,1,5,2,2,2,1,CLAIM_EXCEEDS_OPT;LB_VIOLATION
5,2,4,7,5,2,3,3,1,
5,3,4,7,5,2,3,3,1,
6,1,1,1,6,2,2,2,2,CLAIM_EXCEEDS_OPT;LB_VIOLATION
6,2,4,7,6,2,3,3,1,
6,3,5,7,6,2,4,3,1,
"""


def test_report_6_3_golden_csv():
    assert report_to_csv(generate_report(6, 3)) == REPORT_6_3_CSV


def test_report_is_byte_identical_across_runs():
    first = report_to_csv(generate_report(6, 3))
    second = report_to_csv(generate_report(6, 3))
    assert first == second


def test_report_cells_cross_check():
    rows = generate_report(5, 2)
    assert [(r.n, r.d) for r in rows] == [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)]
    for row in rows:
        cfg = GameConfig(row.n, row.d)
        assert row.oracle_opt == exact_optimal_rounds(cfg)
        assert row.tree_worst == worst_case_rounds(TREE_SPLIT, cfg)[0]
        assert row.linear_worst == worst_case_rounds(LINEAR_SCAN, cfg)[0]
        assert row.info_lb == info_lower_bound(row.n, row.d)
        assert row.claimed_factorial == claimed_bound_combinatorial(row.n, row.d, GrowthFactor.FACTORIAL)
        assert row.claimed_power == claimed_bound_combinatorial(row.n, row.d, GrowthFactor.POWER)
        assert row.claimed_analytic == claimed_bound_analytic(row.n, row.d)


def test_flags_mark_exactly_the_discrepant_rows():
    rows = generate_report(6, 3)
    by_key = {(r.n, r.d): r for r in rows}
    lb_rows = {key for key, r in by_key.items() if "LB_VIOLATION" in r.flags}
    claim_rows = {key for key, r in by_key.items() if "CLAIM_EXCEEDS_OPT" in r.flags}
    assert lb_rows == {(4, 1), (5, 1), (6, 1)}
    assert claim_rows == {(3, 1), (4, 1), (5, 1), (6, 1)}
    # Flag semantics, re-derived per row from the raw columns.
    for key, row in by_key.items():
        assert ("LB_VIOLATION" in row.flags) == (row.info_lb > row.oracle_opt)
        claims = (row.claimed_factorial, row.claimed_power, row.claimed_analytic)
        assert ("CLAIM_EXCEEDS_OPT" in row.flags) == any(c > row.oracle_opt for c in claims)


def test_rows_beyond_oracle_cap_have_empty_opt_and_no_flags():
    rows = generate_report(7, 1, oracle_cap=(6, 3))
    capped = [r for r in rows if r.n == 7]
    assert len(capped) == 1
    row = capped[0]
    assert row.oracle_opt is None
    assert row.flags == ()
    csv = report_to_csv(rows)
    line = next(l for l in csv.splitlines() if l.startswith("7,1,"))
    assert line == "7,1,,1,7,2,2,2,2,"


def test_report_header_and_termination():
    csv = report_to_csv(generate_report(3, 2))
    lines = csv.split("\n")
    assert lines[0] == CSV_HEADER
    assert CSV_HEADER == "n,d,oracle_opt,tree_worst,linear_worst,info_lb,claimed_factorial,claimed_power,claimed_analytic,flags"
    assert csv.endswith("\n")
    assert lines[-1] == ""


def test_report_rejects_tiny_grids():
    with pytest.raises(DomainError):
        generate_report(1, 1)
    with pytest.raises(DomainError):
        generate_report(4, 0)


@pytest.mark.parametrize("bad", [3.0, "3", None])
def test_report_refuses_grid_limits_that_are_not_integers(bad):
    with pytest.raises(DomainError, match="n_max must be an integer"):
        generate_report(bad, 1)
    with pytest.raises(DomainError, match="d_max must be an integer"):
        generate_report(3, bad)


def test_report_converts_integer_types():
    assert generate_report(Index(3), True) == generate_report(3, 1)


def test_report_checks_the_whole_grid_before_computing_a_row(monkeypatch):
    # A grid that cannot finish fails before any row is computed, with the
    # error its first failing cell would raise.
    def computed(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    monkeypatch.setattr(report, "worst_case_rounds", computed)
    monkeypatch.setattr(report, "exact_optimal_rounds", computed)
    with pytest.raises(DomainError, match="got 65"):
        generate_report(70, 3)
    with pytest.raises(BudgetExceeded, match=r"C\(44,5\) = 1086008"):
        generate_report(50, 5)
