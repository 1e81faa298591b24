"""Counting bounds, checked against independently coded oracles."""

import math
import time
from itertools import combinations, permutations, product

import pytest
from mpmath import iv

from macq import (
    DomainError,
    GrowthFactor,
    claimed_bound_analytic,
    claimed_bound_combinatorial,
    exact_optimal_rounds,
    GameConfig,
    info_lower_bound,
    path_count_bound,
)
from macq.bounds import _analytic_threshold_holds
from reference_strategies import Index


def _pascal_table(rows: int) -> list[list[int]]:
    table = [[1]]
    for n in range(1, rows + 1):
        prev = table[-1]
        table.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return table


def _info_oracle(n: int, d: int) -> int:
    # Smallest t with (d+2)**t covering the candidate count, recomputed
    # with an explicit product loop and the Pascal table.
    target = _pascal_table(n)[n][d]
    t = 0
    while (d + 2) ** t < target:
        t += 1
    return t


def test_info_lower_bound_pinned_values():
    assert info_lower_bound(8, 2) == 3
    assert info_lower_bound(4, 1) == 2
    assert info_lower_bound(5, 5) == 0


def test_info_lower_bound_matches_loop_oracle():
    for n in range(1, 25):
        for d in range(1, n + 1):
            assert info_lower_bound(n, d) == _info_oracle(n, d)


def test_info_lower_bound_overshoots_single_live_station_optimum():
    # One full probe always resolves d=1, yet the (d+2)-ary counting
    # argument demands 2 rounds from n=4 on: a query of size q splits the
    # candidates into q+2 classes, not d+2, so this bound is not sound for
    # small d.  The report module flags exactly these rows.
    for n in (4, 5, 6):
        assert exact_optimal_rounds(GameConfig(n, 1)) == 1
        assert info_lower_bound(n, 1) == 2


def _enumerate_paths(x: int, d: int) -> int:
    # Count the colored feedback sequences one by one: length h in d..x,
    # d slots revealing distinct ordered stations, the rest silence or
    # collision.  Object-by-object counting, no closed form.
    total = 0
    for h in range(d, x + 1):
        for black_positions in combinations(range(h), d):
            reds = h - d
            for _red_choice in product(("silence", "collision"), repeat=reds):
                for _order in permutations(range(d)):
                    total += 1
    return total


def test_path_count_bound_matches_enumeration():
    for d in range(1, 4):
        for x in range(d, 9):
            assert path_count_bound(x, d) == _enumerate_paths(x, d)


def test_path_count_bound_pinned_values():
    assert path_count_bound(2, 2) == 2
    assert path_count_bound(3, 2) == 14
    assert path_count_bound(3, 3) == 6
    assert path_count_bound(4, 4) == 24


def test_path_count_bound_rejects_bad_arguments():
    with pytest.raises(DomainError):
        path_count_bound(1, 2)
    with pytest.raises(DomainError):
        path_count_bound(3, 0)


def _combinatorial_by_binary_search(n: int, d: int, factor: GrowthFactor) -> int:
    # Independent route: the scanned quantity C(x,d)*2**(x+1-d)*F is
    # strictly increasing in x, so the threshold can be bisected.
    scale = math.factorial(d) if factor is GrowthFactor.FACTORIAL else d**d
    target = math.comb(n, d)

    def hits(x: int) -> bool:
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


def test_claimed_combinatorial_pinned_values():
    assert claimed_bound_combinatorial(2, 2, GrowthFactor.FACTORIAL) == 2
    assert claimed_bound_combinatorial(8, 2, GrowthFactor.FACTORIAL) == 4
    assert claimed_bound_combinatorial(8, 2, GrowthFactor.POWER) == 3


def test_claimed_combinatorial_scan_equals_binary_search():
    for d in (1, 2, 3):
        for n in range(d, 120):
            for factor in GrowthFactor:
                assert claimed_bound_combinatorial(n, d, factor) == \
                    _combinatorial_by_binary_search(n, d, factor)


def test_power_variant_never_exceeds_factorial_variant():
    # d**d >= d!, so the power-scaled scan reaches any target no later.
    for d in (1, 2, 3):
        for n in range(max(d, 2), 80):
            assert claimed_bound_combinatorial(n, d, GrowthFactor.POWER) <= \
                claimed_bound_combinatorial(n, d, GrowthFactor.FACTORIAL)


def test_claimed_combinatorial_rejects_bad_factor():
    with pytest.raises(DomainError):
        claimed_bound_combinatorial(8, 2, "factorial")  # type: ignore[arg-type]


def test_claimed_analytic_pinned_values():
    assert claimed_bound_analytic(1024, 1) == 6
    assert claimed_bound_analytic(2, 1) == 1
    assert claimed_bound_analytic(2048, 1) == 7


def _analytic_float_oracle(n: int, d: int) -> tuple[int, float]:
    # Plain floating-point scan; returns the threshold and its margin so
    # callers can skip near-ties where binary64 could disagree with the
    # interval arithmetic.
    rhs = d * math.log2(n) - d * math.log2(d) - d * math.log2(math.e) - d + 1
    x = 1
    while x + d * math.log2(x) < rhs:
        x += 1
    margin = abs(x + d * math.log2(x) - rhs)
    if x > 1:
        margin = min(margin, abs((x - 1) + d * math.log2(x - 1) - rhs))
    return x, margin


def test_claimed_analytic_matches_float_scan_away_from_ties():
    for d in (1, 2, 3):
        for n in range(max(d, 2), 300, 7):
            expected, margin = _analytic_float_oracle(n, d)
            if margin > 1e-9:
                assert claimed_bound_analytic(n, d) == expected, (n, d)


def _analytic_interval_reference(n: int, d: int, x: int) -> bool:
    # Independent reference in certified interval arithmetic: raise the
    # precision until the interval of lhs - rhs lies on one side of zero.
    prec_bits = 120
    saved = iv.prec
    try:
        while True:
            iv.prec = prec_bits
            lg_two = iv.log(2)
            rhs = d * iv.log(n) / lg_two - d * iv.log(d) / lg_two - d / lg_two - d + 1
            difference = x + d * iv.log(x) / lg_two - rhs
            if difference.a > 0:
                return True
            if difference.b < 0:
                return False
            prec_bits *= 2
    finally:
        iv.prec = saved


def test_analytic_threshold_matches_interval_reference():
    # Every x within 3 of the threshold, over small n and powers of 10 and
    # of 2 up to 10**12.  x + d*lg(x) grows with x, so agreement on both
    # sides of the threshold pins claimed_bound_analytic as well.
    ns = sorted({*range(2, 60, 3), *(10**k for k in range(1, 13)), *(2**k for k in range(1, 41, 3))})
    for d in range(1, 9):
        for n in ns:
            if n < d:
                continue
            t = claimed_bound_analytic(n, d)
            for x in range(max(1, t - 3), t + 4):
                expected = _analytic_interval_reference(n, d, x)
                assert _analytic_threshold_holds(n, d, x) == expected, (n, d, x)
                assert expected == (x >= t), (n, d, x)


def test_claimed_analytic_rejects_n_below_two():
    with pytest.raises(DomainError):
        claimed_bound_analytic(1, 1)


@pytest.mark.parametrize("n, d", [(3, 4), (3, 0)])
def test_bounds_reject_d_outside_one_to_n(n, d):
    # A game takes its instance through the same rule as the counting bounds.
    with pytest.raises(DomainError) as raised:
        GameConfig(n, d)
    assert str(raised.value) == f"need 1 <= d <= n, got n={n} d={d}"
    with pytest.raises(DomainError, match="need 1 <= d <= n"):
        info_lower_bound(n, d)
    with pytest.raises(DomainError, match="need 1 <= d <= n"):
        claimed_bound_combinatorial(n, d, GrowthFactor.FACTORIAL)
    with pytest.raises(DomainError, match="need 1 <= d <= n"):
        claimed_bound_analytic(n, d)


def test_bounds_echo_integers_beyond_40_digits_short():
    # str() refuses an int of more digits than int() converts, so a refused
    # value is echoed as its first 40 digits and its number of digits.
    shown = f"1{'0' * 39}... (5001 digits)"
    with pytest.raises(DomainError) as raised:
        claimed_bound_analytic(-10**5000, 2)
    assert str(raised.value) == f"need 1 <= d <= n, got n=-{shown} d=2"
    with pytest.raises(DomainError) as raised:
        path_count_bound(1, 10**5000)
    assert str(raised.value) == f"need x >= d, got x=1 d={shown}"


def test_path_count_bound_refuses_x_beyond_the_longest_game(monkeypatch):
    # x is at most 4 * 64 + 16 = 272 rounds, the longest game the default
    # station cap admits, so a huge x is refused at once, not summed.
    monkeypatch.delenv("MACQ_MAX_N", raising=False)
    started = time.perf_counter()
    with pytest.raises(DomainError) as raised:
        path_count_bound(10**5000, 2)
    assert time.perf_counter() - started < 1
    assert str(raised.value) == ("x must be at most 272 (raise MACQ_MAX_N for more), "
                                 f"got 1{'0' * 39}... (5001 digits)")
    factor = math.factorial(5)
    assert path_count_bound(272, 5) == sum(math.comb(h, 5) * 2 ** (h - 5) * factor
                                           for h in range(5, 273))


@pytest.mark.parametrize("bad", [4.0, "4", None])
def test_bounds_refuse_what_is_not_an_integer(bad):
    for bound in (info_lower_bound, claimed_bound_analytic, path_count_bound,
                  lambda n, d: claimed_bound_combinatorial(n, d, GrowthFactor.POWER)):
        for args in ((bad, 2), (4, bad)):
            with pytest.raises(DomainError, match="must be an integer"):
                bound(*args)


def test_bounds_convert_integer_types():
    assert info_lower_bound(Index(4), Index(2)) == info_lower_bound(4, 2)
    assert info_lower_bound(Index(3), True) == info_lower_bound(3, 1)
    assert path_count_bound(Index(4), True) == path_count_bound(4, 1)
    assert claimed_bound_analytic(Index(10), True) == claimed_bound_analytic(10, 1)
    for factor in GrowthFactor:
        assert claimed_bound_combinatorial(Index(10), Index(2), factor) == \
            claimed_bound_combinatorial(10, 2, factor)
