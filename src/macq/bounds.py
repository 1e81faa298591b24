"""Exact counting quantities and conjectured round bounds.

Everything here is exact integer mathematics.  claimed_bound_analytic's
threshold holds lg(e); raising 2 to both sides turns it into
integer * e**d >= integer, decided by bracketing e between two fractions
over k! and raising k until the bracket falls on one side.  e**d is
irrational, so the two sides never tie and the loop ends.
"""

from __future__ import annotations

import math
from enum import Enum

from .channel import _at_least, _instance, _integer, _round_cap, _shown, _within_cap
from .errors import DomainError


def info_lower_bound(n: int, d: int) -> int:
    """Smallest t with (d+2)**t >= C(n,d), by exact integer comparison.

    This treats every round as a (d+2)-way split of the C(n,d) possible live
    sets.  Beware: a single round can actually distinguish up to |query| + 2
    outcomes, so for d = 1 and n >= 4 this quantity exceeds the true optimum;
    the report module flags exactly that discrepancy.
    """
    n, d = _instance(n, d)
    target = math.comb(n, d)
    t = 0
    power = 1
    while power < target:
        power *= d + 2
        t += 1
    return t


def path_count_bound(x: int, d: int) -> int:
    """Number of feedback paths of length at most x with exactly d reveals.

    Counts colored sequences: length h in d..x, d positions black carrying
    distinct ordered station labels (d! orders), every other position one of
    two red symbols; in closed form  sum_h C(h,d) * 2**(h-d) * d!.  x is at
    most the longest game the station cap admits, 4 * cap + 16 rounds.
    """
    x, d = _integer("x", x), _at_least("d", d, 1)
    if x < d:
        raise DomainError(f"need x >= d, got x={_shown(x)} d={_shown(d)}")
    _within_cap("x", x, d, _round_cap())
    factor = math.factorial(d)
    return sum(math.comb(h, d) * (1 << (h - d)) * factor for h in range(d, x + 1))


class GrowthFactor(Enum):
    """Ordering factor used by the combinatorial threshold: d! or d**d."""

    FACTORIAL = "factorial"
    POWER = "power"


def claimed_bound_combinatorial(n: int, d: int, factor: GrowthFactor) -> int:
    """Smallest x >= d with C(x,d) * 2**(x+1-d) * F >= C(n,d).

    F is d! or d**d per ``factor``.  Found by a forward scan; the left side
    is nondecreasing in x, so the first hit is the threshold.
    """
    n, d = _instance(n, d)
    if not isinstance(factor, GrowthFactor):
        raise DomainError(f"factor must be a GrowthFactor, got {_shown(factor)}")
    scale = math.factorial(d) if factor is GrowthFactor.FACTORIAL else d**d
    target = math.comb(n, d)
    x = d
    while math.comb(x, d) * (1 << (x + 1 - d)) * scale < target:
        x += 1
    return x


def claimed_bound_analytic(n: int, d: int) -> int:
    """Smallest integer x >= 1 with x + d*lg2(x) >= d*lg2(n/(d*e)) - d + 1.

    The right side is d*lg2(n) - d*lg2(d) - d*lg2(e) - d + 1; the comparison
    is exact (see module docstring).
    """
    n, d = _instance(n, d)
    if n < 2:
        raise DomainError(f"the analytic threshold needs n >= 2, got n={n}")
    x = 1
    while not _analytic_threshold_holds(n, d, x):
        x += 1
    return x


def counting_columns(n: int, d: int) -> dict[str, int]:
    """The report's counting columns for (n, d), by name, in column order."""
    return {
        "info_lb": info_lower_bound(n, d),
        "claimed_factorial": claimed_bound_combinatorial(n, d, GrowthFactor.FACTORIAL),
        "claimed_power": claimed_bound_combinatorial(n, d, GrowthFactor.POWER),
        "claimed_analytic": claimed_bound_analytic(n, d),
    }


def _analytic_threshold_holds(n: int, d: int, x: int) -> bool:
    # The threshold is 2**(x+d-1) * (x*d)**d * e**d >= n**d.  With q = k!
    # and p = sum of k!/i! over i <= k, p/q < e < (p+1)/q for k >= 1.
    left, right = (x * d) ** d << (x + d - 1), n**d
    k, p, q = 1, 2, 1
    while True:
        if left * p**d >= right * q**d:
            return True
        if left * (p + 1) ** d <= right * q**d:
            return False
        k += 1
        p, q = p * k + 1, q * k
