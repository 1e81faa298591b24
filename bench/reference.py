"""Fixed pure-Python work that gauges how fast the host runs Python right now.

Usage: python bench/reference.py

run.py times this script in fresh interpreters around the macq commands and
scales each command's time by REFERENCE_S over the reference times next to
it, which cancels most of the host's drift in speed.  The work imports the
stdlib modules macq's CLI imports and then does the kind of small-integer,
tuple and dict work macq's kernels do.  It must never import macq: it has
to cost the same on every commit.
"""

import argparse  # noqa: F401  (start-up cost like the CLI's)
import dataclasses  # noqa: F401
import enum  # noqa: F401
import json
import math
from itertools import combinations


def work(n: int = 18, d: int = 5) -> int:
    groups: dict[tuple[int, int], list[int]] = {}
    total = 0
    for ids in combinations(range(n), d):
        mask = 0
        for i in ids:
            mask |= 1 << i
        key = (mask & 0x5555, (mask >> 8).bit_count())
        groups.setdefault(key, []).append(mask)
        total += mask.bit_count()
    return total + math.comb(n, d) + len(json.dumps(sorted(groups)[:64]))


if __name__ == "__main__":
    for _ in range(8):
        work()
