#!/usr/bin/env python3
"""Record the stdout digest of every fixed benchmark command.

Usage (from the repository root): python3 bench/record_digests.py

Run this only on a commit whose output is known to be right; the benchmark
then requires every later commit to print exactly the same bytes.  A
command whose answer fails the independent checks is not recorded.
"""

from __future__ import annotations

import json
import sys

from checks import check_answer, command_key, digest
from run import DIGESTS, WORK, spawn
from workloads import WORKLOADS


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    digests = {}
    for workload in WORKLOADS.values():
        for argv in workload.fixed:
            _, code, _, killed, stdout, stderr = spawn(["-m", "macq", *argv], 600.0)
            problems = check_answer(argv, stdout)
            if code != 0 or killed or stderr or problems:
                print(f"not recorded: {command_key(argv)}: exit {code} {stderr} {problems}",
                      file=sys.stderr)
                return 1
            digests[command_key(argv)] = digest(stdout)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
