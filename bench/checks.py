"""Answer checks that do not trust the code under test.

Each check takes a macq command line and its stdout and returns a list of
problems; an empty list means the answer is right.  Feedback is recomputed
here from the channel rule (zero live stations queried: silence, one: that
station's single, more: collision), so a wrong transcript or tree cannot
pass by agreeing with itself.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from itertools import combinations

from workloads import ORACLE_TABLE, Argv


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def command_key(argv: Argv) -> str:
    return " ".join(argv)


def options(argv: Argv) -> dict[str, str | bool]:
    """``--name value`` pairs of a command line; bare flags map to True."""
    opts: dict[str, str | bool] = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[name] = argv[i + 1]
            i += 2
        else:
            opts[name] = True
            i += 1
    return opts


def feedback_label(query: frozenset[int], live: frozenset[int]) -> str:
    hit = query & live
    if not hit:
        return "silence"
    if len(hit) == 1:
        return f"single:{next(iter(hit))}"
    return "collision"


def _ids(text: str) -> frozenset[int]:
    inner = text.strip("{}")
    return frozenset(int(part) for part in inner.split(",")) if inner else frozenset()


_NODE = re.compile(r"node (\d+) query=(\{[\d,]*\})$")
_LEAF = re.compile(r"leaf (\d+) live=(\{[\d,]*\})$")
_EDGE = re.compile(r"edge (\d+) (\d+) label=(silence|collision|single:\d+) color=(red|black)$")


def check_tree_export(text: str, n: int, d: int, depth: int | None = None) -> list[str]:
    """Replay every size-d live set through an exported decision tree.

    Each live set must reach a leaf naming it, having transmitted alone
    exactly the live stations on the way.  With ``depth`` given, the longest
    path must be exactly that many rounds.
    """
    queries: dict[int, frozenset[int]] = {}
    leaves: dict[int, frozenset[int]] = {}
    edges: dict[tuple[int, str], int] = {}
    for line in text.splitlines():
        if m := _NODE.match(line):
            queries[int(m[1])] = _ids(m[2])
        elif m := _LEAF.match(line):
            leaves[int(m[1])] = _ids(m[2])
        elif m := _EDGE.match(line):
            if (m[4] == "black") != m[3].startswith("single"):
                return [f"edge colour does not match its label: {line!r}"]
            edges[(int(m[1]), m[3])] = int(m[2])
        else:
            return [f"unparseable tree line {line!r}"]
    if 0 not in queries and 0 not in leaves:
        return ["tree has no root"]
    longest = 0
    cap = 4 * n + 16
    for ids in combinations(range(1, n + 1), d):
        live = frozenset(ids)
        node, rounds, sent = 0, 0, set()
        while node in queries:
            label = feedback_label(queries[node], live)
            if label.startswith("single:"):
                sent.add(int(label[7:]))
            node = edges.get((node, label), -1)
            rounds += 1
            if node < 0 or rounds > cap:
                return [f"live set {sorted(live)} leaves the tree at round {rounds}"]
        if leaves.get(node) != live or sent != live:
            return [f"live set {sorted(live)} ends at leaf {node} without being resolved"]
        longest = max(longest, rounds)
    if depth is not None and longest != depth:
        return [f"witness tree depth {longest} differs from the reported value {depth}"]
    return []


def check_transcript(doc: dict, n: int, d: int, live: frozenset[int] | None) -> list[str]:
    """Recompute every feedback of a game document and confirm it completed."""
    witness = frozenset(doc.get("witness_live", ()))
    if live is not None and (frozenset(doc.get("live", ())) != live or witness != live):
        return [f"game document is about live set {doc.get('live')}, expected {sorted(live)}"]
    if (doc.get("n"), doc.get("d")) != (n, d) or len(witness) != d or not witness <= set(range(1, n + 1)):
        return [f"game document has a bad instance or witness: {doc.get('witness_live')}"]
    rounds = doc.get("rounds", [])
    sent: set[int] = set()
    for number, entry in enumerate(rounds, 1):
        expected = feedback_label(frozenset(entry["query"]), witness)
        got = entry["feedback"]
        got = f"single:{got['single']}" if isinstance(got, dict) else got
        if got != expected:
            return [f"round {number}: feedback {got}, the channel gives {expected}"]
        if expected.startswith("single:"):
            sent.add(int(expected[7:]))
    if doc.get("rounds_used") != len(rounds):
        return [f"rounds_used {doc.get('rounds_used')} but {len(rounds)} rounds listed"]
    if doc.get("completed") is not True or sent != witness:
        return ["game is not completed: not every live station transmitted alone"]
    return []


def oracle_lower_bound(n: int, d: int) -> int:
    """Sound lower bound from the table: at least d rounds, and never fewer
    than a known cell with the same d and fewer stations (a strategy for n
    stations, restricted to the first n' of them, solves (n', d))."""
    known = [v for (n2, d2), v in ORACLE_TABLE.items() if d2 == d and n2 <= n]
    return max([d, *known])


def check_oracle(argv: Argv, stdout: str, n: int, d: int) -> list[str]:
    first, _, rest = stdout.partition("\n")
    try:
        value = int(first)
    except ValueError:
        return [f"oracle printed {first!r}, not a round count"]
    if (n, d) in ORACLE_TABLE and value != ORACLE_TABLE[(n, d)]:
        return [f"oracle ({n},{d}) = {value}, the seed solver gives {ORACLE_TABLE[(n, d)]}"]
    if value < oracle_lower_bound(n, d):
        return [f"oracle ({n},{d}) = {value} is below the lower bound {oracle_lower_bound(n, d)}"]
    if "--witness" in argv:
        return check_tree_export(rest, n, d, depth=value)
    return [] if rest == "" else [f"oracle printed extra output {rest[:40]!r}"]


def check_report(stdout: str, n_max: int, d_max: int) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    cells = [(n, d) for n in range(2, n_max + 1) for d in range(1, min(n, d_max) + 1)]
    if [(int(r["n"]), int(r["d"])) for r in rows] != cells:
        return ["report rows do not cover the requested grid in order"]
    for row in rows:
        cell = (int(row["n"]), int(row["d"]))
        if cell in ORACLE_TABLE and row["oracle_opt"] != str(ORACLE_TABLE[cell]):
            return [f"report oracle_opt at {cell} is {row['oracle_opt']!r}"]
    return []


def check_answer(argv: Argv, stdout: str) -> list[str]:
    """Checks that depend only on the command and its output."""
    opts = options(argv)
    n, d = int(opts.get("n", 0)), int(opts.get("d", 0))
    try:
        if argv[0] == "oracle":
            return check_oracle(argv, stdout, n, d)
        if argv[0] == "simulate":
            live = _ids(str(opts["live"])) if "live" in opts else None
            return check_transcript(json.loads(stdout), n, d, live)
        if argv[0] == "tree" and "check" in opts:
            doc = json.loads(stdout)
            if doc["property_holds"] is not True or doc["leaf_count"] != math.comb(n, d):
                return [f"normal-form report fails: {stdout.strip()[:80]}"]
            return []
        if argv[0] == "tree":
            return check_tree_export(stdout, n, d)
        if argv[0] == "report":
            return check_report(stdout, int(opts.get("n-max", 6)), int(opts.get("d-max", 3)))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
    return []


def check_output(argv: Argv, stdout: str, digests: dict[str, str] | None) -> list[str]:
    """All checks for one command; ``digests`` is None for seeded commands,
    whose output was never recorded."""
    problems = []
    if digests is not None:
        recorded = digests.get(command_key(argv))
        if recorded is None:
            problems.append("no stdout digest recorded for this command")
        elif recorded != digest(stdout):
            problems.append("stdout differs from the output recorded at the seed commit")
    return problems + check_answer(argv, stdout)
