#!/usr/bin/env python3
"""macq benchmark: run one workload's macq commands end to end and check them.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

This process starts one fresh ``python -m macq ...`` child at a time,
closed loop, because the oracle memo lives for the whole process.  A pass
runs the workload's command list once in a seeded order; the number of
passes follows from ``--seconds`` and the time each workload allows per
pass, so both sides of a comparison do the same work.  Every answer is
checked (see checks.py); a wrong answer, a crash or a nonzero exit is a
failure.

Times are reported at reference speed.  The 2-vCPU host this was built on
runs the same Python code up to 1.5x slower for minutes at a time, so raw
seconds from two sets of runs disagree by more than any useful bound.
Runs of reference.py, a fixed pure-Python script, bracket every stretch of
commands; each command's time is multiplied by REFERENCE_S over the mean of
its two bracketing reference times.  Raw seconds are printed as well.
Medians and percentiles use the Harrell-Davis estimator (``percentile``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run under trace_child.py and reports per-module
metrics.  Human-readable lines and a JSON report line with provenance come
first; the last line of stdout is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from checks import check_output, command_key
from workloads import (
    CELL_BUDGET_S,
    LADDER,
    LADDER_BUDGET_S,
    WORKLOADS,
    Argv,
    Workload,
    ladder_cmd,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "macq-bench"
DIGESTS = BENCH / "digests.json"
REFERENCE = BENCH / "reference.py"

SETUP_RUNS = 15         # fresh `macq --help` runs, spread over the passes; median is setup_s
COMMAND_TIMEOUT_S = 60.0
DEADLINE_S = 150.0      # stop starting commands after this; the run must end in 180 s
TRACE_OVERHEAD = 1.3    # assumed traced/untraced pass ratio when sizing traced runs
REFERENCE_S = 0.1       # times are reported as if reference.py took this long
REFERENCE_EVERY_S = 0.5
REFERENCE_WINDOW = 5    # reference runs averaged on each side of a stretch of commands


# ---------------------------------------------------------------------------
# Pure helpers (unit-tested in test_bench.py)
# ---------------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile (q in [0, 100]).

    Every order statistic is weighted by the Beta((n+1)p, (n+1)(1-p))
    probability of its rank interval.  On the few samples of a long
    workload, a plain order statistic hinges on one or two runs of one
    command; this weighted mean does not.
    """
    xs = sorted(values)
    n, p = len(xs), q / 100.0
    if p <= 0.0 or n == 1:
        return xs[0]
    if p >= 1.0:
        return xs[-1]
    a, b = (n + 1) * p - 1.0, (n + 1) * (1.0 - p) - 1.0
    steps = 64  # midpoint rule within each rank interval
    logs = [a * math.log(x) + b * math.log1p(-x)
            for x in ((k + 0.5) / (steps * n) for k in range(steps * n))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def layer_stats(spans: list, hot: dict[str, list]) -> dict[str, dict[str, float]]:
    """Per-function calls, self time and total time from one child's trace.

    A span is ``(id, parent id, name, start, end, hot_s)``.  Its self time is
    its duration minus its child spans' durations minus ``hot_s``, the time
    of hot calls made directly beneath it.  Total time counts only outermost
    calls, so recursion is not counted twice.  Hot functions arrive already
    aggregated as ``[calls, self_s, total_s]``.
    """
    by_id = {s[0]: s for s in spans}
    child_s: dict[int, float] = {}
    for sid, parent, _, start, end, _ in spans:
        child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for sid, parent, name, start, end, hot_s in spans:
        stat = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        stat["calls"] += 1
        stat["self_s"] += (end - start) - child_s.get(sid, 0.0) - hot_s
        ancestor = parent
        while ancestor in by_id and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor not in by_id:
            stat["total_s"] += end - start
    for name, (calls, self_s, total_s) in hot.items():
        out[name] = {"calls": calls, "self_s": self_s, "total_s": total_s}
    return out


def climb(cells, attempt) -> tuple[int, object, str | None]:
    """Frontier stop rule: walk the cells in order until one is not settled.

    ``attempt(cell)`` returns "ok", "budget" (the cell ran past its budget
    and was stopped; this ends the ladder but is not a failure) or "failed"
    (a crash or a wrong value).  Returns (cells settled, stopping cell,
    reason), with reason None when every cell settled.
    """
    settled = 0
    for cell in cells:
        status = attempt(cell)
        if status != "ok":
            return settled, cell, status
        settled += 1
    return settled, None, None


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    argv: Argv
    seconds: float
    rss_mb: float
    status: str                  # "ok", "failed" or "budget"
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None
    scale: float = 1.0           # converts this run's times to reference speed

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


@dataclass
class Pass:
    """One pass over a command list, with the reference times taken during it."""

    outcomes: list[Outcome]
    setup: list[Outcome]
    references: list[float]

    def wall_s(self, scaled: bool = True) -> float:
        return sum(o.scaled_s if scaled else o.seconds for o in self.outcomes)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("MACQ_MAX_N", None)
    return env


def spawn(cmd: list[str], timeout: float) -> tuple[float, int, float, bool, str, str]:
    """Run one child to completion or until ``timeout`` seconds.

    Returns (seconds, exit code, peak RSS in MiB, killed, stdout, stderr).
    The child is waited for without being reaped (WNOWAIT), so the kill
    timer can never signal a recycled pid; wait4 then reaps it and gives
    its resource usage.
    """
    killed = threading.Event()
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *cmd], child_env(),
                             file_actions=actions)

        def kill() -> None:
            killed.set()
            os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            seconds = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
            if not killed.is_set():
                os.kill(pid, signal.SIGKILL)  # a no-op on the exited child unless interrupted
            _, status, usage = os.wait4(pid, 0)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", errors="replace")
        stderr = err.read().decode("utf-8", errors="replace")
    code = os.waitstatus_to_exitcode(status)
    return seconds, code, usage.ru_maxrss / 1024.0, killed.is_set(), stdout, stderr


class Runner:
    """Runs and checks macq children, keeping the run's deadline."""

    def __init__(self, digests: dict[str, str]) -> None:
        self.digests = digests
        self.started = time.perf_counter()
        self.outcomes: list[Outcome] = []

    def run(self, argv: Argv, *, fixed: bool, traced: bool = False,
            budget: float | None = None) -> Outcome:
        left = DEADLINE_S - (time.perf_counter() - self.started)
        if left <= 0:
            outcome = Outcome(argv, 0.0, 0.0, "failed", ["not started: run deadline passed"])
            self.outcomes.append(outcome)
            return outcome
        trace_path = WORK / "trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            cmd = [str(BENCH / "trace_child.py"), str(trace_path), *argv]
        else:
            cmd = ["-m", "macq", *argv]
        limit = min(COMMAND_TIMEOUT_S if budget is None else budget, left)
        seconds, code, rss_mb, killed, stdout, stderr = spawn(cmd, limit)
        outcome = Outcome(argv, seconds, rss_mb, "ok")
        if killed:
            outcome.status = "budget" if budget is not None and limit == budget else "failed"
            outcome.problems.append(f"stopped after {limit:.1f} s")
        elif code != 0 or stderr:
            outcome.status = "failed"
            outcome.problems.append(f"exit {code}: {stderr.strip()[-200:]}")
        else:
            outcome.problems = check_output(argv, stdout, self.digests if fixed else None)
            if outcome.problems:
                outcome.status = "failed"
            if traced:
                outcome.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        self.outcomes.append(outcome)
        return outcome

    def reference(self) -> float:
        seconds, code, _, killed, _, stderr = spawn([str(REFERENCE)], COMMAND_TIMEOUT_S)
        if code != 0 or killed:
            raise RuntimeError(f"reference run failed: {stderr.strip()[-200:]}")
        return seconds

    def run_pass(self, commands: list[Argv], fixed: set[Argv], rng: random.Random,
                 traced: bool = False, setup_runs: int = 0) -> Pass:
        """One pass in seeded order, with a reference run before it and after
        every stretch of at least REFERENCE_EVERY_S seconds of commands.  A
        command's scale is REFERENCE_S over the mean of the REFERENCE_WINDOW
        reference times on each side of its stretch."""
        order = list(commands)
        rng.shuffle(order)
        refs = [self.reference()]
        stretches: list[list[Outcome]] = [[]]  # stretch k ran between refs k and k+1
        stretches[0] += [self.run(("--help",), fixed=False) for _ in range(setup_runs)]
        setup = list(stretches[0])
        outcomes = []
        for argv in order:
            outcomes.append(self.run(argv, fixed=argv in fixed, traced=traced))
            stretches[-1].append(outcomes[-1])
            if sum(o.seconds for o in stretches[-1]) >= REFERENCE_EVERY_S:
                refs.append(self.reference())
                stretches.append([])
        if stretches[-1]:
            refs.append(self.reference())
        for k, stretch in enumerate(stretches):
            near = refs[max(0, k + 1 - REFERENCE_WINDOW):k + 1 + REFERENCE_WINDOW]
            for outcome in stretch:
                outcome.scale = REFERENCE_S / statistics.fmean(near)
        return Pass(outcomes, setup, refs)

    def frontier(self, known: dict[Argv, Outcome]) -> tuple[int, object, str | None]:
        """Climb the ladder, reusing cells a pass already ran."""
        spent = 0.0

        def attempt(cell: tuple[int, int]) -> str:
            nonlocal spent
            argv = ladder_cmd(*cell)
            if argv in known:
                ran = known[argv]
                return "budget" if ran.status == "ok" and ran.seconds > CELL_BUDGET_S else ran.status
            budget = min(CELL_BUDGET_S, LADDER_BUDGET_S - spent)
            if budget <= 0:
                return "budget"
            outcome = self.run(argv, fixed=False, budget=budget)
            spent += outcome.seconds
            return outcome.status

        return climb(LADDER, attempt)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(args: argparse.Namespace, passes: int) -> dict[str, object]:
    try:
        mpmath_version = metadata.version("mpmath")
    except metadata.PackageNotFoundError:
        mpmath_version = "absent"
    return {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "mpmath": mpmath_version,
        "commit": git_commit(),
    }


def case_table(passes: list[Pass]) -> list[dict[str, object]]:
    """Per-command median latency, scaled and raw: the per-case records."""
    by_case: dict[str, list[tuple[float, float]]] = {}
    for p in passes:
        for o in p.outcomes:
            by_case.setdefault(command_key(o.argv), []).append((o.scaled_s, o.seconds))
    return [{"case": case, "layer": "cli",
             "wall_s": statistics.median(t[0] for t in times),
             "raw_wall_s": statistics.median(t[1] for t in times), "n": len(times)}
            for case, times in sorted(by_case.items())]


def metric(value: float, unit: str) -> dict[str, object]:
    if unit == "count":
        value = int(value)
    return {"value": value, "unit": unit}


def time_metrics(passes: list[Pass], scaled: bool) -> dict[str, float]:
    """setup_s, wall_s and latency percentiles, at reference speed or raw."""
    def s(o: Outcome) -> float:
        return o.scaled_s if scaled else o.seconds

    latencies = [s(o) for p in passes for o in p.outcomes]
    return {
        "setup_s": percentile([s(o) for p in passes for o in p.setup], 50),
        "wall_s": percentile([p.wall_s(scaled) for p in passes], 50),
        "cmd_p50_s": percentile(latencies, 50),
        "cmd_p90_s": percentile(latencies, 90),
    }


def end_to_end(runner: Runner, workload: Workload, rng: random.Random,
               commands: list[Argv], count: int) -> tuple[dict, dict]:
    fixed = set(workload.fixed)
    setup_runs = -(-SETUP_RUNS // count)
    passes = [runner.run_pass(commands, fixed, rng, setup_runs=setup_runs) for _ in range(count)]
    metrics = {name: metric(value, "s") for name, value in time_metrics(passes, True).items()}
    metrics["peak_rss_mb"] = metric(max(o.rss_mb for p in passes for o in p.outcomes), "MiB")
    extra: dict[str, object] = {
        "raw": time_metrics(passes, False),
        "reference_s": [statistics.median(p.references) for p in passes],
        "samples": {"setup_s": setup_runs * count, "wall_s": count,
                    "cmd": sum(len(p.outcomes) for p in passes)},
        "cases": case_table(passes),
    }
    if workload.ladder:
        extra["frontier"] = ladder_summary(runner, passes[0])
    return metrics, extra


def ladder_summary(runner: Runner, first: Pass) -> dict[str, object]:
    settled, stop, reason = runner.frontier({o.argv: o for o in first.outcomes})
    return {"frontier_cells": settled, "stopped_at": stop, "reason": reason,
            "cell_budget_s": CELL_BUDGET_S, "ladder_budget_s": LADDER_BUDGET_S}


def per_layer(runner: Runner, workload: Workload, rng: random.Random,
              commands: list[Argv], pairs: int) -> tuple[dict, dict]:
    fixed = set(workload.fixed)
    plain, traced = [], []
    for _ in range(pairs):
        plain.append(runner.run_pass(commands, fixed, rng))
        traced.append(runner.run_pass(commands, fixed, rng, traced=True))
    layers = [pass_layers(p) for p in traced]
    calls = [{k: v for k, v in layer.items() if k.endswith(".calls")} for layer in layers]
    extra: dict[str, object] = {"samples": {"traced_passes": pairs},
                                "calls_repeat": all(c == calls[0] for c in calls)}
    if workload.ladder:
        extra["frontier"] = ladder_summary(runner, plain[0])
    overhead = (statistics.median(p.wall_s() for p in traced)
                / statistics.median(p.wall_s() for p in plain))
    metrics: dict[str, dict] = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = overhead
        elif name == "oracle.frontier_cells":
            value = extra["frontier"]["frontier_cells"] if workload.ladder else 0
        else:
            value = statistics.median(layer.get(name, 0.0) for layer in layers)
        metrics[name] = metric(value, unit)
    return metrics, extra


def pass_layers(traced: Pass) -> dict[str, float]:
    """Sum one traced pass into flat per-layer metrics, times at reference speed."""
    totals: dict[str, float] = {}
    counters: dict[str, int] = {}
    imports = []
    for outcome in traced.outcomes:
        if outcome.trace is None:
            continue
        imports.append(outcome.trace["import_s"] * outcome.scale)
        for name, stat in layer_stats(outcome.trace["spans"], outcome.trace["hot"]).items():
            for key, value in stat.items():
                value = value if key == "calls" else value * outcome.scale
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0.0) + value
        for key, value in outcome.trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    totals["cli.import_s"] = statistics.median(imports) if imports else 0.0
    swept, nodes = counters.get("live_sets_swept", 0), counters.get("internal_nodes_built", 0)
    totals["engine.strategy_calls_per_live_set"] = (
        counters.get("strategy_calls_in_worst_case", 0) / swept if swept else 0.0)
    totals["qtree.strategy_calls_per_node"] = (
        counters.get("strategy_calls_in_build_tree", 0) / nodes if nodes else 0.0)
    return totals


# Per-layer metrics reported with --trace 1, with their units.  Times and
# calls are summed over the commands of one traced pass (median over passes);
# cli.import_s is the median child import time.  A function a workload never
# calls reads 0, and a ratio whose base is 0 reads 0.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("cli.import_s", "s"),
    ("cli.dispatch.self_s", "s"),
    ("oracle.exact_optimal_rounds.calls", "count"),
    ("oracle.exact_optimal_rounds.total_s", "s"),
    ("oracle.optimal_strategy_tree.total_s", "s"),
    ("oracle.frontier_cells", "count"),
    ("report.generate_report.self_s", "s"),
    ("engine.worst_case_rounds.total_s", "s"),
    ("engine.run_fixed.calls", "count"),
    ("engine.run_fixed.self_s", "s"),
    ("engine.run_adversarial.self_s", "s"),
    ("strategies.tree_split.calls", "count"),
    ("strategies.tree_split.self_s", "s"),
    ("strategies.linear_scan.calls", "count"),
    ("strategies.linear_scan.self_s", "s"),
    ("channel.evaluate_query.calls", "count"),
    ("channel.evaluate_query.self_s", "s"),
    ("channel.transmitted_set.calls", "count"),
    ("channel.transmitted_set.self_s", "s"),
    ("channel.StationSet.from_ids.calls", "count"),
    ("adversary.refine.calls", "count"),
    ("adversary.refine.self_s", "s"),
    ("adversary.exact_answer.total_s", "s"),
    ("adversary.greedy_answer.self_s", "s"),
    ("qtree.build_tree.calls", "count"),
    ("qtree.build_tree.self_s", "s"),
    ("qtree.build_tree.total_s", "s"),
    ("qtree.check_normal_form.self_s", "s"),
    ("qtree.export_graph.self_s", "s"),
    ("bounds.claimed_bound_analytic.calls", "count"),
    ("bounds.claimed_bound_analytic.self_s", "s"),
    ("bounds.claimed_bound_combinatorial.self_s", "s"),
    ("engine.strategy_calls_per_live_set", "ratio"),
    ("qtree.strategy_calls_per_node", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "macq" / "__init__.py").is_file() or not DIGESTS.is_file():
        print(f"error: no macq sources under {SRC} or no {DIGESTS.name}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    WORK.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed)
    commands = workload.commands(rng)
    runner = Runner(digests)
    if runner.run(("--help",), fixed=False).status != "ok":  # warm the bytecode cache
        print("error: `python -m macq --help` fails", file=sys.stderr)
        return 1
    runner.outcomes.clear()
    reserve = CELL_BUDGET_S if workload.ladder else 0.0  # (7,3) runs to its budget today
    budget = max(args.seconds - reserve, 0.0)
    if args.trace:
        passes = max(1, int(budget // (workload.pass_s * (1 + TRACE_OVERHEAD))))
        metrics, extra = per_layer(runner, workload, rng, commands, passes)
    else:
        passes = max(2, int(budget // workload.pass_s))
        metrics, extra = end_to_end(runner, workload, rng, commands, passes)

    attempted = len(runner.outcomes)
    failures = [o for o in runner.outcomes if o.status == "failed"]
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    if "raw" in extra:
        print("unscaled: " + ", ".join(f"{k} = {v:.6g} s" for k, v in extra["raw"].items()))
    if "calls_repeat" in extra:
        print(f"calls repeat across traced passes: {extra['calls_repeat']}")
    print(f"error_rate = {len(failures) / attempted:.6g} ({len(failures)}/{attempted} commands)")
    if "frontier" in extra:
        f = extra["frontier"]
        print(f"frontier_cells = {f['frontier_cells']} count (stopped at {f['stopped_at']}: {f['reason']})")
    for outcome in failures:
        print(f"FAILED {command_key(outcome.argv)}: {'; '.join(outcome.problems)}")
    report = dict(provenance(args, passes), attempted=attempted, failed=len(failures),
                  metrics=metrics, **extra)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
