#!/usr/bin/env python3
"""Benchmark for brauerval: end-to-end times per workload, layer times when traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload family --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads are `family`, `lattice` and `corpus` (see perfbench/README.md);
`all` runs the three in turn.  One closed-loop caller: every pass is a
fresh single-threaded interpreter (perfbench/child.py) that runs the
workload's tasks once each, in the order the seed sets, and every report
is checked against its golden verdict and digest.

--trace 0 measures set-up time, then repeats passes until --seconds is
used up (at least one pass), and reports the metrics BENCHMARK.json lists
under `end_to_end`.  Times are scaled to a reference host speed sampled
inside each timed interpreter (hostspeed.py); raw times are printed too.  --trace 1 runs one untraced pass and two traced
passes, and reports the metrics listed under `per_layer`.  The human
readable lines come first; the last line of stdout is one json object
with the keys correct, attempted, failed and metrics.  Exit status is 0
when the run completed (failed tasks are counted, not fatal) and 2 when
it could not run at all, in which case no result line is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction

from hostspeed import probe_ns
from tracer import LAYERS
from workloads import WORKLOADS, Task, check_outcome, load_golden, workload_tasks

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SPEC = ROOT / "BENCHMARK.json"

RUN_LIMIT_S = 175.0
SETUP_SAMPLES = 2  # set-up-only interpreters before each pass and after the last
TRACED_PASSES = 2


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ------------------------------------------------------------- statistics


def percentile(samples: list[float], pct: int) -> float:
    """pct-th percentile, interpolated linearly between closest ranks."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("no samples")
    pos = Fraction(pct * (len(xs) - 1), 100)
    lo = int(pos)
    if lo + 1 >= len(xs):
        return xs[-1]
    return xs[lo] + (xs[lo + 1] - xs[lo]) * float(pos - lo)


def samples_beyond(n: int, pct: int) -> int:
    """How many of n samples lie beyond the pct-th percentile."""
    return n * (100 - pct) // 100


# ----------------------------------------------------------- machine record


def _proc_lines(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError:
        return []


def machine_record() -> dict:
    cpuinfo = _proc_lines("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")]
    loadavg = _proc_lines("/proc/loadavg")
    return {
        "python": sys.version.split()[0],
        "nproc": sum(1 for line in cpuinfo if line.startswith("processor")),
        "cpu_model": models[0] if models else "unknown",
        "loadavg": " ".join(loadavg[0].split()[:3]) if loadavg else "unknown",
    }


# ------------------------------------------------------------------ passes


@dataclass
class Pass:
    """One child interpreter's record.  Times are raw; multiply by the
    host speed the child sampled to get seconds at the reference speed."""

    setup_s: float
    setup_speed: float
    wall_s: float
    speed: float | None
    task_s: list[float]
    task_speed: list[float]
    outcomes: list[dict]
    peak_rss_mib: float
    cpu_s: float
    totals: dict | None = None
    counts: dict | None = None


def run_pass(tasks: list[Task], trace: bool, deadline: float) -> Pass:
    """Run the tasks once each in a fresh interpreter and collect its record."""
    spec = json.dumps({"tasks": [list(t.argv) for t in tasks], "trace": trace}).encode()
    # Children import brauerval from bytecode, as an installed package
    # would; the untimed first interpreter of a run writes it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = "0"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"run exceeded its {RUN_LIMIT_S:.0f} s limit")
    started_ns = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(CHILD)],
        cwd=ROOT,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        with proc.stdin:
            proc.stdin.write(spec)
        with proc.stdout:
            out = proc.stdout.read()
        # reaped here rather than by Popen, for the child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        timer.join()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"benchmark child exited with status {proc.returncode}")
    try:
        record = json.loads(out)
    except ValueError as err:
        raise BenchError(f"unreadable child output: {err}") from err
    counts = None
    if trace:
        counts = {(task, key): n for task, key, n in record["counts"]}
    return Pass(
        setup_s=(record["ready_ns"] - started_ns) / 1e9,
        setup_speed=record["setup_speed"],
        wall_s=(record["end_ns"] - record["ready_ns"]) / 1e9,
        speed=record["speed"],
        task_s=[row["ns"] / 1e9 for row in record["tasks"]],
        task_speed=[row["speed"] for row in record["tasks"]],
        outcomes=record["tasks"],
        peak_rss_mib=usage.ru_maxrss / 1024,
        cpu_s=usage.ru_utime + usage.ru_stime,
        totals=record.get("totals"),
        counts=counts,
    )


def in_task_order(run: Pass, order: list[int]) -> Pass:
    """The pass's per-task lists in workload order; order[j] is the task run j-th."""
    back = sorted(range(len(order)), key=order.__getitem__)
    return dataclasses.replace(
        run,
        task_s=[run.task_s[j] for j in back],
        task_speed=[run.task_speed[j] for j in back],
        outcomes=[run.outcomes[j] for j in back],
    )


# ------------------------------------------------------------------ checks


def trace_problems(tasks: list[Task], run: Pass) -> list[list[str]]:
    """Per task, the self-checks that prove the wrappers reached every call site."""
    out = []
    for k, (task, outcome) in enumerate(zip(tasks, run.outcomes)):
        problems = []
        if task.task == "no-common-splitting" and "family_size_formula" in outcome:
            got = run.counts.get((k, "division.chain_division.certified"), 0)
            if got != outcome["family_size_formula"]:
                problems.append(
                    f"members certified {got}, family_size_formula {outcome['family_size_formula']}"
                )
        if task.task == "char-not-p" and "lattice_count" in outcome:
            got = run.counts.get((k, "lattices.enumerate_overlattices.lattices_out"), 0)
            if got != outcome["lattice_count"]:
                problems.append(f"lattices_out {got}, lattice_count {outcome['lattice_count']}")
        out.append(problems)
    return out


class Tally:
    """Attempted and failed task runs, with a line per failure."""

    def __init__(self, golden: dict[str, str]) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []

    def check(self, tasks: list[Task], run: Pass, extra: list[list[str]] | None = None) -> None:
        for k, (task, outcome) in enumerate(zip(tasks, run.outcomes)):
            problems = check_outcome(task, outcome, self.golden)
            if extra is not None:
                problems += extra[k]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.lines.append(f"FAIL {task.key}: {'; '.join(problems)}")


# ----------------------------------------------------------------- metrics


def end_to_end(setup_runs: list[Pass], passes: list[Pass]) -> dict[str, float]:
    """The end-to-end metrics of one untraced run, in seconds at the reference speed.

    Each time is multiplied by the host speed sampled in its own
    interpreter around it (hostspeed.py).  A task's latency is its median over the
    run's passes.  wall_s sums them, which is the time of a median pass,
    and the percentiles are taken over them, one sample per task.
    setup_s is the median over every interpreter the run started.
    """
    scaled = ([t * v for t, v in zip(p.task_s, p.task_speed)] for p in passes)
    latencies = [statistics.median(times) for times in zip(*scaled)]
    return {
        "setup_s": statistics.median(r.setup_s * r.setup_speed for r in setup_runs + passes),
        "wall_s": sum(latencies),
        "task_p50_s": percentile(latencies, 50),
        "task_p75_s": percentile(latencies, 75),
        "peak_rss_mib": statistics.median(p.peak_rss_mib for p in passes),
    }


def per_layer(names: list[str], base: Pass, traced: list[Pass], probe_s: float) -> dict:
    """Each named per-layer metric from the traced passes.

    `<layer>.<function>.calls|.errors|.self_s` come straight from span
    totals, counts from the first traced pass and times as the median over
    the traced passes at the reference speed; `<layer>.self_s` sums a
    layer's self time; the rest are derived below.
    """

    def seconds(name: str, field: str) -> float:
        return statistics.median(p.totals.get(name, {}).get(field, 0) * p.speed for p in traced) / 1e9

    def count(name: str, field: str) -> int:
        return traced[0].totals.get(name, {}).get(field, 0)

    def outcome(key: str) -> int:
        return sum(n for (_, k), n in traced[0].counts.items() if k == key)

    traced_wall = statistics.median(p.wall_s * p.speed for p in traced)
    peel_calls = count("division.morandi_step", "calls")
    derived = {
        "division.census_s": seconds("division.trace_zero_value_classes", "outer_ns"),
        "division.certify_s": seconds("division.chain_division", "outer_ns"),
        "division.members_certified": outcome("division.chain_division.certified"),
        "division.peel_yield": (
            outcome("division.morandi_step.certified") / peel_calls if peel_calls else 0.0
        ),
        "lattices.enumerate_overlattices.lattices_out": outcome(
            "lattices.enumerate_overlattices.lattices_out"
        ),
        "report.json_bytes": outcome("report.render_json.json_bytes"),
        "run.cpu_s": base.cpu_s,
        "run.wall_raw_s": base.wall_s,
        "run.host_speed": base.speed,
        "run.speed_probe_s": probe_s,
        "run.trace_overhead": traced_wall / (base.wall_s * base.speed),
    }
    out = {}
    for name in names:
        head, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif head in LAYERS and field == "self_s":
            spans = [s for s in traced[0].totals if s.startswith(head + ".")]
            out[name] = sum(seconds(s, "self_ns") for s in spans)
        elif field in ("calls", "errors"):
            out[name] = count(head, field)
        elif field == "self_s":
            out[name] = seconds(head, "self_ns")
        else:
            raise BenchError(f"BENCHMARK.json names a per-layer metric run.py cannot compute: {name}")
    return out


def top_self_times(traced: Pass, limit: int = 10) -> list[tuple[str, float, int]]:
    rows = [(name, row["self_ns"] / 1e9, row["calls"]) for name, row in traced.totals.items()]
    return sorted(rows, key=lambda r: -r[1])[:limit]


# -------------------------------------------------------------------- runs


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict, golden: dict,
                 deadline: float) -> tuple[Tally, dict, dict]:
    """One measured run of one workload: (tally, metrics, units)."""
    tasks = workload_tasks(name, ROOT)
    rng = random.Random(seed)

    def shuffled() -> list[int]:
        order = list(range(len(tasks)))
        rng.shuffle(order)
        return order

    first = shuffled()
    probe_s = probe_ns(40_000) / 1e9
    machine = machine_record()
    print(f"== workload {name}  seed {seed}  trace {int(trace)}")
    print(
        f"machine: python {machine['python']}, nproc {machine['nproc']},"
        f" cpu {machine['cpu_model']!r}, loadavg {machine['loadavg']},"
        f" speed_probe_s {probe_s:.4f}"
    )
    print("order of the first pass: " + " | ".join(tasks[i].key for i in first))
    if not trace:
        print("each later pass runs in a new order drawn from the same seeded generator")
    tally = Tally(golden)

    if not trace:
        run_pass([], False, deadline)  # untimed: the first import byte-compiles a fresh checkout
        starts: list[Pass] = []
        passes: list[Pass] = []
        started = time.monotonic()
        while True:
            starts += [run_pass([], False, deadline) for _ in range(SETUP_SAMPLES)]
            order = first if not passes else shuffled()
            run = run_pass([tasks[i] for i in order], False, deadline)
            passes.append(in_task_order(run, order))
            tally.check(tasks, passes[-1])
            elapsed = time.monotonic() - started
            if elapsed + elapsed / len(passes) > seconds:
                break
        starts += [run_pass([], False, deadline) for _ in range(SETUP_SAMPLES)]
        metrics = end_to_end(starts, passes)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        n = len(tasks)
        print(f"passes: {len(passes)}  set-up samples: {len(starts) + len(passes)}"
              f"  latency samples: {n} (one per task, its median over the passes)")
        print("pass walls, raw (s): " + " ".join(f"{p.wall_s:.3f}" for p in passes))
        print("host speed in passes: " + " ".join(f"{p.speed:.3f}" for p in passes))
        print("set-up, raw (s): " + " ".join(f"{r.setup_s:.3f}" for r in starts + passes))
        print("host speed in set-up: " + " ".join(f"{r.setup_speed:.3f}" for r in starts + passes))
        if samples_beyond(n, 75) < 10:
            print(f"note: task_p75_s has {samples_beyond(n, 75)} samples beyond it (fewer than 10)")
    else:
        tasks = [tasks[i] for i in first]  # one order, so call counts compare per task
        base = run_pass(tasks, False, deadline)
        tally.check(tasks, base)
        traced: list[Pass] = []
        for _ in range(TRACED_PASSES):
            if traced and deadline - time.monotonic() < 1.5 * traced[-1].wall_s + 5:
                print("note: too little time left for another traced pass;"
                      " call counts were not compared between passes")
                break
            run = run_pass(tasks, True, deadline)
            tally.check(tasks, run, trace_problems(tasks, run))
            traced.append(run)
        calls = [{k: v["calls"] for k, v in p.totals.items()} for p in traced]
        if any(c != calls[0] for c in calls) or any(p.counts != traced[0].counts for p in traced):
            tally.lines.append("FAIL call counts differ between the traced passes")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(list(units), base, traced, probe_s)
        print("largest self times (first traced pass, raw):")
        for span, self_s, n in top_self_times(traced[0]):
            print(f"  {span:48s} {self_s:10.4f} s  {n:9d} calls")

    for line in tally.lines:
        print(line)
    for metric, value in metrics.items():
        shown = f"{value:14.6f}" if isinstance(value, float) else f"{value:14d}"
        print(f"  {metric:48s} {shown} {units[metric]}")
    print(f"  {'tasks_failed':48s} {tally.failed} of {tally.attempted}")
    return tally, metrics, units


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True, help="sets the task order")
    parser.add_argument("--seconds", type=int, default=20, help="measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not (ROOT / "src" / "brauerval" / "cli.py").is_file():
            raise BenchError(f"no brauerval sources under {ROOT / 'src'}")
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        golden = load_golden()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        attempted = failed = 0
        clean = True
        result: dict[str, dict] = {}
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + RUN_LIMIT_S
            tally, metrics, units = run_workload(
                name, args.seed, args.seconds, bool(args.trace), spec, golden, deadline
            )
            attempted += tally.attempted
            failed += tally.failed
            clean = clean and not tally.lines
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, value in metrics.items():
                result[prefix + metric] = {"value": value, "unit": units[metric]}
    except (BenchError, OSError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(f"tasks_failed {failed} of {attempted}")
    print(json.dumps({"correct": clean and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
