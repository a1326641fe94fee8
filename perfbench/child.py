"""One pass in a fresh interpreter: import brauerval, run tasks, report.

Run from the checkout root as `python3 perfbench/child.py`, with a json
spec `{"tasks": [argv, ...], "trace": bool}` on stdin.  Each task runs
through `brauerval.cli.main(argv + ["--format", "json"])` with its
report captured in memory.  The only line written to stdout is one json
object: the monotonic time at which the first task was about to be
called (`ready_ns`), the pass's end time, and per task the exit code,
elapsed nanoseconds, the report's sha256 and the fields the output check
reads back from it.  A traced pass adds span totals and outcome counters.
The host's speed is sampled throughout (see hostspeed.py) and reported
separately for the set-up and for the tasks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

from hostspeed import Sampler, around, speed


def _report_fields(report: str) -> dict:
    doc = json.loads(report)
    payload = doc.get("payload") or {}
    fields = {"result": doc.get("result"), "exit_code": doc.get("exit_code")}
    for key in ("lattice_count", "family_size_formula"):
        if key in payload:
            fields[key] = payload[key]
    return fields


def main() -> int:
    sampler = Sampler()
    sampler.start()
    spec = json.load(sys.stdin)
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import brauerval.cli

    if not os.path.abspath(brauerval.cli.__file__).startswith(src + os.sep):
        print(f"brauerval imported from {brauerval.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    rec = None
    if spec["trace"]:
        import tracer

        rec = tracer.Recorder()
        tracer.install(rec)
    cli_main = brauerval.cli.main

    raw = []
    ready_ns = time.monotonic_ns()
    at_ready = len(sampler.samples)
    for k, argv in enumerate(spec["tasks"]):
        if rec is not None:
            rec.current_task = k
        buf = io.StringIO()
        error = None
        code = None
        started = time.monotonic_ns()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli_main(list(argv) + ["--format", "json"])
        except Exception as err:  # a crashing task fails alone; the pass goes on
            error = f"{type(err).__name__}: {err}"
        raw.append((code, started, time.monotonic_ns(), buf.getvalue(), error))
    end_ns = time.monotonic_ns()
    sampler.stop()

    import hashlib

    tasks = []
    for code, started, ended, report, error in raw:
        row = {"exit": code, "ns": ended - started, "error": error}
        row["speed"] = speed(around(sampler.samples, started, ended))
        row["digest"] = hashlib.sha256(report.encode("utf-8")).hexdigest()
        if error is None:
            try:
                row.update(_report_fields(report))
            except ValueError as err:
                row["error"] = f"unreadable report: {err}"
        tasks.append(row)
    out = {
        "ready_ns": ready_ns,
        "end_ns": end_ns,
        "setup_speed": speed(sampler.samples[:at_ready]),
        "speed": speed(sampler.samples[at_ready:]),
        "tasks": tasks,
    }
    if rec is not None:
        out["totals"] = tracer.span_totals(rec)
        out["counts"] = [[task, key, n] for (task, key), n in sorted(rec.counts.items())]
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
